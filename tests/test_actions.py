"""Actions and platforms, checked against small independent oracles.

The oracles here recompute conjugation/matrix products with their own plain
loops (no kernel calls), so expected values never share a code path with the
implementation under test.
"""

import math
from random import Random

import pytest

from bdga.actions import (
    ActionTables,
    ConjugationAction,
    DoubleCosetAction,
    ExponentAction,
    GroupAction,
    TwistedConjugacyAction,
    _generating_set,
    double_act,
)
from bdga.errors import (
    EnumerationCapError,
    ForeignElementError,
    PlatformValidationError,
)
from bdga.groups import (
    GL2Group,
    ModCyclicGroup,
    ProductGroup,
    SymmetricGroup,
    UnitsModGroup,
    generated_perm_group,
)
from bdga.platforms import PRESET_NAMES, make_platform, platform_from_descriptor, preset
from named_platforms import platform_named

# -- independent mini-oracles ---------------------------------------------------


def o_perm_mul(a, b):
    # a after b, on 1-based one-line images
    return tuple(a[b[i] - 1] for i in range(len(a)))


def o_perm_inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v - 1] = i + 1
    return tuple(out)


def o_conj(h, x):
    return o_perm_mul(o_perm_mul(o_perm_inv(h), x), h)


def o_mat_mul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def o_mat_inv(a, p):
    det = (a[0] * a[3] - a[1] * a[2]) % p
    d = pow(det, -1, p)
    return ((a[3] * d) % p, (-a[1] * d) % p, (-a[2] * d) % p, (a[0] * d) % p)


# -- act examples ------------------------------------------------------------------


def test_conjugation_act_matches_brute_force_s3():
    pf = preset("s3_conj")
    h = pf.acting.wrap(bytes([2, 1, 3]))  # (1 2)
    x = pf.target.element([2, 3, 1])  # (1 2 3)
    expected = o_conj((2, 1, 3), (2, 3, 1))
    assert pf.act(h, x).payload == bytes(expected)
    assert bytes(expected) == bytes([3, 1, 2])  # the other 3-cycle


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_identity_acts_trivially(name):
    pf = preset(name)
    rng = Random(1)
    e = pf.acting.wrap(pf.acting.identity_p)
    for _ in range(20):
        x = pf.target.sample(rng)
        assert pf.act(e, x) == x
    assert pf.act(e, pf.base) == pf.base


def test_bd_act_is_modular_exponentiation():
    pf = preset("bd23")
    h = pf.acting.element(3)
    assert pf.act(h, pf.base).payload == bytes([pow(2, 3, 23)])
    assert pow(2, 3, 23) == 8


def test_act_rejects_foreign_elements():
    pf = preset("s4_conj")
    other = SymmetricGroup(4)
    with pytest.raises(ForeignElementError):
        pf.act(other.identity(), pf.base)  # acting side expects the opposite group
    with pytest.raises(ForeignElementError):
        pf.act(pf.acting.identity(), preset("s3_conj").base)


# -- orbits and stabilizers ----------------------------------------------------------


def test_orbit_s3_transpositions():
    pf = preset("s3_conj")
    x = pf.target.element([2, 1, 3])
    got = {el.payload for el in pf.orbit(x)}
    # independent: conjugates of (1 2) computed by brute force over all of S3
    import itertools

    expected = {
        bytes(o_conj(h, (2, 1, 3))) for h in itertools.permutations(range(1, 4))
    }
    assert got == expected
    assert got == {bytes([2, 1, 3]), bytes([3, 2, 1]), bytes([1, 3, 2])}


def test_central_element_has_singleton_orbit():
    pf = preset("s4_conj")
    e = pf.target.identity()
    assert pf.orbit(e) == frozenset({e})
    assert len(pf.stabilizer(e)) == pf.acting.order


def test_stabilizer_s3_is_centralizer():
    pf = preset("s3_conj")
    x = pf.target.element([2, 1, 3])
    got = {el.payload for el in pf.stabilizer(x)}
    assert got == {bytes([1, 2, 3]), bytes([2, 1, 3])}


def test_bd_orbit_and_stabilizer():
    pf = preset("bd23")
    x = pf.target.element(2)
    got = {int.from_bytes(el.payload, "big") for el in pf.orbit(x)}
    # exhaustive: exponents run over the units mod 11, so the orbit is the 10
    # non-identity powers (the fundamental lemma forces |orbit| * |stab| = 10)
    assert got == {pow(2, h, 23) for h in range(1, 11)}
    assert len(got) == 10
    stab = {int.from_bytes(el.payload, "big") for el in pf.stabilizer(x)}
    assert stab == {1}


@pytest.mark.parametrize("name", ["s3_conj", "s4_conj", "bd23", "sl23_dcoset", "c23_dcoset"])
def test_orbit_stabilizer_product(name):
    pf = preset(name)
    for x in pf.target.elements():
        orbit, stabilizer = pf.orbit(x), pf.stabilizer(x)
        assert len(orbit) * len(stabilizer) == pf.acting.order
        # the stabilizer is a subgroup
        stab = {el.payload for el in stabilizer}
        assert pf.acting.identity_p in stab
        for a in stab:
            assert pf.acting.invert_p(a) in stab


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_fibers_are_stabilizer_cosets(name):
    # the table views against one apply_p scan of the acting group per point:
    # the orbit, the stabilizer as a subgroup, and each fiber as the coset
    # h0 . Stab whose members share h0's image
    pf = preset(name)
    H, G = pf.acting, pf.target
    for x in G.elements():
        fibers = {}
        for h in H.elements_p():
            fibers.setdefault(pf.apply_p(h, x.payload), []).append(h)
        assert {el.payload for el in pf.orbit(x)} == set(fibers)
        stab = {el.payload for el in pf.stabilizer(x)}
        assert stab == set(fibers[x.payload])
        assert H.identity_p in stab
        assert all(H.compose_p(a, b) in stab for a in stab for b in stab)
        assert len(fibers) * len(stab) == H.order
        for y, hs in fibers.items():
            h0 = hs[0]
            coset = {H.compose_p(h0, s) for s in stab}
            assert set(hs) == coset
            assert {pf.apply_p(h, x.payload) for h in coset} == {y}


def test_full_orbit_forces_trivial_stabilizer():
    pf = preset("c23_dcoset")
    x = pf.target.elements()[1]
    assert len(pf.orbit(x)) == pf.acting.order
    assert {el.payload for el in pf.stabilizer(x)} == {pf.acting.identity_p}


def test_orbit_respects_enumeration_cap():
    pf = make_platform(
        "conjugation", family="perm", degree=13, group="full", subgroup="group",
        base=[2, 1] + list(range(3, 14)),
    )
    with pytest.raises(EnumerationCapError):
        pf.orbit(pf.base)


# -- structural properties --------------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_action_axioms_validate(name):
    preset(name).validate(Random(2))


@pytest.mark.parametrize("name", ["s3_conj", "s4_conj", "gl25_conj"])
def test_conjugation_acts_via_automorphisms(name):
    pf = preset(name)
    rng = Random(4)
    G = pf.target
    for _ in range(500):
        h = pf.acting.sample_p(rng)
        x, y = G.sample_p(rng), G.sample_p(rng)
        assert pf.apply_p(h, G.compose_p(x, y)) == G.compose_p(
            pf.apply_p(h, x), pf.apply_p(h, y)
        )
        assert pf.apply_p(h, G.invert_p(x)) == G.invert_p(pf.apply_p(h, x))


def test_twisted_conjugacy_is_not_an_automorphism_action():
    # the multiplicativity property is specific to plain conjugation: with a
    # non-identity twist the identity element already moves
    pf = preset("gl25_twist")
    G = pf.target
    rng = Random(6)
    broken = 0
    for _ in range(100):
        h = pf.acting.sample_p(rng)
        x, y = G.sample_p(rng), G.sample_p(rng)
        if pf.apply_p(h, G.compose_p(x, y)) != G.compose_p(
            pf.apply_p(h, x), pf.apply_p(h, y)
        ):
            broken += 1
    assert broken > 0


def test_twisted_with_identity_table_equals_conjugation():
    conj = preset("s3_conj")
    twist = make_platform(
        "twisted_conjugacy", family="perm", degree=3, group="full", subgroup="group",
        base=[2, 1, 3],
        endo={"gens": [[2, 1, 3], [2, 3, 1]], "images": [[2, 1, 3], [2, 3, 1]]},
    )
    for h in twist.acting.elements_p():
        for x in twist.target.elements_p():
            assert twist.apply_p(h, x) == conj.apply_p(h, x)


def test_twisted_transpose_inverse_matches_oracle():
    pf = preset("gl25_twist")
    rng = Random(9)
    for _ in range(200):
        h = tuple(pf.acting.sample_p(rng))
        x = tuple(pf.target.sample_p(rng))
        ht = (h[0], h[2], h[1], h[3])
        expected = o_mat_mul(o_mat_mul(o_mat_inv(h, 5), x, 5), o_mat_inv(ht, 5), 5)
        assert pf.apply_p(bytes(h), bytes(x)) == bytes(expected)


def test_double_action_interchange_law():
    # the shipped action on the pair h + j against both bracketings
    pf = preset("s4_dcoset")
    rng = Random(11)
    G = pf.target
    for _ in range(2000):
        h = pf.left_sub.sample_p(rng)
        j = pf.right_sub.sample_p(rng)
        x = G.sample_p(rng)
        got = pf.apply_p(h + j, x)
        assert got == G.compose_p(h, G.compose_p(x, j))
        assert got == G.compose_p(G.compose_p(h, x), j)


def test_double_act_decomposes_and_matches_example():
    pf = preset("s4_dcoset")
    h = pf.left_sub.element([2, 1, 3, 4])  # (1 2)
    j = pf.right_sub.from_cycles((3, 4), (1, 2))  # (3 4)(1 2) lies in A4
    x = pf.target.identity()
    combined = double_act(pf, h, j, x)
    G = pf.target
    assert combined.payload == G.compose_p(h.payload, G.compose_p(x.payload, j.payload))
    expected = o_perm_mul(o_perm_mul((2, 1, 3, 4), (1, 2, 3, 4)), (2, 1, 4, 3))
    assert combined.payload == bytes(expected)


# -- construction and validation -------------------------------------------------------------


def test_double_act_transposition_pair_from_identity():
    pf = make_platform(
        "double_coset", family="perm", degree=4, group="full", left="group",
        right="group", base=[2, 1, 3, 4],
    )
    h = pf.left_sub.from_cycles((1, 2))
    j = pf.right_sub.from_cycles((3, 4))
    out = double_act(pf, h, j, pf.target.identity())
    assert out.payload == bytes([2, 1, 4, 3])  # the product (1 2)(3 4)


@pytest.mark.parametrize("name", ["nope", 5, ["bd23"], {"bd23": 1}, None])
def test_preset_refuses_any_other_name(name):
    # an unhashable name too: the check comes before the cache
    with pytest.raises(PlatformValidationError, match="unknown platform preset"):
        preset(name)


def test_make_platform_rejects_bad_parameters():
    with pytest.raises(PlatformValidationError):
        make_platform("bd_modp", p=24, g=2, q=11)  # composite modulus
    with pytest.raises(PlatformValidationError):
        make_platform("bd_modp", p=23, g=2, q=7)  # wrong order
    with pytest.raises(PlatformValidationError):
        make_platform("unknown_kind")
    with pytest.raises(PlatformValidationError):
        make_platform(
            "conjugation", family="perm", degree=3, group="full", subgroup="group",
            base=[1, 2],  # wrong degree
        )
    with pytest.raises(PlatformValidationError):
        make_platform(
            "twisted_conjugacy", family="perm", degree=3, group="full", subgroup="group",
            base=[2, 1, 3],
            # an involution cannot map to a 3-cycle
            endo={"gens": [[2, 1, 3], [2, 3, 1]], "images": [[2, 3, 1], [2, 3, 1]]},
        )


def sandwich_actions(target, sub):
    """Each sandwich action built with ``sub`` in one subgroup role."""
    base = target.identity()
    yield lambda: ConjugationAction(target, sub, base)
    yield lambda: TwistedConjugacyAction(target, sub, base, lambda h: h, "identity")
    yield lambda: DoubleCosetAction(target, sub, target, base)
    yield lambda: DoubleCosetAction(target, target, sub, base)


@pytest.mark.parametrize("target, sub", [
    (SymmetricGroup(4), SymmetricGroup(3)),
    (GL2Group(5), GL2Group(3)),
    (SymmetricGroup(4), GL2Group(3)),
    (GL2Group(3), SymmetricGroup(4)),
], ids=["perm_degree", "mat2_modulus", "perm_vs_mat2", "mat2_vs_perm"])
def test_sandwich_actions_refuse_a_subgroup_of_another_family(target, sub):
    # refused by the family check, before any membership test
    for build in sandwich_actions(target, sub):
        with pytest.raises(PlatformValidationError, match="family|differs"):
            build()


def test_sandwich_actions_refuse_a_target_outside_the_families():
    cyclic = ModCyclicGroup(23, 2, 11)
    for build in sandwich_actions(cyclic, cyclic):
        with pytest.raises(PlatformValidationError, match="family"):
            build()


def transpose_inverse_pair(gl):
    """Transpose-inverse on GL(2, p), by the oracle, and the same map with
    the image of the shear altered to the identity."""
    shear = bytes((1, 1, 0, 1))

    def transpose_inverse(a):
        return bytes(o_mat_inv((a[0], a[2], a[1], a[3]), gl.p))

    def altered(a):
        return gl.identity_p if a == shear else transpose_inverse(a)

    return gl.wrap(shear), transpose_inverse, altered


@pytest.mark.parametrize("p", [3, 5])
def test_twisted_conjugacy_rejects_a_non_multiplicative_endomorphism(p):
    # transpose-inverse on GL(2,p), with the image of one element altered to
    # the identity: the same exact check on GL(2,3) and on GL(2,5)
    gl = GL2Group(p)
    base, transpose_inverse, altered = transpose_inverse_pair(gl)
    TwistedConjugacyAction(gl, gl, base, transpose_inverse, "ti")
    with pytest.raises(PlatformValidationError, match="endomorphism is not multiplicative"):
        TwistedConjugacyAction(gl, gl, base, altered, "altered")


def test_multiplicative_on_an_untabulable_subgroup_draws_nothing():
    # GL(2,7) has 2016^2 pairs, above ENUMERATION_CAP: the endomorphism is
    # still checked exactly, through a generating set, with no element drawn
    gl = GL2Group(7)
    base, transpose_inverse, altered = transpose_inverse_pair(gl)

    def no_sampling(rng):
        raise AssertionError("_multiplicative sampled an element")

    gl.sample_p = no_sampling
    pf = TwistedConjugacyAction(gl, gl, base, transpose_inverse, "ti")
    assert not pf.tabulable
    with pytest.raises(PlatformValidationError, match="endomorphism is not multiplicative"):
        TwistedConjugacyAction(gl, gl, base, altered, "altered")


def test_twisted_conjugacy_checks_every_pair_below_an_untabulable_target():
    # S7 is too large to tabulate; the endomorphism of the order-3 subgroup
    # is checked on every pair of an element and a generator, which covers
    # every pair: sending the 3-cycle c to the identity but c^2 to itself
    # is not multiplicative
    s7 = SymmetricGroup(7)
    c = bytes([2, 3, 1, 4, 5, 6, 7])
    sub = generated_perm_group(7, [list(c)])
    c2 = bytes(o_perm_mul(c, c))
    base = s7.wrap(bytes([2, 1, 3, 4, 5, 6, 7]))
    assert sub.order == 3

    TwistedConjugacyAction(s7, sub, base, lambda a: a, "identity")
    with pytest.raises(PlatformValidationError, match="endomorphism is not multiplicative"):
        TwistedConjugacyAction(
            s7, sub, base, lambda a: s7.identity_p if a == c else a, "collapsed")
    with pytest.raises(PlatformValidationError, match="endomorphism is not multiplicative"):
        TwistedConjugacyAction(s7, sub, base, {c: c2, c2: c2, s7.identity_p: s7.identity_p}.get,
                               "squared")


def test_descriptor_roundtrip():
    for name in PRESET_NAMES:
        pf = preset(name)
        clone = platform_from_descriptor(pf.descriptor)
        assert clone.tag == pf.tag
        assert clone.target.order == pf.target.order
        rng = Random(13)
        for _ in range(20):
            h = pf.acting.sample_p(rng)
            x = pf.target.sample_p(rng)
            assert clone.apply_p(h, x) == pf.apply_p(h, x)


# -- validation catches broken actions ----------------------------------------------


class RightConjugation(ConjugationAction):
    """x -> h^-1 x h with the subgroup acting as itself, not as its opposite
    group: a right action passed off as a left one."""

    def __init__(self, group, base=None):
        super().__init__(group, group, base or group.wrap(group.elements_p()[1]))
        self.acting = group


class EscapingConjugation(ConjugationAction):
    """Conjugation whose left map of one acting element is not a
    permutation, so that element's images leave the target."""

    def _sandwich_maps(self, h):
        if h == self.acting.elements_p()[-1]:
            return bytes(len(h)), h
        return super()._sandwich_maps(h)


class CollapsingConjugation(ConjugationAction):
    """Every acting element acts as conjugation by the base point, the
    identity too, so the identity axiom fails."""

    def _sandwich_maps(self, h):
        return self.base_p, self.base_p


@pytest.mark.parametrize("degree", [3, 7], ids=["table", "sandwich"])
def test_validate_catches_an_identity_that_moves_points(degree):
    sym = SymmetricGroup(degree)
    pf = CollapsingConjugation(sym, sym, sym.wrap(bytes([2, 1, *range(3, degree + 1)])))
    with pytest.raises(PlatformValidationError, match="identity axiom fails"):
        pf.validate()
    assert ("tables" in vars(pf)) == pf.tabulable


def test_validate_catches_a_right_action_exhaustively():
    pf = RightConjugation(SymmetricGroup(4))
    assert pf.tabulable
    with pytest.raises(PlatformValidationError, match="compatibility axiom fails"):
        pf.validate()
    assert "tables" in vars(pf)  # the table branch ran


def test_validate_catches_an_action_leaving_the_target():
    s3 = SymmetricGroup(3)
    pf = EscapingConjugation(s3, s3, s3.wrap(bytes([2, 1, 3])))
    with pytest.raises(PlatformValidationError, match="leaves the target"):
        pf.validate()


def test_validate_catches_a_right_action_on_the_tables():
    # 120^2 entries, read off the sandwich maps: the generator checks on
    # the table still find the fault
    pf = RightConjugation(SymmetricGroup(5))
    assert pf.tabulable
    with pytest.raises(PlatformValidationError, match="compatibility axiom fails"):
        pf.validate()
    assert "tables" in vars(pf)  # the table branch ran


def test_validate_catches_a_right_action_by_its_sandwich_maps():
    pf = RightConjugation(SymmetricGroup(7))
    assert not pf.tabulable
    with pytest.raises(PlatformValidationError, match="compatibility axiom fails"):
        pf.validate()
    assert "tables" not in vars(pf)  # the sandwich check ran


class RightFactorDoubleCoset(DoubleCosetAction):
    """x -> h x j with the right subgroup acting as itself, not as its
    opposite group."""

    def __init__(self, target, base):
        super().__init__(target, target, target, base)
        self.acting = ProductGroup(target, target)


class ZeroingConjugation(ConjugationAction):
    """Conjugation whose right map of every acting element but the identity
    is not a permutation, so its images leave the target."""

    def _sandwich_maps(self, h):
        return h, (h if h == self.acting.identity_p else bytes(len(h)))


class SwappedDoubleCoset(DoubleCosetAction):
    """The double coset's maps with the pair's halves swapped, (j, h) for
    (h^-1, j): r(h, j) = h is not reversed by the acting group's product,
    so the compatibility axiom fails."""

    def _sandwich_maps(self, hj):
        return hj[self._cut:], hj[:self._cut]


def test_swapping_the_maps_gives_another_action():
    # a(h) and r(h) meet the same identity, so the swap (r(h), a(h)) is an
    # action too, x -> r(h)^-1 x a(h), and validate() rightly accepts it;
    # the swap of the pair's halves above is the one it must refuse
    class Swapped(DoubleCosetAction):
        def _sandwich_maps(self, hj):
            a, r = super()._sandwich_maps(hj)
            return r, a

    s4 = SymmetricGroup(4)
    pf = Swapped(s4, s4, s4, s4.wrap(bytes([2, 1, 3, 4])))
    pf.validate()
    h, j, x = bytes([2, 3, 1, 4]), bytes([1, 2, 4, 3]), bytes([4, 3, 2, 1])
    assert pf.apply_p(h + j, x) == bytes(o_perm_mul(o_perm_mul(o_perm_inv(j), x), o_perm_inv(h)))


S10 = SymmetricGroup(10)
S10_BASE = S10.wrap(bytes([*range(2, 11), 1]))


@pytest.mark.parametrize("build, message", [
    (lambda: CollapsingConjugation(S10, S10, S10_BASE), "identity axiom fails"),
    (lambda: RightConjugation(S10, S10_BASE), "compatibility axiom fails"),
    (lambda: SwappedDoubleCoset(S10, S10, S10, S10_BASE), "compatibility axiom fails"),
    (lambda: RightFactorDoubleCoset(S10, S10_BASE), "compatibility axiom fails"),
    (lambda: ZeroingConjugation(S10, S10, S10_BASE), "an image leaves the target group"),
], ids=["collapsing", "right_acting", "swapped", "dcoset_right_factor", "escaping"])
def test_exact_sandwich_validation_catches_mutants(build, message):
    pf = build()
    assert not pf.tabulable
    with pytest.raises(PlatformValidationError, match=message):
        pf.validate()


@pytest.mark.parametrize("name", ["s10_conj", "gl27_conj"])
def test_exact_sandwich_validation_makes_a_few_dozen_calls(name):
    """The maps at the identity and three draws of H: no apply_p call, and
    3 draws, each counted twice through the opposite group's base."""
    pf = platform_named(name)
    applies, draws = [], []
    apply = pf.apply_p
    pf.apply_p = lambda h, x: applies.append((h, x)) or apply(h, x)
    for group in (pf.acting, pf.target):
        group.sample_p = lambda rng, draw=group.sample_p: draws.append(1) or draw(rng)
    pf.validate()
    assert not applies and 0 < len(draws) <= 6
    assert "tables" not in vars(pf)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_exact_validation_passes_on_every_preset(name):
    preset(name)._validate_exact(Random(0xA11))


S5 = SymmetricGroup(5)
S5_BASE = S5.wrap(bytes([2, 3, 4, 5, 1]))
C5 = generated_perm_group(5, [[2, 3, 4, 5, 1]])  # keeps S5 x C5^op tabulable


@pytest.mark.parametrize("build", [
    lambda: CollapsingConjugation(S5, S5, S5_BASE),
    lambda: RightConjugation(S5, S5_BASE),
    lambda: SwappedDoubleCoset(S5, S5, C5, S5_BASE),
], ids=["collapsing", "right_acting", "swapped"])
def test_exact_validation_raises_where_the_table_check_raises(build):
    pf = build()
    assert pf.tabulable
    with pytest.raises(PlatformValidationError):
        pf.validate()
    with pytest.raises(PlatformValidationError):
        pf._validate_exact(Random(0xA11))


class UntabulableShift(GroupAction):
    """A left action by no sandwich construction and with no exact check:
    the units mod q acting on themselves by multiplication."""

    def __init__(self, q):
        units = UnitsModGroup(q)
        super().__init__(f"shift{q}", units, units, units.identity_p)
        self.apply_p = units.compose_p


def test_validate_refuses_an_untabulable_action_it_cannot_check_exactly():
    pf = UntabulableShift(100043)
    assert not pf.tabulable
    with pytest.raises(PlatformValidationError, match="not an action that can be checked exactly"):
        pf.validate()


@pytest.mark.parametrize("kind, role", [("conjugation", "subgroup"), ("double_coset", "left")])
def test_a_full_subgroup_above_the_cap_must_be_the_target(kind, role):
    # S10 is too large to enumerate: by Lagrange it is refused as a subgroup
    # of the order-10 cyclic group, and as its family's full group it is
    # accepted in S10
    cycle = [*range(2, 11), 1]
    with pytest.raises(PlatformValidationError,
                       match="of order 3628800 is not contained in .* of order 10"):
        make_platform(kind, family="perm", degree=10, group=[cycle], base=cycle,
                      **{role: "full"})
    pf = make_platform(kind, family="perm", degree=10, group="full", base=cycle, **{role: "full"})
    assert pf.target.order == 3628800


class CollapsingExponent(ExponentAction):
    def apply_p(self, h, x):
        return self.base_p


class OffByOneExponent(ExponentAction):
    """x -> x^(h + 1)."""

    def apply_p(self, h, x):
        return super().apply_p((int.from_bytes(h, "big") + 1).to_bytes(len(h), "big"), x)


class WideModulusExponent(ExponentAction):
    """x -> x^h for h a unit mod 2q = p - 1, not mod the target's order q."""

    def __init__(self, p, g, q):
        super().__init__(p, g, q)
        self.acting = UnitsModGroup(2 * q)


@pytest.mark.parametrize("cls, message", [
    (CollapsingExponent, "identity axiom fails"),
    (OffByOneExponent, "identity axiom fails"),
    (WideModulusExponent, "acting modulus 200086 is not the target's order 100043"),
], ids=["collapsing", "off_by_one", "wide_modulus"])
def test_exact_exponent_validation_catches_mutants(cls, message):
    pf = cls(200087, 4, 100043)
    assert not pf.tabulable
    with pytest.raises(PlatformValidationError, match=message):
        pf.validate()


def test_exact_exponent_validation_draws_nothing():
    pf = ExponentAction(200087, 4, 100043)

    def no_sampling(rng):
        raise AssertionError("validate() sampled an element")

    pf.acting.sample_p = pf.target.sample_p = no_sampling
    pf.validate()
    assert pf.acting._elements_p is None and pf.target._elements_p is None


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_validate_never_samples_a_tabulable_platform(name):
    """Every preset is validated over its tables, drawing no group element.
    A sandwich platform reads its table off its maps, so neither a fresh
    table nor validate() calls apply_p; bd23's table applies every acting
    element to every target element once, and validate() calls it no more."""
    pf = platform_from_descriptor(preset(name).descriptor)

    def no_sampling(rng):
        raise AssertionError("validate() sampled an element")

    pf.acting.sample_p = pf.target.sample_p = no_sampling
    calls = []
    apply = pf.apply_p
    pf.apply_p = lambda h, x: calls.append((h, x)) or apply(h, x)
    ActionTables(pf)
    pf.validate()
    want = 0 if pf._sandwich_maps else pf.acting.order * pf.target.order
    assert len(calls) == len(set(calls)) == want


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_generating_set_generates_the_acting_group(name):
    H = preset(name).tables.H
    gens = _generating_set(H)
    assert len(gens) <= math.log2(H.order)
    mul = H.mul.tolist()
    reached, frontier = {H.identity}, [H.identity]
    while frontier:
        fresh = {mul[a][s] for a in frontier for s in gens} - reached
        reached |= fresh
        frontier = list(fresh)
    assert reached == set(range(H.order))
