"""Group containers: axioms, canonical encodings, enumeration, sampling."""

import math
from random import Random

import pytest

from bdga.errors import EnumerationCapError, ForeignElementError, PlatformValidationError
from bdga.groups import (
    GL2Group,
    GroupElement,
    ModCyclicGroup,
    ProductGroup,
    SymmetricGroup,
    UnitsModGroup,
    explicit_perm_group,
    extend_homomorphism,
    generated_mat2_group,
    generated_perm_group,
    _is_prime,
    _powers,
)

SMALL_GROUPS = [
    SymmetricGroup(3),
    SymmetricGroup(4),
    UnitsModGroup(11),
    ModCyclicGroup(23, 2, 11),
    generated_mat2_group(3, [[1, 1, 0, 1], [0, 2, 1, 0]], tag="sl2_3"),
]


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.tag)
def test_axioms_exhaustive(group):
    els = group.elements_p()
    assert len(els) == group.order
    e = group.identity_p
    for a in els:
        assert group.compose_p(a, e) == a
        assert group.compose_p(e, a) == a
        assert group.compose_p(a, group.invert_p(a)) == e
    rng = Random(0)
    for _ in range(300):
        a, b, c = (group.sample_p(rng) for _ in range(3))
        assert group.compose_p(group.compose_p(a, b), c) == group.compose_p(
            a, group.compose_p(b, c)
        )
        assert group.compose_p(a, b) in set(els)


def test_orders_match_formulas():
    assert SymmetricGroup(5).order == 120
    assert SymmetricGroup(8).order == 40320
    assert GL2Group(5).order == (25 - 1) * (25 - 5)
    assert len(GL2Group(5).elements_p()) == 480
    assert UnitsModGroup(11).order == 10
    assert ModCyclicGroup(23, 2, 11).order == 11


def test_mod_cyclic_is_the_powers_of_g():
    g = ModCyclicGroup(23, 2, 11)
    values = sorted(int.from_bytes(p, "big") for p in g.elements_p())
    assert values == sorted({pow(2, k, 23) for k in range(11)})


def test_encoding_roundtrip_and_injectivity():
    for group in SMALL_GROUPS:
        seen = set()
        for el in group.elements():
            assert group.element_from_hex(el.hex()) == el
            assert el.payload not in seen
            seen.add(el.payload)


def test_element_equality_is_bytes_and_tag():
    s3 = SymmetricGroup(3)
    assert s3.element([2, 1, 3]) == GroupElement("s3", bytes([2, 1, 3]))
    assert s3.element([2, 1, 3]) != GroupElement("s4", bytes([2, 1, 3]))


def test_foreign_element_rejected():
    s3, s4 = SymmetricGroup(3), SymmetricGroup(4)
    with pytest.raises(ForeignElementError):
        s4.compose(s3.identity(), s4.identity())
    with pytest.raises(ForeignElementError):
        s3.element_from_hex(s4.identity().hex())


def test_sampling_is_uniform_chi_square():
    import scipy.stats

    s4 = SymmetricGroup(4)
    rng = Random(7)
    counts = {p: 0 for p in s4.elements_p()}
    trials = 24_000
    for _ in range(trials):
        counts[s4.sample_p(rng)] += 1
    stat, pvalue = scipy.stats.chisquare(list(counts.values()))
    assert pvalue > 1e-4

    units = UnitsModGroup(11)
    counts = {p: 0 for p in units.elements_p()}
    for _ in range(10_000):
        counts[units.sample_p(rng)] += 1
    _, pvalue = scipy.stats.chisquare(list(counts.values()))
    assert pvalue > 1e-4


def test_opposite_group_reverses_composition():
    s4 = SymmetricGroup(4)
    op = s4.opposite()
    rng = Random(3)
    for _ in range(50):
        a, b = s4.sample_p(rng), s4.sample_p(rng)
        assert op.compose_p(a, b) == s4.compose_p(b, a)
    assert op.opposite() is s4
    assert op.order == s4.order and op.identity_p == s4.identity_p


def test_product_group_componentwise():
    s3 = SymmetricGroup(3)
    u = UnitsModGroup(11)
    prod = ProductGroup(s3, u)
    assert prod.order == 60
    rng = Random(5)
    a, b = prod.sample_p(rng), prod.sample_p(rng)
    a1, a2 = prod.split(a)
    b1, b2 = prod.split(b)
    assert prod.compose_p(a, b) == s3.compose_p(a1, b1) + u.compose_p(a2, b2)
    assert prod.invert_p(a) == s3.invert_p(a1) + u.invert_p(a2)
    assert len(prod.elements_p()) == 60


def test_generated_subgroup_closure():
    a4 = generated_perm_group(4, [[2, 3, 1, 4], [1, 3, 4, 2]], tag="a4")
    assert a4.order == 12
    sl23 = generated_mat2_group(3, [[1, 1, 0, 1], [0, 2, 1, 0]])
    assert sl23.order == 24
    c23 = generated_perm_group(23, [list(range(2, 24)) + [1]])
    assert c23.order == 23


def test_untagged_generated_groups_are_tagged_by_their_elements():
    # a group's tag is hashed into every session id over it, so these stay fixed
    assert generated_perm_group(4, [[2, 3, 1, 4], [1, 3, 4, 2]]).tag == "perm4[4cac333d]"
    assert generated_perm_group(5, [[2, 3, 4, 5, 1]]).tag == "perm5[14ea6c26]"
    assert generated_mat2_group(3, [[1, 1, 0, 1], [0, 2, 1, 0]]).tag == "mat2_3[a90afa68]"
    assert generated_mat2_group(5, [[1, 1, 0, 1]]).tag == "mat2_5[fdce0853]"


def test_explicit_set_must_be_closed():
    with pytest.raises(PlatformValidationError):
        explicit_perm_group(3, [[1, 2, 3], [2, 3, 1]])  # missing the inverse 3-cycle
    ok = explicit_perm_group(3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    assert ok.order == 3


def test_enumeration_cap():
    s13 = SymmetricGroup(13)
    with pytest.raises(EnumerationCapError):
        s13.elements_p()
    # sampling still works without enumeration
    assert s13.contains_p(s13.sample_p(Random(0)))


def test_modular_group_validation_errors():
    with pytest.raises(PlatformValidationError):
        ModCyclicGroup(24, 2, 11)  # 24 not prime
    with pytest.raises(PlatformValidationError):
        ModCyclicGroup(23, 2, 7)  # wrong order
    with pytest.raises(PlatformValidationError):
        ModCyclicGroup(23, 1, 11)  # g out of range
    with pytest.raises(PlatformValidationError, match="has order 11 mod 23, not 22"):
        ModCyclicGroup(23, 2, 22)  # 2^22 = 1, but 2 has order 11
    for q in (0, -5):  # 3^0 = 3^-5 = 1 mod 11, as 3 has order 5
        with pytest.raises(PlatformValidationError, match=f"order {q} is not positive"):
            ModCyclicGroup(11, 3, q)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-2, 20000) if _is_prime(n)] == [n for n in range(20000) if trial(n)]
    # strong pseudoprimes to the bases 2..37, 2..11 and 2; Mersenne M61 and M67
    assert not any(map(_is_prime, (318665857834031151167461, 3215031751, 2047, 2**67 - 1)))
    assert _is_prime(2**61 - 1) and _is_prime(200087)
    with pytest.raises(PlatformValidationError, match="too large"):
        _is_prime(3317044064679887385961981)


def test_modular_groups_refuse_orders_past_the_cap():
    # the cap bounds both loops over q a modular group runs: the trial
    # division of q at construction and the enumeration on first use
    with pytest.raises(EnumerationCapError):
        ModCyclicGroup(2**61 - 1, 37, 2**61 - 2)
    with pytest.raises(EnumerationCapError):
        UnitsModGroup(2**40)


@pytest.mark.parametrize("p, g, q", [(23, 2, 11), (200087, 4, 100043)])
def test_modular_cyclic_elements_are_the_sorted_powers(p, g, q):
    group = ModCyclicGroup(p, g, q)
    want = sorted({pow(g, k, p) for k in range(q)})
    assert [int.from_bytes(e, "big") for e in group.elements_p()] == want


def _cyclic_outcome(p, g, q):
    try:
        ModCyclicGroup(p, g, q)
    except PlatformValidationError as exc:
        return str(exc)
    return None


def test_arithmetic_order_matches_the_powers():
    # every prime p < 400, every q dividing p - 1 and every g: the group is
    # built exactly when g^q = 1 and g has q distinct powers, and refused with
    # the order the powers count otherwise
    for p in filter(_is_prime, range(400)):
        for q in (d for d in range(1, p) if (p - 1) % d == 0):
            got = [_cyclic_outcome(p, g, q) for g in range(2, p)]
            want = []
            for g in range(2, p):
                if pow(g, q, p) != 1:
                    want.append(f"{g}^{q} != 1 mod {p}: claimed order is wrong")
                    continue
                k = len(_powers(g, p, q))
                want.append(None if k == q else f"{g} has order {k} mod {p}, not {q}")
            assert got == want, (p, q)


def test_units_order_and_draw_sequence_match_the_gcd_count():
    for q in range(2, 3001):
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        group = UnitsModGroup(q)
        assert group.order == len(units)
        assert list(group._units) == units


def test_modular_groups_enumerate_on_first_use():
    cyclic, units = ModCyclicGroup(200087, 4, 100043), UnitsModGroup(100043)
    assert cyclic._elements_p is None and units._elements_p is None
    assert "_units" not in vars(units)
    assert cyclic.elements_p()[:2] == [bytes([0, 0, 1]), bytes([0, 0, 2])]
    assert units.elements_p()[-1] == (100042).to_bytes(3, "big")


def test_extend_homomorphism_consistency():
    s3 = SymmetricGroup(3)
    swap = bytes([2, 1, 3])
    cyc = bytes([2, 3, 1])
    # identity images extend fine
    table = extend_homomorphism(
        [swap, cyc], [swap, cyc], s3.compose_p, s3.identity_p, s3.identity_p
    )
    assert len(table) == 6 and all(k == v for k, v in table.items())
    # an involution cannot map to a 3-cycle
    with pytest.raises(PlatformValidationError):
        extend_homomorphism([swap], [cyc], s3.compose_p, s3.identity_p, s3.identity_p)


@pytest.mark.parametrize("group", [
    UnitsModGroup(2), UnitsModGroup(21), UnitsModGroup(251),
    ModCyclicGroup(23, 2, 11), ModCyclicGroup(23, 5, 22), ModCyclicGroup(257, 3, 256),
], ids=lambda g: g.tag)
def test_modular_membership_is_arithmetic_and_exact(group):
    # every payload of the group's width and its neighbours' agrees with the
    # enumeration, and no index map is built to decide it
    width = group.payload_len
    candidates = [v.to_bytes(width, "big") for v in range(256 ** width)]
    candidates += [b"", bytes(width + 1), group.identity_p + b"\x00"]
    got = [p for p in candidates if group.contains_p(p)]
    assert group._index is None
    assert got == sorted(group.elements_p())
