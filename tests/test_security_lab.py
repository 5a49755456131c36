"""Distribution samplers, challenge tuples, distance estimation, and the
exact key-conditional analysis."""

import warnings
from random import Random

import numpy as np
import pytest
import scipy.stats
from brute_force import brute_force_conditional

from bdga.errors import DegenerateExclusionError, EnumerationCapError, RegimeError
from bdga.harness import derive_seed
from bdga.platforms import PRESET_NAMES, make_platform, preset
from bdga.protocol import SessionConfig, oracle_key, run_session
from bdga.security_lab import (
    Partition,
    conditional_is_uniform,
    ddh_from_witness,
    element_value_partition,
    exact_key_conditional,
    hash_partition,
    hybrid_regime,
    identity_count_partition,
    require_hybrid_n,
    sample_ddh_ga,
    sample_dist,
    sample_dist_prime,
    sample_fake,
    sample_fake_prime,
    sample_real,
    tv_distance,
)

BD = preset("bd23")
S4 = preset("s4_conj")


def check_shape(pf, sample, n):
    t = sample.transcript
    assert len(t.v) == len(t.w) == len(t.z) == n
    G = pf.target
    acc = G.identity_p
    for z in t.z:
        acc = G.compose_p(acc, z)
    assert acc == G.identity_p
    links = sample.internals["links"]
    prod = links[0]
    for link in links[1:]:
        prod = G.compose_p(prod, link)
    assert prod == sample.key.payload
    for payload in (*t.v, *t.w, *t.z):
        assert G.contains_p(payload)


# -- challenge tuples ---------------------------------------------------------------


def test_identity_witness_gives_constant_tuple():
    e = S4.acting.identity_p
    tup = ddh_from_witness(S4, e, e, e, e, "dh_shaped")
    assert tup.t1 == tup.t2 == tup.t3 == tup.t4 == S4.base


def test_bd_tuple_frozen_example():
    x = BD.acting.element(3).payload
    y = BD.acting.element(5).payload
    yx = BD.acting.compose_p(y, x)
    xy = BD.acting.compose_p(x, y)
    tup = ddh_from_witness(BD, x, y, yx, xy, "dh_shaped")
    values = [int.from_bytes(t.payload, "big") for t in (tup.t1, tup.t2, tup.t3, tup.t4)]
    assert values == [pow(2, 3, 23), pow(2, 5, 23), pow(2, 15 % 11, 23), pow(2, 15 % 11, 23)]
    assert values == [8, 9, 16, 16]


def test_commutative_tuples_have_equal_tails():
    rng = Random(0)
    for _ in range(20):
        tup = sample_ddh_ga(BD, rng, "dh_shaped")
        assert tup.t3 == tup.t4


def test_dh_tuple_shape_white_box():
    rng = Random(1)
    for _ in range(20):
        tup = sample_ddh_ga(S4, rng, "dh_shaped")
        x, y, z, r = tup.witness
        H = S4.acting
        assert tup.t3.payload == S4.apply_p(H.compose_p(y, x), S4.base_p)
        assert tup.t4.payload == S4.apply_p(H.compose_p(x, y), S4.base_p)


def test_random_excluded_tuples_avoid_the_cosets():
    rng = Random(2)
    H = S4.acting
    stab = S4.base_stabilizer_p()
    for _ in range(50):
        tup = sample_ddh_ga(S4, rng, "random_excluded")
        x, y, z, r = tup.witness
        assert z not in left_coset_p(H, H.compose_p(y, x), stab)
        assert r not in left_coset_p(H, H.compose_p(x, y), stab)
        # equivalently, the acted images differ from the shaped ones
        assert tup.t3.payload != S4.apply_p(H.compose_p(y, x), S4.base_p)
        assert tup.t4.payload != S4.apply_p(H.compose_p(x, y), S4.base_p)


def test_exclusion_degenerates_on_central_base():
    pf = make_platform(
        "conjugation", family="perm", degree=2, group="full", subgroup="group", base=[2, 1]
    )
    with pytest.raises(DegenerateExclusionError):
        sample_ddh_ga(pf, Random(3), "random_excluded")


# -- the coset h . Stab inside the acting group ----------------------------------------


def left_coset_p(H, h, stab):
    return {H.compose_p(h, s) for s in stab}


def test_coset_of_identity_is_the_stabilizer():
    stab = {el.payload for el in S4.stabilizer(S4.base)}
    assert left_coset_p(S4.acting, S4.acting.identity_p, stab) == stab


def test_coset_members_share_the_base_image():
    rng = Random(4)
    stab = {el.payload for el in S4.stabilizer(S4.base)}
    for _ in range(20):
        h = S4.acting.sample_p(rng)
        cos = left_coset_p(S4.acting, h, stab)
        assert len(cos) == len(stab)
        images = {S4.apply_p(member, S4.base_p) for member in cos}
        assert images == {S4.apply_p(h, S4.base_p)}


def test_coset_s3_frozen_example():
    pf = preset("s3_conj")
    stab = {el.payload for el in pf.stabilizer(pf.base)}  # base (1 2): centralizer {e, (1 2)}
    assert stab == {bytes([1, 2, 3]), bytes([2, 1, 3])}
    h = bytes([3, 2, 1])  # (1 3)
    cos = left_coset_p(pf.acting, h, stab)
    # independent one-line product: composing with (1 2) on the acting side
    assert cos == {bytes([3, 2, 1]), bytes([3, 1, 2])}
    # and it is the fiber through h: every element taking the base where h does
    y = pf.apply_p(h, pf.base_p)
    assert cos == {c for c in pf.acting.elements_p() if pf.apply_p(c, pf.base_p) == y}


# -- samplers ---------------------------------------------------------------------


def test_real_sampler_matches_run_session():
    for seed in (0, 9, 123):
        sample = sample_real(S4, 6, Random(seed))
        session = run_session(SessionConfig(S4, 6, seed))
        assert sample.transcript == session.transcript
        assert sample.key == session.keys[0]


def test_real_sampler_key_is_the_closed_form():
    rng = Random(5)
    for pf in (BD, S4, preset("sl23_dcoset")):
        sample = sample_real(pf, 5, rng)
        assert sample.key == oracle_key(pf, sample.internals["h"])


def test_real_sampler_first_w_uses_last_pair_key():
    sample = sample_real(S4, 7, Random(6))
    cs = sample.internals["c"]
    links = sample.internals["links"]
    assert sample.transcript.w[0] == S4.apply_p(cs[-1], links[0])


@pytest.mark.parametrize("pf_name", ["bd23", "s4_conj", "sl23_dcoset"])
def test_sampler_shapes(pf_name):
    pf = preset(pf_name)
    rng = Random(7)
    check_shape(pf, sample_real(pf, 8, rng), 8)
    check_shape(pf, sample_fake(pf, 8, rng), 8)
    check_shape(pf, sample_fake_prime(pf, 1, rng), 8)
    tup = sample_ddh_ga(pf, rng, "dh_shaped")
    check_shape(pf, sample_dist_prime(pf, 1, tup, rng), 8)
    check_shape(pf, sample_dist(pf, 1, tup, rng), 8)


def test_hybrid_regime_arithmetic():
    assert hybrid_regime(1) == 8
    assert require_hybrid_n(11) == 2
    with pytest.raises(RegimeError):
        hybrid_regime(0)
    with pytest.raises(RegimeError):
        require_hybrid_n(9)
    with pytest.raises(RegimeError):
        sample_fake_prime(S4, 0, Random(0))


def test_fake_prime_randomized_positions():
    sample = sample_fake_prime(S4, 1, Random(8))
    assert sample.internals["random_links"] == (1, 2, 3, 6)
    sample = sample_fake_prime(S4, 2, Random(8))
    assert sample.internals["random_links"] == (1, 2, 3, 6, 9)
    # the honest positions still follow the drawn secrets
    hs = sample.internals["h"]
    links = sample.internals["links"]
    H = S4.acting
    for k in range(11):
        expected = S4.apply_p(H.compose_p(hs[k], hs[k - 1]), S4.base_p)
        if k in (1, 2, 3, 6, 9):
            continue
        assert links[k] == expected


def test_fake_key_marginal_is_uniform():
    pf = preset("sl23_dcoset")
    counts = {p: 0 for p in pf.target.elements_p()}
    for t in range(3000):
        counts[sample_fake(pf, 3, Random(t)).key.payload] += 1
    _, pvalue = scipy.stats.chisquare(list(counts.values()))
    assert pvalue > 1e-4


def _forward(pf, s_list, k):
    # apply(s_{k+1} . s_k, g) with 0-based slot list and wrapping
    H = pf.acting
    return pf.apply_p(H.compose_p(s_list[k % len(s_list)], s_list[k - 1]), pf.base_p)


def _reversed(pf, s_list, k):
    H = pf.acting
    return pf.apply_p(H.compose_p(s_list[k - 1], s_list[k % len(s_list)]), pf.base_p)


@pytest.mark.parametrize("pf_name", ["s4_conj", "sl23_dcoset"])
def test_dist_prime_dh_white_box(pf_name):
    """With a shaped tuple every link is the forward product of the effective
    secrets, except the closing link which composes them in reverse (the
    orders coincide on commutative platforms)."""
    pf = preset(pf_name)
    rng = Random(9)
    for _ in range(10):
        tup = sample_ddh_ga(pf, rng, "dh_shaped")
        sample = sample_dist_prime(pf, 2, tup, rng)
        slots = sample.internals["s"]
        links = sample.internals["links"]
        n = len(slots)
        for k, v in enumerate(sample.transcript.v):
            assert v == pf.apply_p(slots[k], pf.base_p)
        for k in range(1, n):
            assert links[k] == _forward(pf, slots, k)
        assert links[0] == _reversed(pf, slots, 0)


def test_dist_prime_dh_closing_link_order_flips_noncommutatively():
    rng = Random(10)
    flipped = 0
    for _ in range(20):
        tup = sample_ddh_ga(S4, rng, "dh_shaped")
        sample = sample_dist_prime(S4, 1, tup, rng)
        slots = sample.internals["s"]
        if sample.internals["links"][0] != _forward(S4, slots, 0):
            flipped += 1
    assert flipped > 0  # not equal to the honest order in general


def test_dist_prime_commutative_platform_is_fully_honest():
    rng = Random(11)
    for _ in range(10):
        tup = sample_ddh_ga(BD, rng, "dh_shaped")
        sample = sample_dist_prime(BD, 1, tup, rng)
        slots = sample.internals["s"]
        links = sample.internals["links"]
        for k in range(8):
            assert links[k] == _forward(BD, slots, k)


def test_dist_prime_embeds_the_challenge_values():
    rng = Random(12)
    tup = sample_ddh_ga(S4, rng, "random_excluded")
    sample = sample_dist_prime(S4, 1, tup, rng)
    x, y, z, r = tup.witness
    # the second slot is x and the third is y, so v_2 = t1, v_3 = t2
    assert sample.transcript.v[1] == tup.t1.payload
    assert sample.transcript.v[2] == tup.t2.payload
    # the third link value is apply(z, g) = t3
    assert sample.internals["links"][2] == tup.t3.payload


def test_dist_dh_white_box():
    pf = S4
    rng = Random(13)
    for _ in range(10):
        tup = sample_ddh_ga(pf, rng, "dh_shaped")
        sample = sample_dist(pf, 2, tup, rng)
        slots = sample.internals["s"]
        links = sample.internals["links"]
        n = len(slots)
        assert sample.internals["random_links"] == (1, 2, 3, 6, 9)
        for k, v in enumerate(sample.transcript.v):
            assert v == pf.apply_p(slots[k], pf.base_p)
        for k in range(1, n):
            if k in (1, 2, 3, 6, 9):
                continue
            assert links[k] == _forward(pf, slots, k)
        assert links[0] == _reversed(pf, slots, 0)


def test_dist_closing_link_symbol_is_configurable():
    rng_a, rng_b = Random(14), Random(14)
    tup = sample_ddh_ga(S4, Random(15), "random_excluded")
    with_r = sample_dist(S4, 1, tup, rng_a, closing_link="r")
    with_z = sample_dist(S4, 1, tup, rng_b, closing_link="z")
    assert with_r.internals["closing_link_symbol"] == "r"
    assert with_z.internals["closing_link_symbol"] == "z"
    assert with_r.internals["links"][0] != with_z.internals["links"][0]
    with pytest.raises(ValueError):
        sample_dist(S4, 1, tup, Random(16), closing_link="t")


def test_samplers_are_deterministic_per_seed():
    tup = sample_ddh_ga(S4, Random(17), "dh_shaped")
    a = sample_dist(S4, 1, tup, Random(18))
    b = sample_dist(S4, 1, tup, Random(18))
    assert a.transcript == b.transcript and a.key == b.key


# -- total-variation machinery -----------------------------------------------------


def test_tv_identical_samplers_is_noise_floor():
    def fake(rng):
        return sample_fake(BD, 8, rng)

    est = tv_distance(fake, fake, 4000, hash_partition(4), seed=19)
    assert est.statistic <= 2.0 / 4000**0.5
    assert est.ci95[0] <= est.ci95[1]


def test_tv_point_mass_vs_uniform():
    def point(rng):
        return 0

    def coin(rng):
        return rng.randrange(2)

    part = Partition("toy", 2, lambda s: s)
    est = tv_distance(point, coin, 2000, part, seed=20)
    assert abs(est.statistic - 0.5) < 0.05


def test_tv_degenerate_partition_warns():
    part = Partition("const", 4, lambda s: 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = tv_distance(lambda r: 0, lambda r: 0, 50, part, seed=21)
    assert est.statistic == 0.0
    assert any("degenerate" in str(w.message) for w in caught)


def test_tv_real_vs_fake_positive_and_seed_stable():
    def real(rng):
        return sample_real(BD, 8, rng)

    def fake(rng):
        return sample_fake(BD, 8, rng)

    stats = [
        tv_distance(real, fake, 3000, hash_partition(64), seed=s).statistic for s in (1, 2)
    ]
    assert all(s > 0 for s in stats)
    assert abs(stats[0] - stats[1]) < 0.03


def test_identity_count_partition_separates_real_from_fake():
    # honest links never hit the identity on this platform, fake links do;
    # the white-box partition sees what the hash partition cannot
    def real(rng):
        return sample_real(BD, 8, rng)

    def fake(rng):
        return sample_fake(BD, 8, rng)

    part = identity_count_partition(BD)
    est = tv_distance(real, fake, 2000, part, seed=22)
    expected = 1.0 - (10 / 11) ** 8  # chance a fake run hits the identity at all
    assert est.statistic == pytest.approx(expected, abs=0.05)
    hashed = tv_distance(real, fake, 2000, hash_partition(64), seed=22)
    assert hashed.statistic < est.statistic  # the hash projection is nearly blind


def test_element_value_partition_buckets_by_value():
    part = element_value_partition(BD, "w", 0, buckets=64)
    assert part.buckets == 11
    sample = sample_real(BD, 8, Random(23))
    assert 0 <= part(sample) < 11


def _perm_parity(p: bytes) -> int:
    seen = [False] * len(p)
    odd = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            odd ^= 1
    return odd


def test_hybrid_closeness_fails_publicly_on_conjugation():
    # conjugation keeps honest links inside the base orbit (odd permutations
    # for a 4-cycle base), so Z_4 is always even under the shifted sampler
    # while the fully-randomized hybrid mixes parities: a public, sharp
    # separator that the hash partition cannot see
    part = Partition("parity(Z4)", 2, lambda s: _perm_parity(s.transcript.z[3]))

    def fp(rng):
        return sample_fake_prime(S4, 1, rng)

    def dpr(rng):
        return sample_dist_prime(S4, 1, sample_ddh_ga(S4, rng, "random_excluded"), rng)

    est = tv_distance(fp, dpr, 3000, part, seed=31)
    assert est.statistic > 0.4
    blind = tv_distance(fp, dpr, 3000, hash_partition(64), seed=31)
    assert blind.statistic < est.statistic


def test_hybrid_closeness_holds_on_transitive_platform():
    # with a transitive acting group the embedded links are exactly uniform
    # over the whole target, so even the sharp value partition sees noise only
    pf = preset("sl23_dcoset")
    part = element_value_partition(pf, "z", 3, buckets=24)

    def fp(rng):
        return sample_fake_prime(pf, 1, rng)

    def dpr(rng):
        return sample_dist_prime(pf, 1, sample_ddh_ga(pf, rng, "random_excluded"), rng)

    est = tv_distance(fp, dpr, 4000, part, seed=32)
    assert est.statistic < 0.07  # expected noise floor ~ 0.57*sqrt(24/4000)


# -- exact key conditional ------------------------------------------------------------


def test_exact_conditional_matches_brute_force_on_bd():
    for t in range(4):
        sample = sample_fake(BD, 4, Random(t))
        assert exact_key_conditional(BD, sample) == brute_force_conditional(BD, sample)


@pytest.mark.parametrize("name", [p for p in PRESET_NAMES if p != "bd23"])
def test_exact_conditional_matches_brute_force(name):
    # bd23 is covered above; every other preset's acting group is enumerable
    pf = preset(name)
    for t in range(3):
        sample = sample_fake(pf, 3 + t, Random(derive_seed(t, "conditional", name)))
        assert exact_key_conditional(pf, sample) == brute_force_conditional(pf, sample)


def test_exact_conditional_refuses_an_untabulable_platform():
    # S10 conjugation is above the enumeration cap: the conditional reads the
    # platform's tables, which raise the typed error instead of a long scan
    s10 = make_platform("conjugation", family="perm", degree=10, group="full",
                        subgroup="group", base=[2, 3, 4, 5, 6, 7, 8, 9, 10, 1])
    assert not s10.tabulable
    sample = sample_fake(s10, 3, Random(0))
    with pytest.raises(EnumerationCapError):
        exact_key_conditional(s10, sample)


def test_prime_order_regular_platform_is_exactly_uniform():
    pf = preset("c23_dcoset")
    for t in range(5):
        sample = sample_fake(pf, 4, Random(t))
        weights = exact_key_conditional(pf, sample)
        assert conditional_is_uniform(pf, weights)


def test_order24_platform_conditional_is_not_uniform():
    # the conditional key distribution concentrates on a strict subset: the
    # uniform-independence property is specific to prime-order cyclic targets
    pf = preset("sl23_dcoset")
    uniform = 0
    for t in range(5):
        sample = sample_fake(pf, 4, Random(t))
        weights = exact_key_conditional(pf, sample)
        uniform += conditional_is_uniform(pf, weights)
        assert sum(weights.values()) > 0
    assert uniform == 0


def test_bd_conditional_is_uniform_on_its_support():
    # with w's observed, translates that would place a link on the identity
    # are excluded; the remainder carries equal weight
    sample = sample_fake(BD, 4, Random(11))
    weights = exact_key_conditional(BD, sample)
    assert len(set(weights.values())) == 1
    assert 0 < len(weights) <= BD.target.order


def _loop_bootstrap_ci(counts, trials, seed, reps=200):
    """The bootstrap as one multinomial call per side and rep: the reference
    for tv_distance's single batched call."""
    pa, pb = counts[0] / trials, counts[1] / trials
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "bootstrap")))
    stats = np.empty(reps)
    for i in range(reps):
        ra = gen.multinomial(trials, pa) / trials
        rb = gen.multinomial(trials, pb) / trials
        stats[i] = 0.5 * float(np.abs(ra - rb).sum())
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


@pytest.mark.parametrize("seed, trials, buckets, spread", [
    (0, 50, 4, 4), (1, 1000, 64, 64), (2, 300, 16, 5), (3, 2000, 24, 24), (4, 7, 8, 3),
])
def test_tv_bootstrap_matches_per_rep_loop(seed, trials, buckets, spread):
    # draws land in the first ``spread`` buckets only, so spread < buckets
    # leaves empty buckets on both sides
    part = Partition("mod", buckets, lambda v: v % spread)

    def side(offset):
        return lambda rng: rng.randrange(spread) + offset

    est = tv_distance(side(0), side(1), trials, part, seed=seed)
    counts = np.zeros((2, buckets), dtype=np.int64)
    for s, label, offset in ((0, "a", 0), (1, "b", 1)):
        for t in range(trials):
            counts[s, part(side(offset)(Random(derive_seed(seed, label, t))))] += 1
    assert est.ci95 == _loop_bootstrap_ci(counts, trials, seed)
