"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Expected values marked as derived were computed with independent
oracles (plain modular exponentiation, standalone permutation loops) before
being frozen here.

One criterion is expected to fail: exact uniformity of the key conditioned
on a fake transcript at target-group order 24 with four parties. The
conditional is the pushforward of a uniform translate through
t -> t*(t a1)*(t a2)*(t a3). With every a_k = e that map is the power map
t -> t^4, which is a bijection iff gcd(4, |G|) = 1, so at n = 4 it is not a
bijection on any group of even order, every order-24 target included
(test_security_lab pins the power-map fact on every preset). Whether the
fiber-weighted conditional, which weights each translate, is uniform is a
separate question; the test measures it on sl23_dcoset. The neighboring
test demonstrates the same machinery passing exactly on a prime-order
platform.
"""

import time
from pathlib import Path
from random import Random

from bdga.cli import main as cli_main
from bdga.errors import (
    InstanceNotAcceptedError,
    InstanceReusedError,
    OracleContractError,
    TestUnavailableError,
)
from bdga.harness import OracleEnv, derive_seed, estimate_advantage
from bdga.experiments import (
    fake_key_independence,
    make_env_factory,
    make_null_distinguisher,
    run_experiment,
)
from bdga.platforms import preset
from bdga.protocol import PartyState, SessionConfig, oracle_key, run_session
from bdga.security_lab import (
    conditional_is_uniform,
    exact_key_conditional,
    sample_fake,
)

CORRECTNESS_PLATFORMS = ("bd23", "s4_conj", "s5_conj", "gl25_conj", "gl25_twist", "s4_dcoset")


def report(name, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {flag}{(' -- ' + detail) if detail else ''}")


# -- 1. correctness --------------------------------------------------------------


def test_correctness_thousand_sessions_per_platform():
    t0 = time.perf_counter()
    failures = 0
    for pf_name in CORRECTNESS_PLATFORMS:
        pf = preset(pf_name)
        for i in range(1000):
            n = 3 + (i % 10)  # cycles through 3..12
            res = run_session(SessionConfig(pf, n, derive_seed(0xC0, pf_name, i)))
            keys = {k.payload for k in res.keys}
            if len(keys) != 1 or res.keys[0] != oracle_key(pf, res.internals.secrets):
                failures += 1
            if any(not (r.acc and r.term and r.sk is not None) for r in res.records):
                failures += 1
    elapsed = time.perf_counter() - t0
    report("correctness-6000-sessions", failures == 0 and elapsed < 60,
           f"failures={failures} elapsed={elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60


# -- 2. commutative reduction ------------------------------------------------------


def run_fixed_secret_session(pf, secrets, seed):
    """Full message flow with prescribed secrets (pair keys still random)."""
    n = len(secrets)
    rng = Random(seed)
    cs = [pf.acting.sample_p(rng) for _ in range(n)]
    parties = [PartyState(pf, i + 1, n) for i in range(n)]
    for i, p in enumerate(parties):
        p.set_pair_keys(cs[i - 1], cs[i])
        p.set_secret(secrets[i])
    vs = [p.round2_message() for p in parties]
    for i, p in enumerate(parties):
        p.receive_round2(vs[i - 1], vs[(i + 1) % n])
    ws = [p.round3_message() for p in parties]
    for i, p in enumerate(parties):
        p.receive_round3(ws[(i + 1) % n])
    zs = [p.round4_values()[2] for p in parties]
    for p in parties:
        p.receive_round4(zs)
    return [p.compute_key() for p in parties]


def test_classical_commutative_reduction():
    pf = preset("bd23")
    secrets = [pf.acting.element(v).payload for v in (3, 5, 7)]
    ok = True
    for seed in range(5):  # pair keys must never matter
        keys = run_fixed_secret_session(pf, secrets, seed)
        values = {int.from_bytes(k, "big") for k in keys}
        # independent oracle: 2^((3*7 + 5*3 + 7*5) mod 11) mod 23 = 9
        expected = pow(2, (3 * 7 + 5 * 3 + 7 * 5) % 11, 23)
        ok = ok and values == {expected} == {9}

    rng = Random(77)
    mismatches = 0
    for _ in range(200):
        n = rng.randrange(3, 9)
        hs = [rng.randrange(1, 11) for _ in range(n)]
        keys = run_fixed_secret_session(
            pf, [pf.acting.element(v).payload for v in hs], rng.getrandbits(30)
        )
        symbolic = pow(2, sum(hs[k] * hs[k - 1] for k in range(n)) % 11, 23)
        if {int.from_bytes(k, "big") for k in keys} != {symbolic}:
            mismatches += 1
    report("classical-commutative-reduction", ok and mismatches == 0,
           f"frozen key 9, symbolic mismatches={mismatches}/200")
    assert ok
    assert mismatches == 0


# -- 3. algebra suites ----------------------------------------------------------------


def test_algebra_suites():
    t0 = time.perf_counter()
    s4 = preset("s4_conj")
    H, G = s4.acting, s4.target
    # exhaustive action axioms on the 24^3 triples
    els = H.elements_p()
    violations = 0
    for x in G.elements_p():
        if s4.apply_p(H.identity_p, x) != x:
            violations += 1
    for h2 in els:
        for h1 in els:
            h21 = H.compose_p(h2, h1)
            for x in G.elements_p():
                if s4.apply_p(h2, s4.apply_p(h1, x)) != s4.apply_p(h21, x):
                    violations += 1
    assert violations == 0

    # sampled axioms elsewhere (10^4 triples each)
    for name in ("bd23", "s5_conj", "gl25_conj", "gl25_twist", "s4_dcoset", "sl23_dcoset"):
        pf = preset(name)
        rng = Random(derive_seed(1, name))
        for _ in range(10_000):
            h1, h2 = pf.acting.sample_p(rng), pf.acting.sample_p(rng)
            x = pf.target.sample_p(rng)
            assert pf.apply_p(h2, pf.apply_p(h1, x)) == pf.apply_p(
                pf.acting.compose_p(h2, h1), x
            )

    # orbit-stabilizer product for every element of every enumerable preset
    for name in ("bd23", "s3_conj", "s4_conj", "s5_conj", "gl25_conj", "gl25_twist",
                 "s4_dcoset", "sl23_dcoset", "c23_dcoset"):
        pf = preset(name)
        for x in pf.target.elements():
            assert len(pf.orbit(x)) * len(pf.stabilizer(x)) == pf.acting.order

    # conjugation acts via automorphisms: exhaustive on s4, sampled on the rest
    for h in els:
        for x in G.elements_p():
            for y in G.elements_p():
                if s4.apply_p(h, G.compose_p(x, y)) != G.compose_p(
                    s4.apply_p(h, x), s4.apply_p(h, y)
                ):
                    violations += 1
    assert violations == 0
    for name in ("s5_conj", "gl25_conj"):
        pf = preset(name)
        rng = Random(derive_seed(2, name))
        Gp = pf.target
        for _ in range(10_000):
            h = pf.acting.sample_p(rng)
            x, y = Gp.sample_p(rng), Gp.sample_p(rng)
            assert pf.apply_p(h, Gp.compose_p(x, y)) == Gp.compose_p(
                pf.apply_p(h, x), pf.apply_p(h, y)
            )

    # interchange law, exhaustive on both shipped double-coset platforms: the
    # shipped action on the pair h + j against both bracketings
    for name in ("s4_dcoset", "sl23_dcoset"):
        pf = preset(name)
        G = pf.target
        for h in pf.left_sub.elements_p():
            for j in pf.right_sub.elements_p():
                for x in G.elements_p():
                    got = pf.apply_p(h + j, x)
                    assert got == G.compose_p(h, G.compose_p(x, j))
                    assert got == G.compose_p(G.compose_p(h, x), j)
    elapsed = time.perf_counter() - t0
    report("algebra-suites", elapsed < 120, f"elapsed={elapsed:.1f}s")
    assert elapsed < 120


# -- 4. transcript invariants ------------------------------------------------------------


def test_transcript_invariants_ten_thousand_sessions():
    bad = 0
    for i in range(10_000):
        pf = preset(CORRECTNESS_PLATFORMS[i % len(CORRECTNESS_PLATFORMS)])
        rng = Random(derive_seed(3, i))
        n = rng.randrange(3, 13)
        res = run_session(SessionConfig(pf, n, rng.getrandbits(40)))
        G, H = pf.target, pf.acting
        acc = G.identity_p
        for z in res.transcript.z:
            acc = G.compose_p(acc, z)
        if acc != G.identity_p:
            bad += 1
        hs = res.internals.secrets
        for k in range(n):
            if res.internals.x[k] != pf.apply_p(H.compose_p(hs[k], hs[k - 1]), pf.base_p):
                bad += 1
            if res.internals.y[k] != pf.apply_p(
                H.compose_p(hs[(k + 1) % n], hs[k]), pf.base_p
            ):
                bad += 1
    report("transcript-invariants-10k", bad == 0, f"violations={bad}")
    assert bad == 0


# -- 5./6. distribution shape checks -----------------------------------------------------


def test_real_matches_shaped_hybrid_distribution():
    res = run_experiment("real_vs_distprime_dh", "s4_conj", s=1, trials=100_000, seed=0xE3)
    report("real-vs-distprime-dh", res["pass"],
           f"tv={res['statistic']:.4f} tolerance={res['tolerance']}")
    assert res["statistic"] <= 0.02


def test_fake_matches_random_hybrid_distribution():
    res = run_experiment("fake_vs_dist_rand", "s4_conj", s=1, trials=100_000, seed=0xE6)
    report("fake-vs-dist-rand", res["pass"],
           f"tv={res['statistic']:.4f} tolerance={res['tolerance']}")
    assert res["statistic"] <= 0.02


# -- 7. key independence under fake transcripts ---------------------------------------------


def test_fake_key_independence_exact_uniformity_order24():
    """EXPECTED RED. The conditioned key distribution is not uniform on the
    order-24 target of sl23_dcoset with four parties (see the module
    docstring); the check below is the criterion exactly as stated, and it
    fails honestly."""
    pf = preset("sl23_dcoset")
    assert pf.target.order == 24
    worst = 0.0
    all_uniform = True
    for t in range(12):
        sample = sample_fake(pf, 4, Random(derive_seed(4, t)))
        weights = exact_key_conditional(pf, sample)
        uniform = conditional_is_uniform(pf, weights)
        all_uniform = all_uniform and uniform
        total = sum(weights.values())
        tv = 0.5 * sum(
            abs(weights.get(p, 0) / total - 1 / 24) for p in pf.target.elements_p()
        )
        worst = max(worst, tv)
    report("fake-key-independence-exact-|G|24", all_uniform,
           f"worst conditional TV from uniform = {worst:.3f} (expected red; "
           "at a_k = e the key map is t -> t^4, not a bijection as gcd(4, 24) = 4)")
    assert all_uniform, (
        f"key|transcript deviates from uniform by TV {worst:.3f} on 12 fake "
        "transcripts at |G| = 24 with n = 4; at a_k = e the key map is the power "
        "map t -> t^4, a bijection only when gcd(4, |G|) = 1"
    )


def test_fake_key_independence_exact_uniformity_prime_order_demo():
    """The same machinery on a prime-order regular platform, where the
    conditional is provably exactly uniform: the check passes."""
    res = fake_key_independence(preset("c23_dcoset"), 4, 12, seed=5, null_trials=100)
    report("fake-key-independence-prime-demo", res["pass"],
           f"statistic={res['statistic']} uniform={res['uniform_transcripts']}/12")
    assert res["statistic"] == 0.0
    assert res["uniform_transcripts"] == 12


def test_null_distinguisher_under_fake_keys():
    trials = 10_000
    bound = 3.0 / trials**0.5
    rep = estimate_advantage(
        make_null_distinguisher(preset("sl23_dcoset"), seed=6, n=4),
        make_env_factory(preset("sl23_dcoset"), derive_seed(6, "env"), fake_keys=True),
        trials,
    )
    report("null-distinguisher-fake-keys", rep.advantage <= bound,
           f"advantage={rep.advantage:.4f} bound={bound:.4f}")
    assert rep.advantage <= bound


# -- 8. oracle contracts --------------------------------------------------------------------


def test_oracle_contract_suite():
    pf = preset("bd23")
    trio = [("U1", 0), ("U2", 0), ("U3", 0)]

    def reuse_whole_set(env):
        env.execute(trio)
        env.execute(trio)

    def reuse_one_instance(env):
        env.execute(trio)
        env.execute([("U1", 0), ("U4", 0), ("U5", 0)])

    def double_test(env):
        env.execute(trio)
        env.test("U1", 0)
        env.test("U2", 0)

    def test_before_accept(env):
        env.test("U1", 0)

    def test_unknown_instance(env):
        env.execute(trio)
        env.test("U7", 3)

    sequences = [
        (reuse_whole_set, InstanceReusedError),
        (reuse_one_instance, InstanceReusedError),
        (double_test, TestUnavailableError),
        (test_before_accept, InstanceNotAcceptedError),
        (test_unknown_instance, InstanceNotAcceptedError),
    ]
    caught = 0
    for i, (sequence, expected) in enumerate(sequences):
        env = OracleEnv(pf, derive_seed(7, i))
        try:
            sequence(env)
        except expected:
            caught += 1
        except OracleContractError:
            pass
    report("oracle-contract-suite", caught == len(sequences),
           f"{caught}/{len(sequences)} sequences raised the exact typed error")
    assert caught == len(sequences)


# -- 9. determinism ----------------------------------------------------------------------------


def test_determinism_of_artifacts(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"run_{tag}"
        assert cli_main(["run", "--platform", "gl25_twist", "--n", "5", "--seed", "99",
                         "--out", str(out)]) == 0
        rpt = tmp_path / f"report_{tag}.json"
        code = cli_main(["experiment", "--experiment", "fakeprime_vs_distprime_rand",
                         "--platform", "s4_conj", "--s", "1", "--trials", "2000",
                         "--seed", "42", "--out", str(rpt)])
        assert code == 0
        pairs.append((
            Path(f"{out}.transcript.json").read_bytes(),
            Path(f"{out}.keys.json").read_bytes(),
            rpt.read_bytes(),
        ))
    same = pairs[0] == pairs[1]
    report("determinism-byte-identical", same, "transcript, keys and report files")
    assert same
