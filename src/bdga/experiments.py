"""Named experiment suites: distribution-pair distance checks, the exact
key-conditional uniformity check, and a toy-parameter break demonstration.

Each suite returns a JSON-able result dict embedding its manifest (name,
platform, regime, trials, seed) plus the statistic, interval, tolerance and
pass flag, so a written report reproduces bit-exactly from its own fields.
The four TV suites draw each side as one batch of index rows from a PCG64
stream seeded by (seed, side) and bucket the rows by a 64-bucket hash.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random
from typing import Callable

from . import __version__
from .actions import GroupAction
from .errors import BdgaError, RegimeError
from .harness import OracleEnv, derive_seed, estimate_advantage
from .platforms import preset
from .protocol import oracle_key
from .security_lab import (
    DistanceEstimate,
    conditional_is_uniform,
    exact_key_conditional,
    hash_partition,
    hybrid_regime,
    sample_ddh_ga,
    sample_dist,
    sample_dist_prime,
    sample_fake,
    sample_fake_prime,
    sample_real,
    tv_distance,
)

DEFAULT_TRIALS = 100_000
DEFAULT_TOLERANCE = 0.02
MAX_CANDIDATES = 100_000  # the exhaustive-search distinguisher's largest search


def _result(manifest: dict, estimate: DistanceEstimate | None, statistic: float,
            tolerance: float, passed: bool, **extras) -> dict:
    out = {
        "manifest": manifest,
        "tool_version": __version__,
        "statistic": statistic,
        "tolerance": tolerance,
        "pass": bool(passed),
    }
    if estimate is not None:
        out["ci95"] = list(estimate.ci95)
        out["partition"] = estimate.partition
    out.update(extras)
    return out


def _manifest(name: str, platform: GroupAction, trials: int, seed: int, **regime) -> dict:
    return {
        "experiment": name,
        "platform": platform.tag,
        "platform_descriptor": platform.descriptor,
        "trials": trials,
        "seed": seed,
        **regime,
    }


def _tv_suite(
    name: str,
    platform: GroupAction,
    s: int,
    trials: int,
    seed: int,
    tolerance: float,
    sampler_a,
    sampler_b,
    slack: float = 0.0,
    **extras,
) -> dict:
    est = tv_distance(sampler_a, sampler_b, trials, hash_partition(64), seed)
    tol = tolerance + slack
    manifest = _manifest(name, platform, trials, seed, s=s, n=hybrid_regime(s))
    return _result(manifest, est, est.statistic, tol, est.statistic <= tol,
                   slack=slack, **extras)


def real_vs_distprime_dh(platform, s, trials, seed, tolerance=DEFAULT_TOLERANCE) -> dict:
    n = hybrid_regime(s)

    def a(rng):
        return sample_real(platform, n, rng)

    def b(rng):
        return sample_dist_prime(platform, s, sample_ddh_ga(platform, rng, "dh_shaped"), rng)

    return _tv_suite("real_vs_distprime_dh", platform, s, trials, seed, tolerance, a, b)


def fakeprime_vs_distprime_rand(platform, s, trials, seed, tolerance=DEFAULT_TOLERANCE) -> dict:
    # the two sides agree only up to |H_g|/|H|; that slack widens the tolerance
    slack = len(platform.base_stabilizer_p()) / platform.acting.order

    def a(rng):
        return sample_fake_prime(platform, s, rng)

    def b(rng):
        return sample_dist_prime(
            platform, s, sample_ddh_ga(platform, rng, "random_excluded"), rng
        )

    return _tv_suite("fakeprime_vs_distprime_rand", platform, s, trials, seed, tolerance,
                     a, b, slack=slack)


def fakeprime_vs_dist_dh(platform, s, trials, seed, tolerance=DEFAULT_TOLERANCE,
                         closing_link="r") -> dict:
    def a(rng):
        return sample_fake_prime(platform, s, rng)

    def b(rng):
        return sample_dist(platform, s, sample_ddh_ga(platform, rng, "dh_shaped"), rng,
                           closing_link=closing_link)

    return _tv_suite("fakeprime_vs_dist_dh", platform, s, trials, seed, tolerance, a, b,
                     closing_link=closing_link)


def fake_vs_dist_rand(platform, s, trials, seed, tolerance=DEFAULT_TOLERANCE,
                      closing_link="r") -> dict:
    n = hybrid_regime(s)

    def a(rng):
        return sample_fake(platform, n, rng)

    def b(rng):
        return sample_dist(platform, s, sample_ddh_ga(platform, rng, "random_excluded"), rng,
                           closing_link=closing_link)

    return _tv_suite("fake_vs_dist_rand", platform, s, trials, seed, tolerance, a, b,
                     closing_link=closing_link)


def exact_conditional_tv(platform: GroupAction, weights: dict[bytes, int]) -> Fraction:
    """Exact total variation between an integer-weighted key distribution and
    the uniform distribution over the whole target group."""
    total = sum(weights.values())
    order = platform.target.order
    acc = Fraction(0)
    for payload in platform.target.elements_p():
        acc += abs(Fraction(weights.get(payload, 0), total) - Fraction(1, order))
    return acc / 2


def fake_key_independence(platform, n, trials, seed, tolerance=0.0,
                          null_trials=10_000) -> dict:
    """Exhaustively condition the key on sampled fake transcripts and compare
    with the uniform distribution, exactly; also score a coin-flipping
    distinguisher against the Test oracle with keys replaced by fresh
    uniform elements.

    ``null_advantage`` is fixed by the seeds alone: the distinguisher's coin
    comes from its own seed and each hidden bit is its environment's first
    draw, whatever ``execute`` and ``test`` return. Its games check only
    that the oracles run without raising, not what the keys are."""
    worst = Fraction(0)
    uniform_count = 0
    for t in range(trials):
        sample = sample_fake(platform, n, Random(derive_seed(seed, "ki", t)))
        weights = exact_key_conditional(platform, sample)
        if conditional_is_uniform(platform, weights):
            uniform_count += 1
        tv = exact_conditional_tv(platform, weights)
        worst = max(worst, tv)
    null_report = estimate_advantage(
        make_null_distinguisher(platform, derive_seed(seed, "nullguess")),
        make_env_factory(platform, derive_seed(seed, "nullenv"), fake_keys=True),
        null_trials,
    )
    manifest = _manifest("fake_key_independence", platform, trials, seed, n=n)
    passed = worst <= tolerance and null_report.advantage <= 3.0 / null_trials**0.5
    return _result(
        manifest,
        None,
        float(worst),
        tolerance,
        passed,
        uniform_transcripts=uniform_count,
        null_advantage=null_report.advantage,
        null_trials=null_trials,
        null_bound=3.0 / null_trials**0.5,
    )


# -- distinguishers ----------------------------------------------------------------


def make_env_factory(platform: GroupAction, seed: int, fake_keys: bool = False):
    def factory(trial: int) -> OracleEnv:
        return OracleEnv(platform, derive_seed(seed, "env", trial), fake_keys=fake_keys)

    return factory


def make_null_distinguisher(platform: GroupAction, seed: int, n: int = 3):
    """Queries the oracles correctly, then guesses a fresh coin."""
    rng = Random(seed)
    instances = [(f"U{i + 1}", 0) for i in range(n)]

    def distinguisher(env: OracleEnv) -> int:
        env.execute(instances)
        env.test(*instances[0])
        return rng.getrandbits(1)

    return distinguisher


def make_cheating_distinguisher(n: int = 3):
    """Calibration upper bound: reads the environment's hidden bit."""
    instances = [(f"U{i + 1}", 0) for i in range(n)]

    def distinguisher(env: OracleEnv) -> int:
        env.execute(instances)
        env.test(*instances[0])
        return env.hidden_bit

    return distinguisher


def make_exhaustive_search_distinguisher(platform: GroupAction, n: int = 3):
    """Recovers every secret vector consistent with the public v values (the
    acting elements that move the base point to each, read once from the
    action table), recomputes the candidate keys, and guesses 1 iff the Test
    value is one of them. Near-perfect on toy parameters. Raises RegimeError
    for n < 3 and EnumerationCapError on a platform that is not tabulable,
    both here, before any game runs: every execute would fail, and an
    all-failed run reads as advantage 1. A game with more than
    MAX_CANDIDATES consistent secret vectors raises RegimeError."""
    if n < 3:
        raise RegimeError(f"party count {n} < 3")
    t = platform.tables
    candidates: dict[bytes, list[bytes]] = {}
    for h, v in zip(t.H.elements, t.act[:, t.base].tolist()):
        candidates.setdefault(t.G.elements[v], []).append(h)
    instances = [(f"U{i + 1}", 0) for i in range(n)]

    def distinguisher(env: OracleEnv) -> int:
        transcript = env.execute(instances)
        candidates_per_v = [candidates.get(v, ()) for v in transcript.v]
        combos = 1
        for m in candidates_per_v:
            combos *= max(len(m), 1)
        if combos > MAX_CANDIDATES:
            raise RegimeError(f"search space {combos} exceeds {MAX_CANDIDATES}")
        keys = {oracle_key(platform, hs).payload for hs in itertools.product(*candidates_per_v)}
        value = env.test(*instances[0])
        return 1 if value.payload in keys else 0

    return distinguisher


def ddh_toy_advantage(platform, n, trials, seed, threshold=0.8) -> dict:
    """Demonstrates that desk-scale parameters are breakable: the exhaustive
    distinguisher should reach advantage near 1, so 'pass' means the attack
    WORKS (statistic >= threshold)."""
    report = estimate_advantage(
        make_exhaustive_search_distinguisher(platform, n=n),
        make_env_factory(platform, derive_seed(seed, "ddhenv")),
        trials,
    )
    manifest = _manifest("ddh_toy_advantage", platform, trials, seed, n=n)
    return _result(
        manifest,
        None,
        report.advantage,
        threshold,
        report.advantage >= threshold,
        direction=">=",
        successes=report.successes,
        ci95=[max(report.advantage - report.ci95, 0.0), min(report.advantage + report.ci95, 1.0)],
        q_ex=report.q_ex,
    )


EXPERIMENTS: dict[str, Callable[..., dict]] = {
    "real_vs_distprime_dh": real_vs_distprime_dh,
    "fakeprime_vs_distprime_rand": fakeprime_vs_distprime_rand,
    "fakeprime_vs_dist_dh": fakeprime_vs_dist_dh,
    "fake_vs_dist_rand": fake_vs_dist_rand,
    "fake_key_independence": fake_key_independence,
    "ddh_toy_advantage": ddh_toy_advantage,
}

EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "real_vs_distprime_dh": {"platform": "s4_conj", "s": 1},
    "fakeprime_vs_distprime_rand": {"platform": "s4_conj", "s": 1},
    "fakeprime_vs_dist_dh": {"platform": "s4_conj", "s": 1},
    "fake_vs_dist_rand": {"platform": "s4_conj", "s": 1},
    "fake_key_independence": {"platform": "sl23_dcoset", "n": 4, "trials": 12},
    "ddh_toy_advantage": {"platform": "bd23", "n": 3, "trials": 400},
}


def run_experiment(name: str, platform: GroupAction | str | None = None, *,
                   s: int | None = None, n: int | None = None,
                   trials: int | None = None, seed: int = 0,
                   tolerance: float | None = None, **opts) -> dict:
    """Dispatch a named suite with its documented defaults filled in."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if type(seed) is not int:
        raise BdgaError(f"seed must be an integer, got {seed!r}")
    for label, value in (("n", n), ("s", s)):
        if value is not None and type(value) is not int:
            raise BdgaError(f"{label} must be an integer, got {value!r}")
    if tolerance is not None:
        if type(tolerance) is bool or not isinstance(tolerance, (int, float)):
            raise BdgaError(f"tolerance must be a real number, got {tolerance!r}")
        if not math.isfinite(tolerance):
            raise BdgaError(f"tolerance must be finite, got {tolerance!r}")
    defaults = EXPERIMENT_DEFAULTS[name]
    if platform is None:
        platform = defaults["platform"]
    if isinstance(platform, str):
        platform = preset(platform)
    kwargs: dict = {"seed": seed}
    if name in ("fake_key_independence", "ddh_toy_advantage"):
        kwargs["n"] = n if n is not None else defaults["n"]
        kwargs["trials"] = trials if trials is not None else defaults["trials"]
        if tolerance is not None:
            key = "threshold" if name == "ddh_toy_advantage" else "tolerance"
            kwargs[key] = tolerance
    else:
        if s is not None and n is not None and n != 3 * s + 5:
            raise BdgaError(f"party count n = {n} is not 3s + 5 for s = {s}")
        if s is None:
            s = defaults["s"] if n is None else None
        if s is None and n is not None:
            from .security_lab import require_hybrid_n

            s = require_hybrid_n(n)
        kwargs["s"] = s
        kwargs["trials"] = trials if trials is not None else DEFAULT_TRIALS
        if tolerance is not None:
            kwargs["tolerance"] = tolerance
    if not (type(kwargs["trials"]) is int and kwargs["trials"] >= 1):
        raise BdgaError(f"trials must be an integer >= 1, got {kwargs['trials']!r}")
    kwargs.update(opts)
    return EXPERIMENTS[name](platform, **kwargs)
