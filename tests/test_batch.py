"""The batch backend against the per-trial index path, and the TV suites
that run on it.

A TV suite draws each side's trials at once from one ``IndexStream``: the
samplers run once over (trials,) index arrays on ``actions._BatchOps``. Here
a batch's draws are recorded per trial and fed, one trial at a time, to the
per-trial index backend through the ``actions._ops`` hook; every row of the
batch must be the sample that trial's draws give, on every preset, for all
five samplers and both challenge-tuple kinds.
"""

import json
import os
import subprocess
import sys
from random import Random

import numpy as np
import pytest

from bdga import actions, security_lab
from bdga.actions import IndexStream
from bdga.errors import (
    BdgaError,
    DegenerateExclusionError,
    EnumerationCapError,
    ForeignElementError,
)
from bdga.experiments import EXPERIMENTS, run_experiment
from bdga.platforms import PRESET_NAMES, make_platform, preset
from bdga.protocol import uniform_pair_keys
from bdga.security_lab import (
    Batched,
    hash_partition,
    sample_ddh_ga,
    sample_dist,
    sample_dist_prime,
    sample_fake,
    sample_fake_prime,
    sample_real,
    tv_distance,
)

TRIALS = 60
N = 8  # hybrid_regime(1)
TV_SUITES = ("real_vs_distprime_dh", "fakeprime_vs_distprime_rand", "fakeprime_vs_dist_dh",
             "fake_vs_dist_rand")


def sampler_cases(pf):
    """(label, sampler) for all five samplers, the challenge-embedding ones
    with both tuple kinds and both closing-link symbols."""
    cases = [
        ("real", lambda rng: sample_real(pf, N, rng)),
        ("fake", lambda rng: sample_fake(pf, N, rng)),
        ("fake_prime", lambda rng: sample_fake_prime(pf, 1, rng)),
    ]
    for kind in ("dh_shaped", "random_excluded"):
        cases.append((f"dist_prime.{kind}", lambda rng, kind=kind: sample_dist_prime(
            pf, 1, sample_ddh_ga(pf, rng, kind), rng)))
        for symbol in ("r", "z"):
            cases.append((f"dist.{kind}.{symbol}", lambda rng, kind=kind, symbol=symbol:
                          sample_dist(pf, 1, sample_ddh_ga(pf, rng, kind), rng,
                                      closing_link=symbol)))
    return cases


class RecordingBatchOps(actions._BatchOps):
    """The batch backend, logging every draw as (group, rows, values)."""

    def __init__(self, platform, log):
        super().__init__(platform)
        self.log = log

    def draw_h(self, stream, rows=None):
        out = super().draw_h(stream, rows)
        self.log.append(("h", rows, out.copy()))
        return out

    def draw_g(self, stream, rows=None):
        out = super().draw_g(stream, rows)
        self.log.append(("g", rows, out.copy()))
        return out


def per_trial_draws(log, trials):
    """Each trial's draws, in the order that trial consumed them."""
    draws = [[] for _ in range(trials)]
    for group, rows, values in log:
        for t, value in zip(range(trials) if rows is None else rows, values):
            draws[t].append((group, int(value)))
    return draws


class ReplayOps(actions._IndexOps):
    """The per-trial index backend, drawing a recorded trial's values."""

    def __init__(self, platform, draws):
        super().__init__(platform)
        queue = iter(draws)
        self.left = queue

        def draw(group):
            def take(rng):
                want, value = next(queue)
                assert want == group, "a draw from the other group"
                return value
            return take

        self.draw_h, self.draw_g = draw("h"), draw("g")


def index_row(pf, sample):
    index = pf.tables.G.index
    tr = sample.transcript
    return [index[p] for p in (*tr.v, *tr.w, *tr.z, sample.key.payload)]


def telescopes(G, rows, n):
    z = rows[:, 2 * n:3 * n]
    acc = z[:, 0]
    for k in range(1, n):
        acc = G.mul[acc, z[:, k]]
    return bool((acc == G.identity).all())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_rows_match_per_trial_samples(name, monkeypatch):
    pf = preset(name)
    G = pf.tables.G
    for case, (label, sampler) in enumerate(sampler_cases(pf)):
        log: list = []
        recorder = RecordingBatchOps(pf, log)
        with monkeypatch.context() as m:
            m.setattr(actions, "_ops", lambda platform, rng=None: recorder)
            try:
                rows = sampler(IndexStream(1000 + case, TRIALS))
            except DegenerateExclusionError:
                with pytest.raises(DegenerateExclusionError):
                    sampler(Random(0))
                continue
        assert rows.shape == (TRIALS, 3 * N + 1) and rows.dtype == G.dtype, label
        assert telescopes(G, rows, N), label
        for t, draws in enumerate(per_trial_draws(log, TRIALS)):
            replay = ReplayOps(pf, draws)
            with monkeypatch.context() as m:
                m.setattr(actions, "_ops", lambda platform, rng=None: replay)
                sample = sampler(Random(0))
            assert index_row(pf, sample) == rows[t].tolist(), (name, label, t)
            assert next(replay.left, None) is None, (name, label, t)  # every draw used


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_excluded_witnesses_avoid_both_cosets(name):
    pf = preset(name)
    t = pf.tables
    H, act, g = t.H, t.act, t.base
    stream = IndexStream(7, 2000)
    try:
        tup = sample_ddh_ga(pf, stream, "random_excluded")
    except DegenerateExclusionError:
        return
    assert tup.kind == "random_excluded"
    x, y, z, r = tup.witness
    stab = np.flatnonzero(act[:, g] == g)
    for lead in (H.mul[y, x], H.mul[x, y]):
        coset = H.mul[lead[:, None], stab[None, :]]  # row t: lead_t . Stab
        for w in (z, r):
            assert not (coset == w[:, None]).any()
    assert (tup.t3 == act[z, g]).all() and (tup.t4 == act[r, g]).all()
    shaped = sample_ddh_ga(pf, IndexStream(8, 50), "dh_shaped")
    x, y, z, r = shaped.witness
    assert (z == H.mul[y, x]).all() and (r == H.mul[x, y]).all()


def test_batch_rejects_payload_inputs():
    pf = preset("s4_conj")
    stream = IndexStream(1, 10)
    with pytest.raises(ValueError):
        sample_real(pf, N, stream, uniform_pair_keys)
    tup = sample_ddh_ga(pf, Random(1), "dh_shaped")
    with pytest.raises(ForeignElementError):
        sample_dist(pf, 1, tup, stream)


# -- the TV suites on the batch stream --------------------------------------------------


@pytest.mark.parametrize("suite", TV_SUITES)
def test_suite_result_is_deterministic(suite):
    runs = [json.dumps(run_experiment(suite, "s4_conj", s=1, trials=3000, seed=seed),
                       sort_keys=True) for seed in (11, 11, 12)]
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


def test_batch_identical_samplers_is_noise_floor():
    # the batch twin of test_tv_identical_samplers_is_noise_floor
    pf = preset("bd23")

    def fake(rng):
        return sample_fake(pf, N, rng)

    est = tv_distance(Batched(fake), Batched(fake), 4000, hash_partition(4), seed=19)
    assert est.statistic <= 2.0 / 4000**0.5
    assert est.ci95[0] <= est.ci95[1]


def test_batch_needs_a_row_partition():
    part = security_lab.Partition("per-sample only", 2, lambda s: 0)
    fake = Batched(lambda rng: sample_fake(preset("bd23"), N, rng))
    with pytest.raises(ValueError):
        tv_distance(fake, fake, 10, part, seed=0)


def test_hash_rows_reads_every_field():
    rows = np.zeros((1, 3 * N + 1), dtype=np.uint16)
    base = security_lab._hash_rows(rows)[0]
    for col in range(rows.shape[1]):
        for value in (1, 999):
            moved = rows.copy()
            moved[0, col] = value
            assert security_lab._hash_rows(moved)[0] != base, (col, value)


@pytest.mark.parametrize("suite", TV_SUITES)
def test_suite_on_untabulable_platform_raises_typed_error(suite):
    s10 = make_platform("conjugation", family="perm", degree=10, group="full",
                        subgroup="group", base=[2, 3, 4, 5, 6, 7, 8, 9, 10, 1])
    assert not s10.tabulable
    with pytest.raises(EnumerationCapError) as caught:
        EXPERIMENTS[suite](s10, 1, 10, 0)
    assert isinstance(caught.value, BdgaError)  # the CLI's exit-2 class


RSS_PROBE = """
import resource
from bdga.experiments import run_experiment
from bdga.platforms import preset
pf = preset("s4_conj")
for name in ("real_vs_distprime_dh", "fake_vs_dist_rand"):
    run_experiment(name, pf, s=1, trials=1000, seed=1)  # tables and imports in place
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for name in ("real_vs_distprime_dh", "fake_vs_dist_rand"):
    run_experiment(name, pf, s=1, trials=100_000, seed=1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_100k_trial_suite_peak_rss_is_bounded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert float(proc.stdout.split()[-1]) < 32.0
