"""The batch backend against the per-trial index path, and the TV suites
that run on it.

A TV suite draws each side's trials at once from one ``IndexStream``: the
samplers run once over (trials,) index arrays on ``actions._BatchOps``. Here
a batch's draws are recorded per trial and fed, one trial at a time, to the
per-trial index backend through the ``actions._ops`` hook; every row of the
batch must be the sample that trial's draws give, on every preset, for all
five samplers and both challenge-tuple kinds.
"""

import hashlib
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
from bdga.security_lab import (
    element_value_partition,
    identity_count_partition,
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
    tup = sample_ddh_ga(pf, Random(1), "dh_shaped")
    with pytest.raises(ForeignElementError):
        sample_dist(pf, 1, tup, stream)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_lookups_match_the_2d_tables(name):
    # each lookup is a flat take at a position formed in intp; on most
    # presets the last position does not fit the elements' dtype, so a
    # position formed in that dtype would wrap at the largest indices
    pf = preset(name)
    t = pf.tables
    H, G, ops = t.H, t.G, actions._BatchOps(pf)
    generator = np.random.default_rng(17)

    def indices(table):
        drawn = generator.integers(table.order, size=300, dtype=table.dtype)
        drawn[:3] = 0, table.order - 1, table.order - 1
        return drawn

    h, h2, x, x2 = indices(H), indices(H), indices(G), indices(G)
    h2[1] = x2[1] = 0
    cases = {
        "act(h, g)": (ops.act(h, ops.g), t.act[h, t.base], G),
        "act(h, x)": (ops.act(h, x), t.act[h, x], G),
        "hmul": (ops.hmul(h, h2), H.mul[h, h2], H),
        "gmul": (ops.gmul(x, x2), G.mul[x, x2], G),
        "hinv": (ops.hinv(h), np.asarray(H.inv)[h], H),
        "ginv": (ops.ginv(x), np.asarray(G.inv)[x], G),
        "prod": (ops.prod([x, x2, x[::-1]]), G.mul[G.mul[x, x2], x[::-1]], G),
    }
    for label, (got, want, table) in cases.items():
        assert got.dtype == table.dtype, (label, got.dtype)
        assert got.tolist() == want.tolist(), label
    if name in ("gl25_conj", "gl25_twist", "sl23_dcoset"):
        assert H.order ** 2 > np.iinfo(H.dtype).max + 1


# -- the TV suites on the batch stream --------------------------------------------------


@pytest.mark.parametrize("suite", TV_SUITES)
def test_suite_result_is_deterministic(suite):
    runs = [json.dumps(run_experiment(suite, "s4_conj", s=1, trials=3000, seed=seed),
                       sort_keys=True) for seed in (11, 11, 12)]
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


# sha256 of json.dumps(result, sort_keys=True) for each TV suite at s = 1,
# 3000 trials and seed 29, recorded before the batch lookups became flat takes
SUITE_DIGESTS = {
    ("s4_conj", "real_vs_distprime_dh"):
        "cbefcf247dc42ca81fcf85752d5ce2b2281d60fdcce156e6ffb50b60707e69be",
    ("s4_conj", "fakeprime_vs_distprime_rand"):
        "3086d02311d3ccc193567330202363a6a35e789504e90aa82f8f70d84ee5b0ad",
    ("s4_conj", "fakeprime_vs_dist_dh"):
        "37e15247c7d1c0ae1584679286e83d70c380d47346546d859ffc10f85a0848c6",
    ("s4_conj", "fake_vs_dist_rand"):
        "9cbe1989857ed5fd978074a9817f367e1e423352539b6f288a2adbd0b77145de",
    ("gl25_twist", "real_vs_distprime_dh"):
        "28969ede4c5dd7a446e352ecf185704325dbe1e71bd3e9d72d498cf7b235dff8",
    ("gl25_twist", "fakeprime_vs_distprime_rand"):
        "c890f130e6d8e63aaeeaf4fac5bbd1016e46a807f896903dd1ea13dd972cefaf",
    ("gl25_twist", "fakeprime_vs_dist_dh"):
        "703148fa534ff21f65c758b8faeb99392efe1fe01f08159bfbff7c07983dbc5b",
    ("gl25_twist", "fake_vs_dist_rand"):
        "5f4ad77f5a5eae0c9efae12cc5821ea2fafcb3570e6b8a589d6e64a33f40cee9",
    ("sl23_dcoset", "real_vs_distprime_dh"):
        "a973998aaa8671d231535d99df4368c2ca15935c34ccfcf810c6293dc3193aa0",
    ("sl23_dcoset", "fakeprime_vs_distprime_rand"):
        "af3d0ef8e4ff9f443be4e1986ad8a86f120b60caa5e3a8edcbc92e3395596466",
    ("sl23_dcoset", "fakeprime_vs_dist_dh"):
        "0b8e8f79d8e58d32b40f998bad445ee64f13712c64acf699329ce17224c641cc",
    ("sl23_dcoset", "fake_vs_dist_rand"):
        "03b2993f836d8ebe2de7fc1297e0316e23e64e0882920dd3a93901a5078451fe",
}


@pytest.mark.parametrize("platform,suite", sorted(SUITE_DIGESTS))
def test_suite_result_matches_its_pinned_digest(platform, suite):
    result = run_experiment(suite, platform, s=1, trials=3000, seed=29)
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == SUITE_DIGESTS[platform, suite]


def test_batch_identical_samplers_is_noise_floor():
    # identical batch samplers sit at the noise floor under the sharp row
    # partitions too, not only under the whole-row hash
    pf = preset("bd23")

    def fake(stream):
        return sample_fake(pf, N, stream)

    for seed, part in enumerate((element_value_partition(pf, "sk", 0, 4),
                                 element_value_partition(pf, "w", N - 1, 4),
                                 identity_count_partition(pf, 4)), start=19):
        est = tv_distance(fake, fake, 4000, part, seed=seed)
        assert est.statistic <= 2.0 / 4000**0.5, part.label
        assert est.ci95[0] == 0 <= est.statistic <= est.ci95[1]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_row_partitions_bucket_as_the_sample_values(name):
    # a per-trial sample's index row buckets as its payloads do: a value
    # partition by the payload's target index, the identity count by the w's
    pf = preset(name)
    G = pf.target
    samples = [sampler(Random(seed)) for seed in range(3)
               for sampler in (lambda rng: sample_real(pf, N, rng),
                               lambda rng: sample_fake(pf, N, rng))]
    rows = np.array([index_row(pf, sample) for sample in samples])
    for buckets in (64, 5):
        for field in ("v", "w", "z", "sk"):
            for index in range(N):
                part = element_value_partition(pf, field, index, buckets)
                want = [G.index_of(sample.key.payload if field == "sk"
                                   else getattr(sample.transcript, field)[index])
                        % part.buckets for sample in samples]
                assert part(rows).tolist() == want, (field, index, buckets)
    for buckets in (8, 2):
        want = [min(sum(w == G.identity_p for w in sample.transcript.w), buckets - 1)
                for sample in samples]
        assert identity_count_partition(pf, buckets)(rows).tolist() == want, buckets


def test_element_value_partition_rejects_field_and_index():
    pf = preset("bd23")
    with pytest.raises(ValueError):
        element_value_partition(pf, "key", 0)
    rows = sample_real(pf, N, IndexStream(3, 10))
    for index in (-1, N):
        with pytest.raises(ValueError):
            element_value_partition(pf, "w", index)(rows)


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
