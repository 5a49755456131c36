"""The integer-table path against the byte-level reference path.

Tabulable platforms draw their samples in index space and condition keys on
the action table. Every sampler here is driven once over the tables and once
over payloads (the private ``_ops`` backend choice), on every preset, and
must give the same transcript, key and internals and leave the RNG in the
same state after every draw.
"""

from random import Random

import pytest

from bdga import security_lab
from bdga.errors import DegenerateExclusionError, ForeignElementError
from bdga.groups import GL2Group, ProductGroup, SymmetricGroup, generated_perm_group
from bdga.harness import derive_seed
from bdga.platforms import PRESET_NAMES, preset
from bdga.protocol import uniform_pair_keys

SEEDS = range(200)


def reversed_pair_keys(platform, n, rng):
    """A custom source: uniform keys, handed out in reverse draw order."""
    return [platform.acting.sample_p(rng) for _ in range(n)][::-1]


def draw_script(pf, seed):
    """Every sampler and both tuple kinds on one RNG: (label, value, RNG
    state after the draw) per draw. Even seeds use the default pair-key
    source, odd seeds a custom one."""
    lab = security_lab
    rng = Random(derive_seed(seed, "tables"))
    keys = uniform_pair_keys if seed % 2 == 0 else reversed_pair_keys
    n = 3 + seed % 4
    out = []

    def record(label, value):
        if isinstance(value, lab.DistributionSample):
            value = (value.transcript, value.key, value.internals)
        out.append((label, value, rng.getstate()))

    record("real", lab.sample_real(pf, n, rng, keys))
    record("fake", lab.sample_fake(pf, n, rng, keys))
    record("fake_prime", lab.sample_fake_prime(pf, 1, rng, keys))
    for kind in ("dh_shaped", "random_excluded"):
        try:
            tup = lab.sample_ddh_ga(pf, rng, kind)
        except DegenerateExclusionError:
            record(kind, "degenerate")
            continue
        record(kind, tup)
        record("dist_prime", lab.sample_dist_prime(pf, 1, tup, rng, keys))
        for symbol in ("r", "z"):
            record(f"dist.{symbol}", lab.sample_dist(pf, 1, tup, rng, keys, closing_link=symbol))
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_samplers_on_tables_match_bytes(name, monkeypatch):
    pf = preset(name)
    assert pf.tabulable
    on_tables = [draw_script(pf, seed) for seed in SEEDS]
    with monkeypatch.context() as m:
        m.setattr(security_lab, "_ops", security_lab._ByteOps)
        on_bytes = [draw_script(pf, seed) for seed in SEEDS]
    for seed, (got, want) in enumerate(zip(on_tables, on_bytes)):
        assert len(got) == len(want)
        for (label, value, state), (_, ref_value, ref_state) in zip(got, want):
            assert value == ref_value, (name, seed, label)
            assert state == ref_state, (name, seed, label)


def test_table_path_rejects_a_foreign_witness():
    pf = preset("s4_conj")
    e = pf.acting.identity_p
    tup = security_lab.ddh_from_witness(pf, e, e, e, bytes(4), "dh_shaped")
    with pytest.raises(ForeignElementError):
        security_lab.sample_dist(pf, 1, tup, Random(0))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_table_conditional_matches_fibers(name):
    pf = preset(name)
    for t in range(6):
        sample = security_lab.sample_fake(pf, 3 + t % 3, Random(derive_seed(t, "cond", name)))
        got = security_lab._table_key_conditional(pf.tables, sample.transcript)
        want = security_lab._fiber_key_conditional(pf, sample.transcript)
        assert got == want
        assert list(got) == list(want)  # same key order
        assert all(type(w) is int for w in got.values())


@pytest.mark.parametrize("group", [
    SymmetricGroup(1), SymmetricGroup(2), SymmetricGroup(5), SymmetricGroup(6),
    GL2Group(3), SymmetricGroup(4).opposite(),
    ProductGroup(SymmetricGroup(3), generated_perm_group(4, [[2, 3, 1, 4]]).opposite()),
], ids=lambda g: g.tag)
def test_index_draw_matches_sample_p(group):
    a, b = Random(7), Random(7)
    for _ in range(300):
        assert group.table.elements[group.table.draw(a)] == group.sample_p(b)
        assert a.getstate() == b.getstate()


def test_group_tables_match_compose_and_invert():
    a4 = generated_perm_group(4, [[2, 3, 1, 4], [1, 3, 4, 2]])
    for group in (SymmetricGroup(4).opposite(), ProductGroup(SymmetricGroup(3), a4.opposite()),
                  GL2Group(3)):
        t = group.table
        for a, pa in enumerate(t.elements):
            assert t.elements[t.inv[a]] == group.invert_p(pa)
            for b, pb in enumerate(t.elements):
                assert t.elements[t.mul[a, b]] == group.compose_p(pa, pb)
