"""The integer-table path against the byte-level reference path.

Tabulable platforms draw their samples and run their sessions and oracle
games in index space and condition keys on the action table. Every sampler,
the key exchange and the oracle game are driven here once over the tables
and once over payloads (the private ``actions._ops`` backend choice), on
every preset, and must give the same bytes and leave the RNG in the same
state after every draw. The vectorized table builds are checked against the
element-by-element loops.
"""

import dataclasses
from random import Random

import numpy as np
import pytest
from brute_force import brute_force_conditional, compose_product
from named_platforms import UNTABULABLE, platform_named

from bdga import actions, security_lab
from bdga.errors import DegenerateExclusionError, ForeignElementError
from bdga.groups import (
    GL2Group,
    ModCyclicGroup,
    OppositeGroup,
    ProductGroup,
    SymmetricGroup,
    UnitsModGroup,
    generated_mat2_group,
    generated_perm_group,
)
from bdga.harness import OracleEnv, derive_seed
from bdga.platforms import PRESET_NAMES, preset
from bdga.protocol import (
    PartyState,
    SessionConfig,
    Transcript,
    run_session,
)

SEEDS = range(200)


def byte_ops(platform, rng=None):
    """A stand-in for ``actions._ops`` that forces the byte backend."""
    return actions._ByteOps(platform)


def draw_script(pf, seed):
    """Every sampler and both tuple kinds on one RNG: (label, value, RNG
    state after the draw) per draw."""
    lab = security_lab
    rng = Random(derive_seed(seed, "tables"))
    n = 3 + seed % 4
    out = []

    def record(label, value):
        if isinstance(value, lab.DistributionSample):
            value = (value.transcript, value.key, value.internals)
        out.append((label, value, rng.getstate()))

    record("real", lab.sample_real(pf, n, rng))
    record("fake", lab.sample_fake(pf, n, rng))
    record("fake_prime", lab.sample_fake_prime(pf, 1, rng))
    for kind in ("dh_shaped", "random_excluded"):
        try:
            tup = lab.sample_ddh_ga(pf, rng, kind)
        except DegenerateExclusionError:
            record(kind, "degenerate")
            continue
        record(kind, tup)
        record("dist_prime", lab.sample_dist_prime(pf, 1, tup, rng))
        for symbol in ("r", "z"):
            record(f"dist.{symbol}", lab.sample_dist(pf, 1, tup, rng, closing_link=symbol))
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_samplers_on_tables_match_bytes(name, monkeypatch):
    pf = preset(name)
    assert pf.tabulable
    on_tables = [draw_script(pf, seed) for seed in SEEDS]
    with monkeypatch.context() as m:
        m.setattr(actions, "_ops", byte_ops)
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
    # exact_key_conditional reads the fiber sizes off the action table: against
    # an apply_p count on every preset, at n = 3, 4, 5 and 6
    pf = preset(name)
    for t in range(6):
        sample = security_lab.sample_fake(pf, 3 + t % 4, Random(derive_seed(t, "cond", name)))
        got = security_lab.exact_key_conditional(pf, sample)
        want = brute_force_conditional(pf, sample)
        assert got == want
        assert list(got) == list(want)  # same key order
        assert all(type(w) is int for w in got.values())


def reference_sample(group, rng):
    """sample_p as the groups wrote it before index draws: a shuffle for a
    symmetric group, factor by factor for a product, the base's for an
    opposite group, and randrange into the enumeration otherwise."""
    if isinstance(group, OppositeGroup):
        return reference_sample(group.base, rng)
    if isinstance(group, ProductGroup):
        return reference_sample(group.left, rng) + reference_sample(group.right, rng)
    if isinstance(group, SymmetricGroup):
        images = list(range(1, group.degree + 1))
        rng.shuffle(images)
        return bytes(images)
    return group.elements_p()[rng.randrange(group.order)]


def assert_draws_match(group, draws=300):
    """The table's index draw, sample_p and the reference: the same element
    and the same RNG state after every draw."""
    t = group.table
    a, b, c = Random(7), Random(7), Random(7)
    for _ in range(draws):
        index = t.draw(a)
        payload = group.sample_p(b)
        assert t.elements[index] == payload == reference_sample(group, c)
        assert index == t.index[payload]
        assert a.getstate() == b.getstate() == c.getstate()


@pytest.mark.parametrize("group", [
    SymmetricGroup(1), SymmetricGroup(2), SymmetricGroup(5), SymmetricGroup(6),
    GL2Group(3), SymmetricGroup(4).opposite(),
    ProductGroup(SymmetricGroup(3), generated_perm_group(4, [[2, 3, 1, 4]]).opposite()),
    generated_perm_group(3, [], tag="trivial3"), UnitsModGroup(21), UnitsModGroup(2),
    ModCyclicGroup(23, 2, 11), ModCyclicGroup(1019, 4, 509),
    # orders 16 and 8: a power of two is the one bound whose bit length
    # differs from that of the largest value drawn
    UnitsModGroup(17), generated_perm_group(4, [[2, 3, 4, 1], [4, 3, 2, 1]], tag="d4"),
    generated_mat2_group(3, [[1, 1, 0, 1], [0, 2, 1, 0]], tag="sl2_3"),
    ProductGroup(SymmetricGroup(3), SymmetricGroup(2)),
    ProductGroup(SymmetricGroup(3), SymmetricGroup(2)).opposite(),
    ProductGroup(UnitsModGroup(9), ModCyclicGroup(23, 2, 11)),
], ids=lambda g: g.tag)
def test_index_draw_matches_sample_p(group):
    assert_draws_match(group)


@pytest.mark.parametrize("m", [10, 23, 64])
def test_symmetric_draw_matches_a_shuffle_above_the_cap(m):
    # S_m too large to tabulate: sample_p's inline walk against rng.shuffle
    group, a, b = SymmetricGroup(m), Random(m), Random(m)
    for _ in range(300):
        assert group.sample_p(a) == reference_sample(group, b)
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_index_draws_match_sample_p(name):
    pf = preset(name)
    assert_draws_match(pf.acting)
    assert_draws_match(pf.target)


def secrets_then_pair_keys(pf, n, rng):
    """The reference draws: n secrets, then n pair keys, by ``sample_p``."""
    secrets = tuple(pf.acting.sample_p(rng) for _ in range(n))
    return secrets, tuple(pf.acting.sample_p(rng) for _ in range(n))


@pytest.mark.parametrize("name", [*PRESET_NAMES, "s10_conj", "bd_modp_100043"])
def test_default_pair_keys_are_uniform_pair_keys(name):
    """The pair keys of the samplers and of a session are the n acting
    ``sample_p`` draws after the n secrets, on both backends: the same
    values and the same RNG state after them."""
    pf = platform_named(name)
    for seed in range(20):
        got, want = Random(seed), Random(seed)
        sample = security_lab.sample_real(pf, 5, got)
        secrets, keys = secrets_then_pair_keys(pf, 5, want)
        assert (sample.internals["h"], sample.internals["c"]) == (secrets, keys)
        assert got.getstate() == want.getstate()
        got, want = Random(seed), Random(seed)
        sample = security_lab.sample_fake_prime(pf, 1, got)
        secrets, keys = secrets_then_pair_keys(pf, 8, want)
        assert (sample.internals["h"], sample.internals["c"]) == (secrets, keys)
        # fake_prime draws its uniform links after the pair keys
        for _ in security_lab._randomized_indices(1):
            pf.target.sample_p(want)
        assert got.getstate() == want.getstate()
        inner = run_session(SessionConfig(pf, 4, seed)).internals
        assert (inner.secrets, inner.pair_keys) == secrets_then_pair_keys(pf, 4, Random(seed))


def test_group_tables_match_compose_and_invert():
    # the matrix and modular groups' products are built in numpy, the
    # others' by the loop
    a4 = generated_perm_group(4, [[2, 3, 1, 4], [1, 3, 4, 2]])
    for group in (SymmetricGroup(4).opposite(), ProductGroup(SymmetricGroup(3), a4.opposite()),
                  GL2Group(3), GL2Group(5), generated_mat2_group(3, [[1, 1, 0, 1], [0, 2, 1, 0]]),
                  generated_mat2_group(251, [[1, 1, 0, 1], [250, 0, 0, 1]]),
                  UnitsModGroup(21), UnitsModGroup(509), ModCyclicGroup(23, 2, 11),
                  ModCyclicGroup(1019, 4, 509)):
        t = group.table
        for a, pa in enumerate(t.elements):
            assert t.elements[t.inv[a]] == group.invert_p(pa)
            for b, pb in enumerate(t.elements):
                assert t.elements[t.mul[a, b]] == group.compose_p(pa, pb)


def compose_keys(group, x, seq):
    """The reference for the key fold, one compose_p per step: the ladder
    [x, x.s0, x.s0.s1, ...] multiplied out from each start k, as
    L_k...L_m . L_0...L_{k-1}."""
    ladder = [x]
    for s in seq:
        ladder.append(group.compose_p(ladder[-1], s))
    return [compose_product(group, ladder[k:] + ladder[:k]) for k in range(len(ladder))]


@pytest.mark.parametrize("name, on_bytes", [
    *(pytest.param(name, on_bytes, id=f"{name}-{'bytes' if on_bytes else 'tables'}")
      for name in PRESET_NAMES for on_bytes in (False, True)),
    *(pytest.param(name, True, id=f"{name}-bytes") for name in UNTABULABLE),
])
def test_key_pass_folds_match_the_compose_fold(name, on_bytes, monkeypatch):
    pf = platform_named(name)
    if on_bytes:
        monkeypatch.setattr(actions, "_ops", byte_ops)
    ops = actions._ops(pf)
    assert isinstance(ops, actions._ByteOps if on_bytes else actions._IndexOps)
    G, rng = pf.target, Random(derive_seed(0, "folds", name))
    for length in range(41):
        x, *seq = (G.sample_p(rng) for _ in range(length + 1))
        keys, product = compose_keys(G, x, seq), compose_product(G, seq)
        (x,), seq = ops.from_g([x]), ops.from_g(seq)
        assert [ops.g_bytes(ops.key(x, seq, k)) for k in range(length + 1)] == keys
        assert ops.g_bytes(ops.prod(seq)) == product


def drive_parties(config):
    """One session through PartyState's public methods alone, drawing the
    secrets and pair keys as run_session does: (transcript, keys, x, y)."""
    pf, n = config.platform, config.n
    rng = Random(config.rng_seed)
    secrets = [pf.acting.sample_p(rng) for _ in range(n)]
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
    round4 = [p.round4_values() for p in parties]
    zs = [z for _, _, z in round4]
    for p in parties:
        p.receive_round4(zs)
    transcript = Transcript(pf.tag, n, tuple(vs), tuple(ws), tuple(zs))
    keys = tuple(pf.target.wrap(p.compute_key()) for p in parties)
    return transcript, keys, tuple(x for x, _, _ in round4), tuple(y for _, y, _ in round4)


def session_script(pf):
    """run_session and a hand-driven session at n = 3..12 over 200 seeds."""
    out = []
    for seed in range(200):
        config = SessionConfig(pf, 3 + seed % 10, derive_seed(seed, "session"))
        res = run_session(config)
        out.append((res.transcript, res.keys, res.records, res.internals))
        out.append(drive_parties(config))
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sessions_on_tables_match_bytes(name, monkeypatch):
    pf = preset(name)
    assert isinstance(actions._ops(pf), actions._IndexOps)
    on_tables = session_script(pf)
    with monkeypatch.context() as m:
        m.setattr(actions, "_ops", byte_ops)
        on_bytes = session_script(pf)
    assert len(on_tables) == len(on_bytes) == 400
    for i, (got, want) in enumerate(zip(on_tables, on_bytes)):
        assert got == want, (name, i)
    for res, hand in zip(on_tables[::2], on_tables[1::2]):
        assert hand == (res[0], res[1], res[3].x, res[3].y)


def test_table_session_rejects_foreign_elements():
    pf = preset("s4_conj")
    party = PartyState(pf, 1, 3)
    with pytest.raises(ForeignElementError):
        party.set_pair_keys(pf.acting.identity_p, bytes(4))
    with pytest.raises(ForeignElementError):
        party.receive_round2(pf.base_p, bytes([1, 1, 2, 3]))
    with pytest.raises(ForeignElementError):
        party.receive_round4([pf.base_p, pf.base_p, b"\x05\x01\x02\x03"])


def game_script(pf):
    """OracleEnv games at n = 3..7 over 40 seeds, with real and with fake
    keys, some with a second session: per game, the transcripts, every
    record's (pid, sid, key), the Test value, the hidden bit and the
    environment's RNG state at the end."""
    out = []
    for seed in range(40):
        for fake in (False, True):
            env = OracleEnv(pf, derive_seed(seed, "game"), fake_keys=fake)
            sessions = [[(f"U{i}", seed) for i in range(3 + seed % 5)]]
            if seed % 3 == 0:
                sessions.append([(f"V{i}", seed) for i in range(3)])
            transcripts = [env.execute(instances) for instances in sessions]
            records = [env.record(*instance) for instances in sessions for instance in instances]
            value = env.test(*sessions[-1][seed % 3])
            out.append((transcripts, [(r.pid, r.sid, r.sk) for r in records], value,
                        env.hidden_bit, env.rng.getstate()))
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_games_on_tables_match_bytes(name, monkeypatch):
    pf = preset(name)
    on_tables = game_script(pf)
    with monkeypatch.context() as m:
        m.setattr(actions, "_ops", byte_ops)
        on_bytes = game_script(pf)
    assert len(on_tables) == len(on_bytes) == 80
    for i, (got, want) in enumerate(zip(on_tables, on_bytes)):
        assert got == want, (name, i)
    for transcripts, records, _, _, _ in on_tables:
        assert {sid for _, sid, _ in records} == {t.sid for t in transcripts}
    # both values of the hidden bit, so Test returned keys and uniform draws
    assert {bit for *_, bit, _ in on_tables} == {0, 1}


def test_game_runs_the_session_of_run_session_on_bytes():
    """execute's transcript and keys are run_session's at the session seed
    the environment draws next, on a platform too large to tabulate; fake
    keys, and Test's uniform value, are the target's samples drawn after
    it."""
    pf = platform_named("s10_conj")
    for seed in range(16):
        fake = seed % 2 == 1
        env = OracleEnv(pf, seed, fake_keys=fake)
        ahead = Random()
        ahead.setstate(env.rng.getstate())
        instances = [(f"U{i}", 0) for i in range(3 + seed % 4)]
        transcript = env.execute(instances)
        res = run_session(SessionConfig(pf, len(instances), ahead.getrandbits(63)))
        assert transcript == res.transcript
        keys = [pf.target.sample(ahead) for _ in instances] if fake else list(res.keys)
        records = [env.record(*instance) for instance in instances]
        assert [r.sk for r in records] == keys
        assert {r.sid for r in records} == {res.transcript.sid}
        value = env.test(*instances[0])
        assert value == (keys[0] if env.hidden_bit else pf.target.sample(ahead))
        assert env.rng.getstate() == ahead.getstate()


@pytest.mark.parametrize("name", [*PRESET_NAMES, "s10_conj"])
def test_game_records_are_the_records_run_session_builds(name):
    """Each record() equals the SessionRecord run_session builds at the
    session seed the environment draws, with the game's pid and, for fake
    keys, the target's samples drawn after the session as its key; on the
    tables for every preset, on bytes for S10 conjugation. Reading a
    record twice gives equal records."""
    pf = platform_named(name) if name == "s10_conj" else preset(name)
    for seed in range(8):
        fake = seed % 2 == 1
        env = OracleEnv(pf, derive_seed(seed, "records"), fake_keys=fake)
        ahead = Random()
        ahead.setstate(env.rng.getstate())
        instances = [(f"U{i}", seed) for i in range(3 + seed % 4)]
        env.execute(instances)
        res = run_session(SessionConfig(pf, len(instances), ahead.getrandbits(63)))
        keys = [pf.target.sample(ahead) for _ in instances] if fake else res.keys
        pid = tuple(f"U{i}#{seed}" for i in range(len(instances)))
        for instance, want, key in zip(instances, res.records, keys):
            record = env.record(*instance)
            assert record == dataclasses.replace(want, pid=pid, sk=key)
            assert env.record(*instance) == record
        assert env.rng.getstate() == ahead.getstate()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_action_table_matches_apply_p(name):
    """Every sandwich preset's table is read off its maps and the target's
    products; bd23's is the apply_p loop itself."""
    pf = preset(name)
    t = pf.tables
    want = [[t.G.index[pf.apply_p(h, x)] for x in t.G.elements] for h in t.H.elements]
    assert np.array_equal(t.act, want)
