"""Round logic, key computation, and session execution.

Expected values tagged as derived come from in-test oracles: plain modular
exponentiation for the commutative platform and a standalone permutation
multiplier for the others.
"""

import json
from random import Random

import pytest
from hypothesis import given, strategies as st
from named_platforms import platform_named

from bdga import actions
from bdga.errors import ForeignElementError, ProtocolStateError, RegimeError
from bdga.platforms import PRESET_NAMES, preset
from bdga.protocol import (
    PartyState,
    SessionConfig,
    cycle_step,
    key_ladder,
    oracle_key,
    run_session,
    wrap,
)
from bdga.serial import transcript_from_obj, transcript_to_obj

BD = preset("bd23")
S4 = preset("s4_conj")


def bd_int(payload: bytes) -> int:
    return int.from_bytes(payload, "big")


# -- index plumbing ------------------------------------------------------------


def test_wrap():
    assert wrap(6, 5) == 1
    assert wrap(0, 5) == 5
    assert wrap(3, 5) == 3
    assert wrap(-1, 5) == 4


@given(st.integers(-50, 50), st.integers(1, 20))
def test_wrap_periodic_and_in_range(i, n):
    assert 1 <= wrap(i, n) <= n
    assert wrap(i + n, n) == wrap(i, n)
    if 1 <= i <= n:
        assert wrap(i, n) == i


@pytest.mark.parametrize("n,expected", [(4, (4, 1, 2, 3)), (3, (3, 1, 2))])
def test_cycle_step_values(n, expected):
    assert tuple(cycle_step(n, k) for k in range(1, n + 1)) == expected


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_step_has_order_n(n):
    for k in range(1, n + 1):
        j = k
        for _ in range(n):
            j = cycle_step(n, j)
        assert j == k


def test_cycle_step_range_errors():
    with pytest.raises(ProtocolStateError):
        cycle_step(4, 0)
    with pytest.raises(RegimeError):
        cycle_step(2, 1)


# -- round messages -----------------------------------------------------------------


def make_party(platform, index, n):
    return PartyState(platform, index, n)


def test_round2_identity_secret_sends_base():
    p = make_party(S4, 1, 3)
    p.set_secret(S4.acting.identity_p)
    assert p.round2_message() == S4.base_p


def test_round2_bd_is_modexp():
    p = make_party(BD, 1, 3)
    p.set_secret(BD.acting.element(3).payload)
    assert bd_int(p.round2_message()) == pow(2, 3, 23)


def test_round2_s4_matches_brute_force():
    # independent: one-line conjugation of the base 4-cycle by (1 2)
    def mul(a, b):
        return tuple(a[b[i] - 1] for i in range(len(a)))

    def inv(a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v - 1] = i + 1
        return tuple(out)

    h = (2, 1, 3, 4)
    g = (2, 3, 4, 1)
    p = make_party(S4, 1, 3)
    p.set_secret(bytes(h))
    assert p.round2_message() == bytes(mul(mul(inv(h), g), h))
    assert p.round2_message() == bytes([3, 1, 4, 2])  # the 4-cycle 1->3->4->2


def test_round3_identity_pair_key_reduces_to_x():
    rng = Random(0)
    h = S4.acting.sample_p(rng)
    v_prev = S4.target.sample_p(rng)
    p = make_party(S4, 2, 3)
    p.set_pair_keys(S4.acting.identity_p, S4.acting.sample_p(rng))
    p.set_secret(h)
    p.receive_round2(v_prev, S4.target.sample_p(rng))
    assert p.round3_message() == S4.apply_p(h, v_prev)


def test_round3_collapses_to_composed_secret():
    # w_i = apply(c . h_i . h_prev, g) when v_prev = apply(h_prev, g)
    rng = Random(1)
    H = S4.acting
    for _ in range(50):
        c, h, h_prev = H.sample_p(rng), H.sample_p(rng), H.sample_p(rng)
        p = make_party(S4, 2, 3)
        p.set_pair_keys(c, H.sample_p(rng))
        p.set_secret(h)
        p.receive_round2(S4.apply_p(h_prev, S4.base_p), S4.target.sample_p(rng))
        expected = S4.apply_p(H.compose_p(c, H.compose_p(h, h_prev)), S4.base_p)
        assert p.round3_message() == expected


def test_round3_bd_frozen_example():
    p = make_party(BD, 2, 3)
    p.set_pair_keys(BD.acting.element(4).payload, BD.acting.element(2).payload)
    p.set_secret(BD.acting.element(3).payload)
    p.receive_round2(BD.target.element(pow(2, 5, 23)).payload, BD.target.element(2).payload)
    assert bd_int(p.round3_message()) == pow(2, (5 * 3 * 4) % 11, 23) == 9


def test_round4_bd_frozen_example():
    # three parties with secrets 3, 5, 7: party 1 sees v_3, w_2
    h = [3, 5, 7]
    p = make_party(BD, 1, 3)
    p.set_pair_keys(BD.acting.element(9).payload, BD.acting.element(4).payload)
    p.set_secret(BD.acting.element(3).payload)
    v3 = pow(2, 7, 23)
    p.receive_round2(BD.target.element(v3).payload, BD.target.element(pow(2, 5, 23)).payload)
    w2 = pow(2, (4 * 5 * 3) % 11, 23)  # c_1 . h_2 applied to v_1
    p.receive_round3(BD.target.element(w2).payload)
    x, y, z = p.round4_values()
    assert bd_int(x) == pow(2, (3 * 7) % 11, 23) == pow(2, 10, 23)
    assert bd_int(y) == pow(2, (5 * 3) % 11, 23) == pow(2, 4, 23)
    assert bd_int(z) == pow(2, (4 - 10) % 11, 23) == 9


def test_round4_identities_hold_in_sessions():
    for name in ("bd23", "s4_conj", "gl25_twist", "s4_dcoset"):
        pf = preset(name)
        H = pf.acting
        res = run_session(SessionConfig(pf, 6, 99))
        hs = res.internals.secrets
        for i in range(6):
            x_expected = pf.apply_p(H.compose_p(hs[i], hs[i - 1]), pf.base_p)
            y_expected = pf.apply_p(H.compose_p(hs[(i + 1) % 6], hs[i]), pf.base_p)
            assert res.internals.x[i] == x_expected
            assert res.internals.y[i] == y_expected


def test_all_identity_inputs_give_trivial_broadcast():
    def identity_keys(platform, n, rng):
        return [platform.acting.identity_p] * n

    pf = S4
    parties = [make_party(pf, i + 1, 3) for i in range(3)]
    for p in parties:
        p.set_pair_keys(pf.acting.identity_p, pf.acting.identity_p)
        p.set_secret(pf.acting.identity_p)
    vs = [p.round2_message() for p in parties]
    assert vs == [pf.base_p] * 3
    for i, p in enumerate(parties):
        p.receive_round2(vs[i - 1], vs[(i + 1) % 3])
    ws = [p.round3_message() for p in parties]
    for i, p in enumerate(parties):
        p.receive_round3(ws[(i + 1) % 3])
    for p in parties:
        x, y, z = p.round4_values()
        assert x == y == pf.base_p
        assert z == pf.target.identity_p


# -- keys ----------------------------------------------------------------------------


def test_all_identity_key_is_base_cubed():
    pf = S4
    e = pf.acting.identity_p
    key = oracle_key(pf, [e, e, e])
    g = pf.base_p
    expected = pf.target.compose_p(pf.target.compose_p(g, g), g)
    assert key.payload == expected


def test_bd_key_frozen_example():
    key = oracle_key(BD, [BD.acting.element(v).payload for v in (3, 5, 7)])
    expo = (3 * 7 + 5 * 3 + 7 * 5) % 11
    assert bd_int(key.payload) == pow(2, expo, 23) == 9


def test_bd_key_matches_symbolic_formula():
    rng = Random(2)
    for _ in range(100):
        n = rng.randrange(3, 9)
        hs = [rng.randrange(1, 11) for _ in range(n)]
        key = oracle_key(BD, [BD.acting.element(v).payload for v in hs])
        expo = sum(hs[k] * hs[k - 1] for k in range(n)) % 11
        assert bd_int(key.payload) == pow(2, expo, 23)


def test_session_keys_agree_and_match_oracle():
    rng = Random(3)
    for name in ("bd23", "s3_conj", "s4_conj", "gl25_conj", "gl25_twist", "s4_dcoset"):
        pf = preset(name)
        for _ in range(5):
            n = rng.randrange(3, 9)
            res = run_session(SessionConfig(pf, n, rng.getrandbits(32)))
            assert len({k.payload for k in res.keys}) == 1
            assert res.keys[0] == oracle_key(pf, res.internals.secrets)
            for rec in res.records:
                assert rec.acc and rec.term and rec.used
                assert rec.sk is not None and rec.sid == res.transcript.sid
                assert rec.pid == tuple(f"U{i+1}" for i in range(n))


@pytest.mark.parametrize(
    "name", ["s4_conj", "gl25_twist", "sl23_dcoset", "bd23", "bd_modp_2039", "s10_conj"])
def test_every_party_key_matches_oracle_up_to_forty_parties(name):
    pf = platform_named(name)
    for n in range(3, 41):
        res = run_session(SessionConfig(pf, n, 1000 + n))
        expected = oracle_key(pf, res.internals.secrets)
        assert all(key == expected for key in res.keys)


def drive_party_states(pf, n, secrets, pair_keys):
    """n PartyStates driven by hand through the payload API on the given
    secrets and pair keys: (v, w, Z, keys, X, Y) as payloads."""
    parties = [PartyState(pf, i + 1, n) for i in range(n)]
    for i, p in enumerate(parties):
        p.set_pair_keys(pair_keys[i - 1], pair_keys[i])
        p.set_secret(secrets[i])
    vs = tuple(p.round2_message() for p in parties)
    for i, p in enumerate(parties):
        p.receive_round2(vs[i - 1], vs[(i + 1) % n])
    ws = tuple(p.round3_message() for p in parties)
    for i, p in enumerate(parties):
        p.receive_round3(ws[(i + 1) % n])
    xs, ys, zs = zip(*(p.round4_values() for p in parties))
    for p in parties:
        p.receive_round4(zs)
    keys = tuple(p.compute_key() for p in parties)
    return vs, ws, zs, keys, xs, ys


@pytest.mark.parametrize("name", [*PRESET_NAMES, "bd_modp_2039", "s10_conj"])
def test_party_states_match_run_session(name):
    # run_session computes whole rounds without PartyState; parties driven
    # one by one on its secrets and pair keys must send and derive the same
    pf = platform_named(name)
    for n in range(3, 9):
        res = run_session(SessionConfig(pf, n, 500 + n))
        inner, t = res.internals, res.transcript
        vs, ws, zs, keys, xs, ys = drive_party_states(pf, n, inner.secrets, inner.pair_keys)
        assert (vs, ws, zs) == (t.v, t.w, t.z)
        assert keys == tuple(key.payload for key in res.keys)
        assert (xs, ys) == (inner.x, inner.y)


def test_ladder_shift_relation():
    # party i+1's ladder is party i's shifted by one position (cyclically),
    # on the tables and, at a long ladder, through the permutation kernel
    for pf, n in ((S4, 7), (platform_named("s10_conj"), 33)):
        res = run_session(SessionConfig(pf, n, 12))
        zs = res.transcript.z
        ladders = [key_ladder(pf, res.internals.x[i], zs, i + 1) for i in range(n)]
        for i in range(n):
            nxt = ladders[(i + 1) % n]
            cur = ladders[i]
            assert len(cur) == n
            for k in range(1, n):
                assert nxt[k - 1] == cur[k]


def test_key_ladder_refuses_an_index_outside_the_cycle():
    res = run_session(SessionConfig(S4, 5, 12))
    x, zs = res.internals.x[0], res.transcript.z
    assert len(key_ladder(S4, x, zs, 5)) == 5
    for index in (0, 6, -1):
        with pytest.raises(ProtocolStateError):
            key_ladder(S4, x, zs, index)


def test_key_ladder_refuses_fewer_than_three_broadcasts():
    res = run_session(SessionConfig(S4, 5, 12))
    x, zs = res.internals.x[0], res.transcript.z
    for count in (0, 1, 2):
        with pytest.raises(ProtocolStateError):
            key_ladder(S4, x, zs[:count], 1)


def test_telescoping():
    rng = Random(4)
    for name in ("bd23", "s4_conj", "sl23_dcoset"):
        pf = preset(name)
        res = run_session(SessionConfig(pf, 3 + rng.randrange(6), rng.getrandbits(30)))
        acc = pf.target.identity_p
        for z in res.transcript.z:
            acc = pf.target.compose_p(acc, z)
        assert acc == pf.target.identity_p


# -- session mechanics ------------------------------------------------------------------


def test_bd_transcript_has_the_classical_shape():
    # v_i = g^{h_i} and Z_i = g^{h_{i+1} h_i - h_i h_{i-1} mod q}
    res = run_session(SessionConfig(BD, 5, 31))
    hs = [bd_int(h) for h in res.internals.secrets]
    for i in range(5):
        assert bd_int(res.transcript.v[i]) == pow(2, hs[i], 23)
        expo = (hs[(i + 1) % 5] * hs[i] - hs[i] * hs[i - 1]) % 11
        assert bd_int(res.transcript.z[i]) == pow(2, expo, 23)


def test_sessions_are_deterministic():
    a = run_session(SessionConfig(S4, 5, 777))
    b = run_session(SessionConfig(S4, 5, 777))
    assert a.transcript == b.transcript
    assert a.keys == b.keys
    c = run_session(SessionConfig(S4, 5, 778))
    assert c.transcript != a.transcript


def test_two_party_session_rejected():
    with pytest.raises(RegimeError):
        run_session(SessionConfig(S4, 2, 1))
    with pytest.raises(RegimeError):
        PartyState(S4, 1, 2)


def test_round_order_is_enforced():
    p = make_party(S4, 1, 3)
    with pytest.raises(ProtocolStateError):
        p.round2_message()  # no secret yet
    p.set_secret(S4.acting.identity_p)
    with pytest.raises(ProtocolStateError):
        p.set_secret(S4.acting.identity_p)  # write-once
    with pytest.raises(ProtocolStateError):
        p.round3_message()  # missing pair keys and round-2 input
    with pytest.raises(ProtocolStateError):
        p.round4_values()
    with pytest.raises(ProtocolStateError):
        p.compute_key()  # nothing broadcast yet
    p.receive_round4([S4.target.identity_p] * 3)
    with pytest.raises(ProtocolStateError):
        p.compute_key()  # x still missing


def test_byte_backend_parties_reject_foreign_payloads():
    # too large to tabulate, so parties hold payloads; membership is read off
    # the groups' contains_p, and the modular groups build no index map
    s10, bd = platform_named("s10_conj"), platform_named("bd_modp_100043")
    non_residue = (200087 - 1).to_bytes(3, "big")  # -1, as 200087 = 3 mod 4
    for pf, h_bad, g_bad in (
        (s10, [bytes(10), b"\n" * 10, bytes(range(1, 10))], [bytes([1] * 10)]),
        (bd, [bytes(3), (100043).to_bytes(3, "big"), b"\x01"], [bytes(3), non_residue]),
    ):
        assert isinstance(actions._ops(pf), actions._ByteOps)
        e, g = pf.acting.identity_p, pf.base_p
        for bad in h_bad:
            with pytest.raises(ForeignElementError):
                PartyState(pf, 1, 3).set_secret(bad)
            with pytest.raises(ForeignElementError):
                PartyState(pf, 1, 3).set_pair_keys(e, bad)
        for bad in g_bad:
            with pytest.raises(ForeignElementError):
                PartyState(pf, 1, 3).receive_round2(g, bad)
            with pytest.raises(ForeignElementError):
                PartyState(pf, 1, 3).receive_round3(bad)
            with pytest.raises(ForeignElementError):
                PartyState(pf, 1, 3).receive_round4([g, bad, g])
        party = PartyState(pf, 1, 3)
        party.set_secret(e)
        party.set_pair_keys(e, e)
        party.receive_round2(g, g)
        assert party.round2_message() == g
    assert bd.acting._index is None and bd.target._index is None


def test_pair_key_source_is_pluggable():
    # a session's pair keys are always uniform draws, but parties take any
    # pair keys: here every neighboring pair shares the identity
    n, e = 4, S4.acting.identity_p
    secrets = run_session(SessionConfig(S4, n, 5)).internals.secrets
    vs, ws, zs, keys, xs, ys = drive_party_states(S4, n, secrets, (e,) * n)
    # with identity right pair keys, Y_i = apply(c_i^-1, w_{i+1}) is w_{i+1}
    assert ys == ws[1:] + ws[:1]
    assert keys == (oracle_key(S4, secrets).payload,) * n
    # with identity left pair keys, round-3 messages coincide with the X values
    assert ws == xs


# -- transcript serialization -------------------------------------------------------------


def test_transcript_json_roundtrip():
    res = run_session(SessionConfig(BD, 4, 21))
    obj = transcript_to_obj(res.transcript)
    again = transcript_from_obj(json.loads(json.dumps(obj)))
    assert again == res.transcript
    assert obj["sid"] == res.transcript.sid
    assert len(obj["v"]) == len(obj["w"]) == len(obj["Z"]) == 4


@pytest.mark.parametrize(
    "name,n,seed,sid,key_hex",
    [
        ("bd23", 3, 7, "99e8db9375904990fb03774c838b20bdab482290c7c3f92290fccd81e9cfd882", "10"),
        ("s4_conj", 8, 11,
         "2bbcfae353a83788352bcb26b5056289631e7675f60d06865e2266aec63b0bad", "04010302"),
        ("gl25_twist", 5, 12,
         "bdc1fcdd149c8ec28c968a1fb67e802a5ae3d4cfed14cf66448bca5f2427ad51", "02020402"),
        ("sl23_dcoset", 4, 13,
         "02cb4e46dda887f9b5962fbe9cb43ac36ea96b7c08ebe3544836c45202ba4dc2", "00010200"),
        ("bd_modp_2039", 6, 14,
         "887a909c37b405be1d886a37b859410bec0deb8d9bacfc0a042d79d666c9dd24", "0686"),
    ],
    ids=["bd23", "s4_conj", "gl25_twist", "sl23_dcoset", "bd_modp_2039"],
)
def test_transcript_sid_regression(name, n, seed, sid, key_hex):
    # golden values guard the canonical byte layout, the RNG draw order and
    # the round formulas across refactors
    res = run_session(SessionConfig(platform_named(name), n, seed))
    assert res.transcript.sid == sid
    assert {key.payload.hex() for key in res.keys} == {key_hex}


def test_transcript_has_3n_elements():
    res = run_session(SessionConfig(S4, 5, 1))
    t = res.transcript
    assert len(t.v) + len(t.w) + len(t.z) == 15
