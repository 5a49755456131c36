"""Oracle environment contracts and advantage estimation."""

from types import SimpleNamespace

import pytest
import scipy.stats

from bdga import experiments
from bdga.errors import (
    EnumerationCapError,
    InstanceNotAcceptedError,
    InstanceReusedError,
    MalformedInstanceError,
    OracleContractError,
    RegimeError,
    TestUnavailableError,
    TooFewInstancesError,
)
from bdga.experiments import (
    make_cheating_distinguisher,
    make_env_factory,
    make_exhaustive_search_distinguisher,
    make_null_distinguisher,
)
from bdga.harness import OracleEnv, derive_seed, estimate_advantage, wilson_half_width
from bdga.platforms import PRESET_NAMES, make_platform, preset
from bdga.protocol import Transcript

BD = preset("bd23")
S4 = preset("s4_conj")

TRIO = [("U1", 0), ("U2", 0), ("U3", 0)]


def test_execute_returns_independent_transcripts():
    env = OracleEnv(S4, 42)
    t1 = env.execute(TRIO)
    t2 = env.execute([("U1", 1), ("U2", 1), ("U3", 1)])
    assert t1.sid != t2.sid
    assert env.q_ex == 2
    assert len(t1.v) + len(t1.w) + len(t1.z) == 9


def test_execute_refuses_reused_instances():
    env = OracleEnv(S4, 42)
    env.execute(TRIO)
    with pytest.raises(InstanceReusedError):
        env.execute([("U1", 0), ("U4", 0), ("U5", 0)])


def test_execute_refuses_an_instance_named_twice():
    env = OracleEnv(S4, 42)
    state = env.rng.getstate()
    with pytest.raises(InstanceReusedError):
        env.execute([("U1", 0), ("U2", 0), ("U1", 0)])
    # refused before the session ran: no query counted, no RNG draw, no record
    assert env.q_ex == 0 and env.rng.getstate() == state
    with pytest.raises(KeyError):
        env.record("U1", 0)
    env.execute(TRIO)
    assert env.q_ex == 1


def test_execute_refuses_fewer_than_three_instances():
    env = OracleEnv(S4, 42)
    state = env.rng.getstate()
    for instances in ([], [("U1", 0)], [("U1", 0), ("U2", 0)]):
        with pytest.raises(TooFewInstancesError):
            env.execute(instances)
    assert env.q_ex == 0 and env.rng.getstate() == state
    # still the regime error that run_session raises for n < 3
    assert issubclass(TooFewInstancesError, RegimeError)


@pytest.mark.parametrize("bad", [("A",), ("A", 1, 2), 5, (["A"], 1)],
                         ids=["single", "triple", "int", "unhashable"])
def test_execute_refuses_a_malformed_instance(bad):
    env = OracleEnv(S4, 42)
    state = env.rng.getstate()
    with pytest.raises(MalformedInstanceError):
        env.execute([("U1", 0), bad, ("U3", 0)])
    assert env.q_ex == 0 and env.rng.getstate() == state
    assert issubclass(MalformedInstanceError, OracleContractError)

    def malformed(env):
        env.execute([("U1", 0), ("U2", 0), bad])
        env.test("U1", 0)
        return env.hidden_bit

    # a failed trial, not an aborted estimate
    report = estimate_advantage(malformed, make_env_factory(BD, 14), 20)
    assert report.successes == 0 and report.trials == 20 and report.q_ex == 0


@pytest.mark.parametrize("make", [lambda: None, lambda: iter(TRIO)], ids=["none", "iterator"])
def test_execute_refuses_instances_that_are_not_a_sequence(make):
    env = OracleEnv(BD, 42)
    state = env.rng.getstate()
    with pytest.raises(MalformedInstanceError):
        env.execute(make())
    assert env.q_ex == 0 and env.rng.getstate() == state

    def unsized(env):
        env.execute(make())
        env.test("U1", 0)
        return env.hidden_bit

    # a failed trial, not an aborted estimate
    report = estimate_advantage(unsized, make_env_factory(BD, 15), 20)
    assert report.successes == 0 and report.trials == 20 and report.q_ex == 0


def test_too_few_instances_count_as_a_failed_trial():
    def pair_only(env):
        env.execute([("U1", 0), ("U2", 0)])
        env.test("U1", 0)
        return env.hidden_bit

    report = estimate_advantage(pair_only, make_env_factory(BD, 13), 50)
    assert report.successes == 0 and report.trials == 50 and report.q_ex == 0
    # never guessing right reads as advantage 1, so the exhaustive search
    # refuses n < 3 before any game runs
    assert report.advantage == 1.0
    with pytest.raises(RegimeError):
        make_exhaustive_search_distinguisher(BD, n=2)


def test_instances_share_sid_pid_and_key():
    env = OracleEnv(S4, 1)
    transcript = env.execute(TRIO)
    recs = [env.record(u, i) for u, i in TRIO]
    assert len({r.sid for r in recs}) == 1 and recs[0].sid == transcript.sid
    assert len({r.sk.payload for r in recs}) == 1
    assert {r.pid for r in recs} == {("U1#0", "U2#0", "U3#0")}
    assert all(r.acc and r.term and r.used for r in recs)


def test_test_oracle_honest_bit_returns_the_key():
    for seed in range(20):
        env = OracleEnv(BD, seed)
        if env.hidden_bit != 1:
            continue
        env.execute(TRIO)
        assert env.test("U1", 0) == env.record("U1", 0).sk


def test_test_oracle_random_bit_is_uniform():
    counts = {p: 0 for p in BD.target.elements_p()}
    drawn = 0
    seed = 0
    while drawn < 4000:
        env = OracleEnv(BD, seed)
        seed += 1
        if env.hidden_bit != 0:
            continue
        env.execute(TRIO)
        counts[env.test("U1", 0).payload] += 1
        drawn += 1
    _, pvalue = scipy.stats.chisquare(list(counts.values()))
    assert pvalue > 1e-4


def test_test_oracle_contracts():
    env = OracleEnv(S4, 3)
    with pytest.raises(InstanceNotAcceptedError):
        env.test("U1", 0)  # nothing executed yet
    env.execute(TRIO)
    with pytest.raises(InstanceNotAcceptedError):
        env.test("U9", 0)
    env.test("U1", 0)
    with pytest.raises(TestUnavailableError):
        env.test("U1", 0)
    with pytest.raises(TestUnavailableError):
        env.test("U2", 0)


@pytest.mark.parametrize("user, index", [(["A"], 0), ("U1", [0]), ({"U1": 0}, 0)],
                         ids=["list_user", "list_index", "dict_user"])
def test_test_oracle_refuses_an_unhashable_instance(user, index):
    env = OracleEnv(S4, 3)
    env.execute(TRIO)
    state = env.rng.getstate()
    with pytest.raises(MalformedInstanceError):
        env.test(user, index)
    assert not env.test_used and env.rng.getstate() == state
    # the single Test query is still available
    assert env.test("U1", 0).group == S4.target.tag
    assert env.test_used

    def malformed(env):
        env.execute(TRIO)
        env.test(user, index)
        return env.hidden_bit

    # a failed trial, not an aborted estimate
    report = estimate_advantage(malformed, make_env_factory(BD, 16), 20)
    assert report.successes == 0 and report.trials == 20 and report.q_ex == 20


@pytest.mark.parametrize("user, index", [(["A"], 0), ("U1", [0]), ({"U1": 0}, 0)],
                         ids=["list_user", "list_index", "dict_user"])
def test_record_refuses_an_unhashable_instance(user, index):
    env = OracleEnv(S4, 3)
    env.execute(TRIO)
    state = env.rng.getstate()
    with pytest.raises(MalformedInstanceError):
        env.record(user, index)
    assert not env.test_used and env.rng.getstate() == state
    # an unknown instance is still a KeyError, and a known one still reads
    with pytest.raises(KeyError):
        env.record("U9", 0)
    assert env.record("U1", 0).pid == ("U1#0", "U2#0", "U3#0")


@pytest.mark.parametrize("name", ["bd23", "c23_dcoset"])
def test_null_game_computes_no_sid_and_wraps_at_most_one_key(name, monkeypatch):
    """The null distinguisher reads the transcript and the Test value only:
    its game computes no sid, and wraps one key, the one Test returns."""
    pf = preset(name)
    sids, wraps = [], []
    sid, wrap = Transcript.sid, pf.target.wrap
    monkeypatch.setattr(Transcript, "sid", property(lambda t: sids.append(t) or sid.fget(t)))
    monkeypatch.setattr(pf.target, "wrap", lambda payload: wraps.append(payload) or wrap(payload))
    distinguisher = make_null_distinguisher(pf, seed=4)
    factory = make_env_factory(pf, 17, fake_keys=True)
    for trial in range(200):
        env = factory(trial)
        wraps.clear()
        distinguisher(env)
        assert env.test_used and len(wraps) <= 1
    assert sids == []
    # a record read is where the sid is computed and its key wrapped
    record = env.record("U1", 0)
    assert len(sids) == 1 and wraps[-1] == record.sk.payload


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, 0, -1, "3", None])
def test_estimate_advantage_refuses_a_trial_count_that_is_not_a_positive_int(trials):
    envs = []
    with pytest.raises(ValueError, match="trials must be an int >= 1"):
        estimate_advantage(make_null_distinguisher(BD, seed=1), envs.append, trials)
    assert envs == []  # no game ran


def test_wilson_half_width_shrinks():
    assert wilson_half_width(50, 100) > wilson_half_width(500, 1000)
    assert 0.0 < wilson_half_width(500, 1000) < 0.05


def test_null_distinguisher_has_no_advantage():
    report = estimate_advantage(
        make_null_distinguisher(BD, seed=5), make_env_factory(BD, 6), 2000
    )
    assert report.advantage <= 3.0 / 2000**0.5
    assert report.trials == 2000
    assert report.q_ex == 2000


def test_cheating_distinguisher_has_full_advantage():
    report = estimate_advantage(make_cheating_distinguisher(), make_env_factory(BD, 7), 400)
    assert report.advantage == 1.0


def test_exhaustive_search_breaks_toy_parameters():
    report = estimate_advantage(
        make_exhaustive_search_distinguisher(BD), make_env_factory(BD, 8), 400
    )
    # expected advantage 10/11: perfect when the bit is 1, and a 1/11 false
    # positive rate when the substituted key happens to collide
    assert report.advantage >= 0.85


def test_exhaustive_search_refuses_an_untabulable_platform():
    # S10 conjugation is above the enumeration cap: the search reads the
    # action table when it is made, so it raises before any game runs
    s10 = make_platform("conjugation", family="perm", degree=10, group="full",
                        subgroup="group", base=[2, 3, 4, 5, 6, 7, 8, 9, 10, 1])
    envs = []
    with pytest.raises(EnumerationCapError):
        estimate_advantage(make_exhaustive_search_distinguisher(s10), envs.append, 5)
    assert envs == []


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_exhaustive_search_candidates_match_an_apply_scan(name, monkeypatch):
    # the candidates behind each public v: every acting element moving the
    # base point to v, in the acting group's order, as one apply_p scan finds
    pf = preset(name)
    scan = {}
    for h in pf.acting.elements_p():
        scan.setdefault(pf.apply_p(h, pf.base_p), []).append(h)
    tried = []
    monkeypatch.setattr(experiments, "oracle_key", lambda _, hs: tried.append(hs) or pf.base)
    distinguisher = make_exhaustive_search_distinguisher(pf)
    g = pf.base_p
    for v in pf.target.elements_p():
        env = SimpleNamespace(execute=lambda _, v=v: SimpleNamespace(v=(v, g, g)),
                              test=lambda *_: pf.base)
        tried.clear()
        guess = distinguisher(env)
        if v not in scan:  # outside the orbit: nothing to try
            assert tried == [] and guess == 0
            continue
        for k, want in enumerate((scan[v], scan[g], scan[g])):
            assert list(dict.fromkeys(hs[k] for hs in tried)) == want
        assert guess == 1


def test_fake_keys_neutralize_the_search_attack():
    report = estimate_advantage(
        make_exhaustive_search_distinguisher(BD),
        make_env_factory(BD, 9, fake_keys=True),
        1500,
    )
    assert report.advantage <= 3.0 / 1500**0.5


def test_contract_violation_counts_as_failure():
    def rude(env):
        env.execute(TRIO)
        env.execute(TRIO)  # reuse: aborts the trial
        return 1

    report = estimate_advantage(rude, make_env_factory(BD, 10), 50)
    assert report.successes == 0
    assert report.advantage == 1.0  # |2*0 - 1|: always-wrong is detectable


def test_never_calling_test_cannot_succeed():
    report = estimate_advantage(lambda env: 1, make_env_factory(BD, 11), 50)
    assert report.successes == 0


def test_report_json_fields():
    report = estimate_advantage(
        make_null_distinguisher(BD, seed=1), make_env_factory(BD, 12), 100
    )
    obj = report.to_obj()
    assert set(obj) == {"trials", "successes", "advantage", "ci95", "q_ex"}


def test_derive_seed_is_stable_and_separated():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)
