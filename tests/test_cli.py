"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bdga.cli import main
from bdga.platforms import preset
from bdga.serial import transcript_from_obj


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return json.loads(Path(path).read_text())


@pytest.fixture
def session_files(tmp_path):
    out = tmp_path / "session"
    code = run_cli("run", "--platform", "bd23", "--n", "3", "--seed", "7", "--out", str(out))
    assert code == 0
    return f"{out}.transcript.json", f"{out}.keys.json"


def test_run_writes_schema_compliant_files(session_files):
    tpath, kpath = session_files
    tobj = read(tpath)
    assert set(tobj) == {"platform", "n", "v", "w", "Z", "sid", "meta"}
    assert tobj["n"] == 3
    assert len(tobj["v"]) == len(tobj["w"]) == len(tobj["Z"]) == 3
    assert tobj["meta"]["seed"] == 7
    assert tobj["meta"]["platform_descriptor"]["kind"] == "bd_modp"
    kobj = read(kpath)
    assert set(kobj) == {"sid", "sk", "meta"}
    assert kobj["sid"] == tobj["sid"]


def test_run_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("run", "--platform", "s4_conj", "--n", "4", "--seed", "5", "--out", str(a)) == 0
    assert run_cli("run", "--platform", "s4_conj", "--n", "4", "--seed", "5", "--out", str(b)) == 0
    assert Path(f"{a}.transcript.json").read_bytes() == Path(f"{b}.transcript.json").read_bytes()
    assert Path(f"{a}.keys.json").read_bytes() == Path(f"{b}.keys.json").read_bytes()
    out = capsys.readouterr().out
    assert "key fingerprint" in out


def test_run_rejects_small_party_count(tmp_path):
    assert run_cli("run", "--platform", "bd23", "--n", "2", "--seed", "1",
                   "--out", str(tmp_path / "x")) == 2


def write_descriptor(tmp_path, kind, **params):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"kind": kind, "params": params}))
    return str(path)


def test_run_bd_modp_descriptor_file(tmp_path, capsys):
    out = tmp_path / "bd"
    desc = write_descriptor(tmp_path, "bd_modp", p=23, g=2, q=11)
    assert run_cli("run", "--platform", desc, "--n", "3", "--seed", "7", "--out", str(out)) == 0
    # the sid `--p 23 --g 2 --q 11` wrote before descriptor files replaced the flags
    assert read(f"{out}.transcript.json")["sid"] == (
        "99e8db9375904990fb03774c838b20bdab482290c7c3f92290fccd81e9cfd882")
    desc = write_descriptor(tmp_path, "bd_modp")
    assert run_cli("run", "--platform", desc, "--n", "3", "--seed", "7",
                   "--out", str(out)) == 2  # no p, g or q
    assert "lacks parameter" in capsys.readouterr().err


def test_run_custom_conjugation_platform(tmp_path):
    out = tmp_path / "c"
    desc = write_descriptor(tmp_path, "conjugation", family="perm", degree=4, group="full",
                            base=[2, 3, 4, 1])
    assert run_cli("run", "--platform", desc, "--n", "3", "--seed", "2", "--out", str(out)) == 0
    tobj = read(f"{out}.transcript.json")
    assert tobj["meta"]["platform_descriptor"]["params"]["degree"] == 4
    # the sid `--degree 4 --group full --base 2,3,4,1` wrote before the flags went
    assert tobj["sid"] == "6ba2cea81bc1bdb37b582f0272de944a455791f56ddf64cd81cb000762797039"


def test_run_descriptor_file_matches_its_preset(tmp_path):
    # a mat2 twisted_conjugacy, which no per-kind flag could build
    desc = tmp_path / "gl25_twist.json"
    desc.write_text(json.dumps(preset("gl25_twist").descriptor))
    by_name, by_file = tmp_path / "name", tmp_path / "file"
    assert run_cli("run", "--platform", "gl25_twist", "--n", "3", "--seed", "1",
                   "--out", str(by_name)) == 0
    assert run_cli("run", "--platform", str(desc), "--n", "3", "--seed", "1",
                   "--out", str(by_file)) == 0
    for kind in ("transcript", "keys"):
        assert (Path(f"{by_name}.{kind}.json").read_bytes()
                == Path(f"{by_file}.{kind}.json").read_bytes())
    assert run_cli("verify", f"{by_file}.transcript.json", f"{by_file}.keys.json") == 0


PERM_300 = [*range(2, 301), 1]


@pytest.mark.parametrize("kind, params", [
    ("conjugation", {"degree": 4, "base": ["a"]}),
    ("conjugation", {"degree": 4, "base": []}),
    ("conjugation", {"degree": 4, "group": [["x"]], "base": [2, 3, 4, 1]}),
    ("double_coset", {"degree": 4, "base": [2, 1, 3, 4], "right": [["q"]]}),
    ("conjugation", {"degree": 300, "group": [PERM_300], "base": PERM_300}),
], ids=["letter_base", "empty_base", "letter_group", "letter_right", "300_points"])
def test_run_bad_permutation_input_exits_2(tmp_path, capsys, kind, params):
    desc = write_descriptor(tmp_path, kind, family="perm", **params)
    assert run_cli("run", "--platform", desc, "--n", "3", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kind, role", [("conjugation", "subgroup"), ("double_coset", "left")])
def test_run_full_subgroup_outside_a_large_degree_target_exits_2(tmp_path, capsys, kind, role):
    # S10 is too large to enumerate, and is no subgroup of an order-10 group
    cycle = [*range(2, 11), 1]
    desc = write_descriptor(tmp_path, kind, family="perm", degree=10, group=[cycle], base=cycle,
                            **{role: "full"})
    assert run_cli("run", "--platform", desc, "--n", "3", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not contained in" in err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("tag", [5, True, ["s4"]])
def test_run_descriptor_tag_not_a_string_exits_2(tmp_path, capsys, tag):
    desc = write_descriptor(tmp_path, "conjugation", family="perm", degree=4, base=[2, 3, 4, 1],
                            tag=tag)
    assert run_cli("run", "--platform", desc, "--n", "3", "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith("error: platform tag must be a string")


@pytest.mark.parametrize("kind, params", [
    ("conjugation", {"subgroup": "full", "subgroup_tag": "mine"}),
    ("conjugation", {"subgroup": "group", "subgroup_tag": "mine"}),
    ("conjugation", {"group_tag": "mine"}),
    ("double_coset", {"left": "full", "left_tag": "L"}),
    ("double_coset", {"right": "group", "right_tag": "R"}),
], ids=["subgroup_full", "subgroup_group", "group_full", "left_full", "right_group"])
def test_run_tag_of_an_ungenerated_group_exits_2(tmp_path, capsys, kind, params):
    # a tag names a generated group; on "full" or "group" it would be dropped
    desc = write_descriptor(tmp_path, kind, family="perm", degree=4, group="full",
                            base=[2, 3, 4, 1], **params)
    assert run_cli("run", "--platform", desc, "--n", "3", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "_tag names a generated" in err


@pytest.mark.parametrize("platform", ["conjugation", "no_such_file.json"])
def test_run_unknown_platform_exits_2(tmp_path, capsys, platform):
    assert run_cli("run", "--platform", platform, "--n", "3", "--out", str(tmp_path / "x")) == 2
    assert "neither a preset" in capsys.readouterr().err


def test_run_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert run_cli("run", "--platform", "s4_conj", "--n", "3", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_verify_accepts_valid_transcript(session_files, capsys):
    tpath, kpath = session_files
    assert run_cli("verify", tpath, kpath) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_catches_broken_telescoping(session_files, capsys):
    tpath, _ = session_files
    obj = read(tpath)
    good = bytes.fromhex(obj["Z"][0])
    # replace Z_1 with a different valid element
    swapped = bytes([pow(2, 4, 23)]) if good != bytes([pow(2, 4, 23)]) else bytes([pow(2, 5, 23)])
    obj["Z"][0] = swapped.hex()
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 1
    assert "telescoping" in capsys.readouterr().out


def test_verify_catches_foreign_elements(session_files, capsys):
    tpath, _ = session_files
    obj = read(tpath)
    obj["v"][0] = "05"  # 5 is not a power of 2 mod 23
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 1
    assert "decode" in capsys.readouterr().out


def test_verify_catches_wrong_counts(session_files):
    tpath, _ = session_files
    obj = read(tpath)
    obj["v"] = obj["v"][:2]
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 1


@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_rejects_fewer_than_three_parties(session_files, capsys, n):
    # counts that agree, elements that decode, Z telescoping to the identity
    # and a matching sid: only the party count is wrong
    tpath, _ = session_files
    obj = read(tpath)
    e = preset("bd23").target.identity_p.hex()
    obj.update(n=n, v=obj["v"][:n], w=obj["w"][:n], Z=[e] * n)
    obj["sid"] = transcript_from_obj(obj).sid
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL: party count n < 3\n"
    assert "Traceback" not in captured.err


def test_verify_catches_sid_mismatch(session_files):
    tpath, _ = session_files
    obj = read(tpath)
    obj["sid"] = "00" * 32
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 1


def test_verify_checks_keys_file(session_files, tmp_path):
    tpath, kpath = session_files
    kobj = read(kpath)
    kobj["sid"] = "00" * 32
    bad = tmp_path / "bad.keys.json"
    bad.write_text(json.dumps(kobj))
    assert run_cli("verify", tpath, str(bad)) == 1


def test_verify_truncated_file_is_a_parse_error(tmp_path, session_files):
    tpath, _ = session_files
    broken = tmp_path / "broken.json"
    broken.write_text(Path(tpath).read_text()[:40])
    assert run_cli("verify", str(broken)) == 2


@pytest.mark.parametrize("descriptor", [
    {"kind": "bd_modp", "params": {}},
    ["bd_modp"],
    {"kind": "bd_modp", "params": {"p": "23", "g": 2, "q": 11}},
    {"kind": "bd_modp", "params": {"p": 23, "g": 2.0, "q": 11}},
], ids=["missing_params", "not_a_dict", "string_p", "float_g"])
def test_verify_malformed_descriptor_exits_2(session_files, capsys, descriptor):
    tpath, _ = session_files
    obj = read(tpath)
    obj["meta"]["platform_descriptor"] = descriptor
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 2
    assert capsys.readouterr().err.startswith("error: platform descriptor")


@pytest.mark.parametrize("entries", [[[1], [1]], [1, 1, 0], [[1, 1], [0, 1], [1, 0]],
                                     [1, 1, 0, 1.0], [[1, 1], [0, True]], "1101", 5],
                         ids=["short_rows", "three", "three_rows", "float", "bool", "string",
                              "int"])
def test_verify_malformed_matrix_entries_exits_2(session_files, capsys, entries):
    tpath, _ = session_files
    obj = read(tpath)
    obj["meta"]["platform_descriptor"] = {
        "kind": "conjugation", "params": {"family": "mat2", "p": 5, "base": entries}}
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 2
    assert capsys.readouterr().err.startswith("error: matrix entries must be")


M61 = 2**61 - 1


@pytest.mark.parametrize("params, message", [
    ({"p": M61, "g": 3, "q": 5}, "claimed order is wrong"),
    ({"p": M61, "g": 37, "q": M61 - 1}, "exceeds the enumeration cap"),
    ({"p": 2**89 - 1, "g": 3, "q": 5}, "too large to test for primality"),
], ids=["huge_p", "huge_q", "p_past_bound"])
def test_verify_huge_modulus_exits_2_at_once(session_files, capsys, params, message):
    tpath, _ = session_files
    obj = read(tpath)
    obj["meta"]["platform_descriptor"] = {"kind": "bd_modp", "params": params}
    Path(tpath).write_text(json.dumps(obj))
    start = time.perf_counter()
    assert run_cli("verify", tpath) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", [3.5, "3", True], ids=["float_n", "string_n", "bool_n"])
def test_verify_malformed_party_count_exits_2(session_files, capsys, n):
    # the transcript has 3 parties; int() would read 3.5 and "3" as 3, and
    # True as 1
    tpath, _ = session_files
    obj = read(tpath)
    obj["n"] = n
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 2
    assert capsys.readouterr().err.startswith("error: malformed transcript object")


def test_verify_meta_not_an_object_exits_2(session_files, capsys):
    tpath, _ = session_files
    obj = read(tpath)
    obj["meta"] = [1]
    Path(tpath).write_text(json.dumps(obj))
    assert run_cli("verify", tpath) == 2
    assert capsys.readouterr().err.startswith("error: transcript meta is not an object")


def test_verify_keys_file_not_an_object_exits_2(session_files, capsys):
    tpath, kpath = session_files
    Path(kpath).write_text(json.dumps([read(kpath)]))
    assert run_cli("verify", tpath, kpath) == 2
    assert "top level is not a JSON object" in capsys.readouterr().err


def test_verify_keys_file_sk_not_a_string_fails(session_files, capsys):
    tpath, kpath = session_files
    kobj = read(kpath)
    kobj["sk"] = 5
    Path(kpath).write_text(json.dumps(kobj))
    assert run_cli("verify", tpath, kpath) == 1
    assert capsys.readouterr().out.startswith("FAIL: keys file sk does not decode")


TOY_MANIFEST = {"experiment": "ddh_toy_advantage", "platform": "bd23", "n": 3, "trials": 150,
                "seed": 1}


@pytest.mark.parametrize("manifest, message", [
    ({**TOY_MANIFEST, "trials": 0}, "trials must be"),
    ({**TOY_MANIFEST, "trials": True}, "trials must be"),
    ({**TOY_MANIFEST, "n": "4"}, "n must be an integer"),
    ({**TOY_MANIFEST, "tolerance": "0.1"}, "tolerance must be a real number"),
    ({**TOY_MANIFEST, "experiment": ["ddh_toy_advantage"]}, "unknown experiment"),
    ([TOY_MANIFEST], "top level is not a JSON object"),
    ({**TOY_MANIFEST, "seed": "x"}, "seed must be an integer"),
    ({**TOY_MANIFEST, "seed": None}, "seed must be an integer"),
    ({**TOY_MANIFEST, "seed": 1.5}, "seed must be an integer"),
    ({**TOY_MANIFEST, "seed": True}, "seed must be an integer"),
], ids=["0", "True", "string_n", "string_tolerance", "list_experiment", "list_manifest",
        "string_seed", "null_seed", "float_seed", "bool_seed"])
def test_experiment_manifest_zero_trials_exits_2(tmp_path, capsys, manifest, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("experiment", "--manifest", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_experiment_manifest_unknown_field_exits_2(tmp_path, capsys):
    # a misspelled field must not run the default trial count
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**TOY_MANIFEST, "trails": 5}))
    out = tmp_path / "r.json"
    assert run_cli("experiment", "--manifest", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown experiment field 'trails'")
    assert "PASS" not in captured.out and not out.exists()


def test_experiment_flags_override_the_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**TOY_MANIFEST, "trials": 0, "platform": "nope"}))
    out = tmp_path / "r.json"
    assert run_cli("experiment", "--manifest", str(path), "--platform", "bd23",
                   "--trials", "30", "--out", str(out)) == 0
    assert read(out)["manifest"]["trials"] == 30


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
def test_experiment_non_finite_tolerance_exits_2(tmp_path, capsys, tolerance):
    out = tmp_path / "r.json"
    code = run_cli("experiment", "--experiment", "real_vs_distprime_dh", "--platform", "bd23",
                   "--s", "1", "--trials", "200", f"--tolerance={tolerance}", "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance must be finite")
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not out.exists()


def test_experiment_manifest_infinite_tolerance_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**TOY_MANIFEST, "tolerance": float("inf")}))
    assert "Infinity" in path.read_text()
    out = tmp_path / "r.json"
    assert run_cli("experiment", "--manifest", str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance must be finite")
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not out.exists()


def test_experiment_ddh_toy_advantage_two_parties_exits_2(capsys):
    assert run_cli("experiment", "--experiment", "ddh_toy_advantage", "--n", "2") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: party count 2 < 3") and "PASS" not in captured.out


def test_experiment_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "e.json"
    assert run_cli("experiment", "--experiment", "ddh_toy_advantage", "--trials", "20",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write") and not out.exists()


def test_experiment_inconsistent_s_and_n_exits_2(capsys):
    assert run_cli("experiment", "--experiment", "fake_vs_dist_rand", "--platform", "s4_conj",
                   "--s", "1", "--n", "11") == 2
    assert capsys.readouterr().err.startswith("error: party count n = 11 is not 3s + 5")


@pytest.mark.parametrize("suite, s", [("ddh_toy_advantage", 5), ("fake_key_independence", 2)])
def test_experiment_n_suite_refuses_s(tmp_path, capsys, suite, s):
    # these suites take a party count n: an s would be dropped from the run
    out = tmp_path / "e.json"
    assert run_cli("experiment", "--experiment", suite, "--s", str(s), "--trials", "20",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {suite} takes a party count n")
    assert not out.exists()


def test_experiment_unknown_name_exits_2(capsys):
    assert run_cli("experiment", "--experiment", "nope") == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_bad_regime_exits_2():
    assert run_cli("experiment", "--experiment", "real_vs_distprime_dh",
                   "--platform", "s4_conj", "--n", "9", "--trials", "10") == 2


def test_experiment_writes_results_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["experiment", "--experiment", "fake_key_independence", "--platform", "c23_dcoset",
            "--n", "4", "--trials", "3", "--seed", "9", "--out"]
    assert run_cli(*args, str(out1)) == 0
    assert run_cli(*args, str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = read(out1)
    assert obj["pass"] is True and obj["statistic"] == 0.0
    assert obj["manifest"]["experiment"] == "fake_key_independence"
    assert obj["manifest"]["platform"] == "c23_dcoset"
    assert obj["null_advantage"] <= obj["null_bound"]


def test_experiment_reads_manifest_file(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "experiment": "ddh_toy_advantage", "platform": "bd23",
        "n": 3, "trials": 150, "seed": 4,
    }))
    out = tmp_path / "res.json"
    code = run_cli("experiment", "--manifest", str(manifest), "--out", str(out))
    assert code == 0
    obj = read(out)
    assert obj["manifest"]["trials"] == 150
    assert obj["statistic"] >= 0.8


def test_readme_manifest_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    request = json.loads(blocks[0])
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(blocks[0])
    assert run_cli("experiment", "--manifest", str(path), "--out", str(out)) == 0
    recorded = read(out)["manifest"]
    assert recorded["experiment"] == request["experiment"]
    assert recorded["platform"] == preset(request["platform"]).tag
    assert {k: recorded[k] for k in ("n", "trials", "seed")} == \
        {k: request[k] for k in ("n", "trials", "seed")}
    # the recorded manifest is not a request: it carries platform_descriptor
    path.write_text(json.dumps(recorded))
    assert run_cli("experiment", "--manifest", str(path)) == 2


def test_experiment_exit_1_when_out_of_tolerance(tmp_path):
    # the order-24 platform cannot satisfy exact uniformity: expect FAIL -> 1
    code = run_cli("experiment", "--experiment", "fake_key_independence",
                   "--platform", "sl23_dcoset", "--n", "4", "--trials", "2", "--seed", "0")
    assert code == 1


def test_platforms_listing(capsys):
    assert run_cli("platforms") == 0
    out = capsys.readouterr().out
    for name in ("bd23", "s4_conj", "sl23_dcoset"):
        assert name in out
    assert run_cli("platforms", "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    byname = {r["name"]: r for r in rows}
    assert byname["s4_conj"]["target_order"] == 24
    assert byname["bd23"]["commutative"] is True


def test_usage_error_exits_2():
    assert run_cli("run", "--platform", "bd23") == 2  # missing --n
    assert run_cli() == 2


# -- fuzzing verify with single mutations of a `bdga run` artifact pair ----------

# transcript fields and keys-file fields that verify checks: a mutation of
# any of them must never pass
CHECKED = {"transcript": {"platform", "n", "v", "w", "Z", "sid"}, "keys": {"sid"}}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-300, 300), st.floats(width=32),
    st.text(max_size=4), st.lists(st.integers(-3, 30), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)


def json_type(value):
    return type(value).__name__


def leaves(obj, path=()):
    """Every (path, value) below obj, containers included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from leaves(value, (*path, key))


def is_hex(value):
    return isinstance(value, str) and value != "" and all(c in "0123456789abcdef" for c in value)


@pytest.fixture(scope="module")
def fuzz_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pairs = {}
    for name in ("bd23", "s4_conj", "gl25_twist", "sl23_dcoset"):
        assert main(["run", "--platform", name, "--n", "4", "--seed", "3",
                     "--out", str(root / name)]) == 0
        pairs[name] = {kind: read(root / f"{name}.{kind}.json") for kind in CHECKED}
    return root, pairs


def mutate(data, original):
    """One mutation of a JSON object: a value of another JSON type, a deleted
    key, one changed hex digit, or an int moved by one. Returns the mutated
    path and a mutated copy."""
    obj = json.loads(json.dumps(original))
    spots = [path for path, _ in leaves(obj) if path]
    path = data.draw(st.sampled_from(spots))
    *parent_path, key = path
    parent = obj
    for step in parent_path:
        parent = parent[step]
    value = parent[key]
    ops = ["retype"] + ["delete"] * isinstance(parent, dict) + ["hex"] * is_hex(value) \
        + ["step"] * (type(value) is int)
    op = data.draw(st.sampled_from(ops))
    if op == "retype":
        parent[key] = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(value)))
    elif op == "delete":
        del parent[key]
    elif op == "hex":
        i = data.draw(st.integers(0, len(value) - 1))
        digit = data.draw(st.sampled_from([c for c in "0123456789abcdef" if c != value[i]]))
        parent[key] = value[:i] + digit + value[i + 1:]
    else:
        parent[key] = value + data.draw(st.sampled_from([-1, 1]))
    return path, obj


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_verify_survives_single_mutations(fuzz_artifacts, data):
    root, pairs = fuzz_artifacts
    name = data.draw(st.sampled_from(sorted(pairs)))
    kind = data.draw(st.sampled_from(sorted(CHECKED)))
    path, mutated_file = mutate(data, pairs[name][kind])
    mutated = {**pairs[name], kind: mutated_file}
    files = {k: root / f"mutated.{k}.json" for k in ("transcript", "keys")}
    for k, path_k in files.items():
        path_k.write_text(json.dumps(mutated[k]))
    code = main(["verify", str(files["transcript"]), str(files["keys"])])
    assert code in (0, 1, 2)
    if path[0] in CHECKED[kind]:
        assert code != 0, f"{name}: {kind} {path} mutated and still verified"


# -- fuzzing `experiment --manifest` with single mutations of a cheap manifest ---

FUZZ_MANIFESTS = (
    {"experiment": "ddh_toy_advantage", "platform": "bd23", "n": 3, "trials": 20, "seed": 3},
    {"experiment": "fake_vs_dist_rand", "platform": "s4_conj", "s": 1, "trials": 200, "seed": 3},
)


@pytest.fixture(scope="module")
def manifest_root(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest_fuzz")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_experiment_manifest_survives_single_mutations(manifest_root, data):
    manifest = data.draw(st.sampled_from(FUZZ_MANIFESTS))
    path, mutated = mutate(data, manifest)
    manifest_path, out = manifest_root / "m.json", manifest_root / "r.json"
    manifest_path.write_text(json.dumps(mutated))
    out.unlink(missing_ok=True)
    code = main(["experiment", "--manifest", str(manifest_path), "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.exists(), f"{path} mutated: exit 2 but a result was written"
    if "experiment" not in mutated:
        assert code == 2


# -- fuzzing `run --platform desc.json` with single mutations of a descriptor ---

FUZZ_DESCRIPTORS = tuple(preset(name).descriptor for name in ("bd23", "s4_conj", "gl25_twist"))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_run_descriptor_survives_single_mutations(manifest_root, data):
    path, mutated = mutate(data, data.draw(st.sampled_from(FUZZ_DESCRIPTORS)))
    desc, out = manifest_root / "desc.json", manifest_root / "run"
    desc.write_text(json.dumps(mutated))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(["run", "--platform", str(desc), "--n", "3", "--seed", "1",
                     "--out", str(out)])
    assert code in (0, 1, 2), path
    assert "Traceback" not in printed.getvalue(), path
