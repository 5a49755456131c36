"""Command-line interface: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import pytest

from bdga.cli import main


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


def test_run_bd_modp_flags(tmp_path):
    out = tmp_path / "bd"
    code = run_cli("run", "--platform", "bd_modp", "--p", "23", "--g", "2", "--q", "11",
                   "--n", "3", "--seed", "7", "--out", str(out))
    assert code == 0
    assert run_cli("run", "--platform", "bd_modp", "--n", "3", "--seed", "7",
                   "--out", str(out)) == 2  # missing --p/--g/--q


def test_run_custom_conjugation_platform(tmp_path):
    out = tmp_path / "c"
    code = run_cli(
        "run", "--platform", "conjugation", "--degree", "4", "--group", "full",
        "--base", "2,3,4,1", "--n", "3", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert read(f"{out}.transcript.json")["meta"]["platform_descriptor"]["params"]["degree"] == 4


PERM_300 = ",".join(map(str, [*range(2, 301), 1]))


@pytest.mark.parametrize("argv", [
    ["--platform", "conjugation", "--degree", "4", "--base", "a"],
    ["--platform", "conjugation", "--degree", "4", "--base="],
    ["--platform", "conjugation", "--degree", "4", "--group", "x", "--base", "2,3,4,1"],
    ["--platform", "double_coset", "--degree", "4", "--base", "2,1,3,4", "--right", "q"],
    ["--platform", "conjugation", "--degree", "300", "--group", PERM_300, "--base", PERM_300],
], ids=["letter_base", "empty_base", "letter_group", "letter_right", "300_points"])
def test_run_bad_permutation_input_exits_2(tmp_path, capsys, argv):
    assert run_cli("run", *argv, "--n", "3", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_experiment_ddh_toy_advantage_two_parties_exits_2(capsys):
    assert run_cli("experiment", "--experiment", "ddh_toy_advantage", "--n", "2") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: party count 2 < 3") and "PASS" not in captured.out


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
