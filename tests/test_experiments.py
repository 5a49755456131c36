"""Named experiment suites: dispatch, defaults, result structure."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import bdga
from bdga.errors import RegimeError
from bdga.experiments import (
    EXPERIMENTS,
    exact_conditional_tv,
    fakeprime_vs_dist_dh,
    run_experiment,
)
from bdga.harness import derive_seed
from bdga.platforms import preset
from bdga.security_lab import exact_key_conditional, sample_fake


def test_experiment_name_set_is_stable():
    assert set(EXPERIMENTS) == {
        "real_vs_distprime_dh",
        "fakeprime_vs_distprime_rand",
        "fakeprime_vs_dist_dh",
        "fake_vs_dist_rand",
        "fake_key_independence",
        "ddh_toy_advantage",
    }


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("real_vs_fake", "s4_conj", s=1, trials=10, seed=0)


def test_party_count_can_replace_block_count():
    res = run_experiment("fake_vs_dist_rand", "s4_conj", n=8, trials=1500, seed=1)
    assert res["manifest"]["s"] == 1
    assert res["manifest"]["n"] == 8
    with pytest.raises(RegimeError):
        run_experiment("fake_vs_dist_rand", "s4_conj", n=9, trials=10, seed=1)


def test_shifted_hybrid_suite_runs_both_closing_symbols():
    pf = preset("s4_conj")
    for symbol in ("r", "z"):
        res = fakeprime_vs_dist_dh(pf, 1, trials=6000, seed=2, closing_link=symbol)
        assert res["closing_link"] == symbol
        # noise-floor territory for a 64-bucket hash partition at this scale
        # (expected ~ 0.57 * sqrt(64/6000) ~ 0.06)
        assert res["statistic"] <= 0.085


def test_result_structure():
    res = run_experiment("real_vs_distprime_dh", "s4_conj", s=1, trials=1200, seed=3)
    assert {"manifest", "tool_version", "statistic", "tolerance", "pass", "ci95",
            "partition"} <= set(res)
    man = res["manifest"]
    assert man["experiment"] == "real_vs_distprime_dh"
    assert man["platform"] == "s4_conj"
    assert man["trials"] == 1200 and man["seed"] == 3
    assert man["platform_descriptor"]["kind"] == "conjugation"


def test_tolerance_override_reaches_the_suite():
    res = run_experiment("real_vs_distprime_dh", "s4_conj", s=1, trials=1200, seed=3,
                         tolerance=0.5)
    assert res["tolerance"] == 0.5 and res["pass"]


def test_package_version_is_the_project_version():
    # every artifact stamps bdga.__version__ as its tool_version
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert bdga.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


# Whole results of the two oracle-game suites, recorded at tool_version 0.3.0:
# any drift in the games' draws or in a result field fails here.
C23_DCOSET_DESCRIPTOR = {
    "kind": "double_coset",
    "params": {
        "family": "perm", "degree": 23, "group": [[*range(2, 24), 1]], "group_tag": "c23",
        "left": "group", "right": [], "right_tag": "triv23", "base": [*range(2, 24), 1],
        "tag": "c23_dcoset",
    },
}


def test_fake_key_independence_result_is_pinned():
    res = run_experiment("fake_key_independence", "c23_dcoset", n=4, trials=6, seed=5,
                         null_trials=2_000)
    assert res == {
        "manifest": {"experiment": "fake_key_independence", "platform": "c23_dcoset",
                     "platform_descriptor": C23_DCOSET_DESCRIPTOR, "trials": 6, "seed": 5,
                     "n": 4},
        "tool_version": "0.3.0",
        "statistic": 0.0,
        "tolerance": 0.0,
        "pass": True,
        "uniform_transcripts": 6,
        "null_advantage": 0.018999999999999906,
        "null_trials": 2000,
        "null_bound": 0.06708203932499368,
    }


@pytest.mark.parametrize("name", ["c23_dcoset", "sl23_dcoset"])
def test_exact_conditional_tv_is_the_per_element_sum(name):
    # the one-Fraction closed form against 1/2 sum_x |P(x) - 1/|G||, term by
    # term over the target, on the fake samples fake_key_independence draws
    pf = preset(name)
    order = pf.target.order
    for t in range(6):
        sample = sample_fake(pf, 4, Random(derive_seed(5, "ki", t)))
        weights = exact_key_conditional(pf, sample)
        total = sum(weights.values())
        want = sum(abs(Fraction(weights.get(x, 0), total) - Fraction(1, order))
                   for x in pf.target.elements_p()) / 2
        assert exact_conditional_tv(pf, weights) == want
    assert exact_conditional_tv(pf, {pf.base_p: 7}) == Fraction(order - 1, order)


def test_ddh_toy_advantage_result_is_pinned():
    res = run_experiment("ddh_toy_advantage", "bd23", n=3, trials=400, seed=9)
    assert res == {
        "manifest": {"experiment": "ddh_toy_advantage", "platform": "bd_modp[23,2,11]",
                     "platform_descriptor": {"kind": "bd_modp",
                                             "params": {"p": 23, "g": 2, "q": 11}},
                     "trials": 400, "seed": 9, "n": 3},
        "tool_version": "0.3.0",
        "statistic": 0.9299999999999999,
        "tolerance": 0.8,
        "pass": True,
        "direction": ">=",
        "successes": 386,
        "ci95": [0.8930761543600204, 0.9669238456399795],
        "q_ex": 400,
    }


# Whole results of the four TV suites on s4_conj (s = 1, 3000 trials, seed 11),
# recorded at tool_version 0.3.0: any drift in the batch draws, the row hash
# or the interval fails here.
S4_CONJ_DESCRIPTOR = {
    "kind": "conjugation",
    "params": {"family": "perm", "degree": 4, "group": "full", "subgroup": "group",
               "base": [2, 3, 4, 1], "tag": "s4_conj"},
}
TV_SUITE_PINS = {
    "real_vs_distprime_dh": {
        "statistic": 0.07633333333333334, "tolerance": 0.02, "pass": False,
        "ci95": [0.0, 0.2563131311480442], "slack": 0.0},
    "fakeprime_vs_distprime_rand": {
        "statistic": 0.07833333333333334, "tolerance": 0.18666666666666665, "pass": True,
        "ci95": [0.0, 0.2583131311480442], "slack": 0.16666666666666666},
    "fakeprime_vs_dist_dh": {
        "statistic": 0.07466666666666666, "tolerance": 0.02, "pass": False,
        "ci95": [0.0, 0.2546464644813775], "slack": 0.0,
        "closing_link": "r"},
    "fake_vs_dist_rand": {
        "statistic": 0.08566666666666667, "tolerance": 0.02, "pass": False,
        "ci95": [0.0, 0.2656464644813775], "slack": 0.0, "closing_link": "r"},
}


@pytest.mark.parametrize("suite", sorted(TV_SUITE_PINS))
def test_tv_suite_result_is_pinned(suite):
    res = run_experiment(suite, "s4_conj", s=1, trials=3000, seed=11)
    assert res == {
        "manifest": {"experiment": suite, "platform": "s4_conj",
                     "platform_descriptor": S4_CONJ_DESCRIPTOR, "trials": 3000, "seed": 11,
                     "s": 1, "n": 8},
        "tool_version": "0.3.0",
        "partition": "hash64",
        **TV_SUITE_PINS[suite],
    }
