"""The traced run's layer pass and the per-layer metrics derived from it.

The layer pass is the same in every workload's traced run, so a per-layer
metric reads the same whichever workload carries it: one full sessions
round and each other workload's round at a reduced size (TV suites at 300
trials, the exact lab with one suite trial and 300 null trials, and the
cheap CLI calls). It runs twice: untraced, recording only the benchmark's
region spans and the two light spans of ``LIGHT_SPANS``, and traced, after
a traced rebuild of six presets (with their validation) that the untraced
pass does not repeat.
Times of whole calls that a region wraps are read from the untraced pass;
shares, counts, self times and times of calls nested inside the package are
read from the traced pass, less the calibrated cost of the spans nested in
them.
"""

from __future__ import annotations

import shutil
import statistics

from bdga import platforms

from tracer import SpanIndex
from workloads import TV_SUITES, CliCold, ExactLab, Sessions, TvHybrid

BUILD_PRESETS = ("s4_conj", "gl25_twist", "sl23_dcoset", "bd23", "c23_dcoset", "s4_dcoset")
SAMPLERS = ("real", "fake", "fake_prime", "dist_prime", "dist")
APPLY_KINDS = {"conj": "ConjugationAction", "twist": "TwistedConjugacyAction",
               "sandwich": "DoubleCosetAction", "exp": "ExponentAction"}
CLI_PRESETS = ("s4_conj", "gl25_twist", "bd23")
EXACT_PLATFORMS = ("c23_dcoset", "sl23_dcoset")
SUITE_REGIONS = {**{s: f"tv.{s}" for s in TV_SUITES},
                 **{f"fake_key_independence.{p}": f"exact.suite.fake_key_independence.{p}"
                    for p in EXACT_PLATFORMS},
                 "ddh_toy_advantage": "exact.suite.ddh_toy_advantage"}

# the only package calls spanned in the untraced pass
LIGHT_SPANS = {"protocol.run_session", "protocol.PartyState.compute_key"}

PER_LAYER: dict[str, str] = {
    "groups.perm_compose_ns": "ns",
    "groups.mat2_compose_ns": "ns",
    "groups.modp_compose_ns": "ns",
    "groups.compose_calls_per_draw": "calls",
    "groups.sample_calls_per_draw": "calls",
    **{f"actions.apply_ns.{k}": "ns" for k in APPLY_KINDS},
    "actions.apply_calls_per_draw": "calls",
    "actions.apply_calls_per_conditional": "calls",
    **{f"actions.validate_s.{p}": "s" for p in BUILD_PRESETS},
    **{f"actions.validate_apply_calls.{p}": "calls" for p in BUILD_PRESETS},
    **{f"platforms.build_s.{p}": "s" for p in BUILD_PRESETS},
    **{f"protocol.run_session_us.n{n}": "us" for n in (3, 8, 16, 32)},
    "protocol.compute_key_share": "ratio",
    "protocol.oracle_key_us": "us",
    "serial.transcript_roundtrip_us": "us",
    "harness.derive_seed_us": "us",
    "harness.execute_us": "us",
    "harness.advantage_trial_us.null": "us",
    "harness.advantage_trial_us.exhaustive": "us",
    **{f"security_lab.sample_us.{s}": "us" for s in SAMPLERS},
    "security_lab.sample_ddh_ga_us.dh_shaped": "us",
    "security_lab.sample_ddh_ga_us.random_excluded": "us",
    "security_lab.ddh_accept_ratio": "ratio",
    "security_lab.partition_us": "us",
    "security_lab.tv_self_ms": "ms",
    **{f"security_lab.exact_key_conditional_ms.{p}": "ms" for p in EXACT_PLATFORMS},
    **{f"experiments.suite_s.{s}": "s" for s in SUITE_REGIONS},
    "cli.import_s": "s",
    **{f"cli.run_s.{p}": "s" for p in CLI_PRESETS},
    **{f"cli.verify_s.{p}": "s" for p in CLI_PRESETS},
    "cli.experiment_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "trace.span_overhead_ns": "ns",
}


def build_presets(tracer) -> None:
    """Rebuild the presets, so their kernels are bound while traced."""
    preset = platforms.preset
    (getattr(preset, "cache_clear", None) or preset.__wrapped__.cache_clear)()
    for name in BUILD_PRESETS:
        with tracer.region(f"build.{name}"):
            platforms.preset(name)


def run_pass(seed: int, checker, tracer, workdir: str, trace_children: bool) -> dict:
    """One layer pass after the builds; returns the CLI artifacts it wrote."""
    cli = CliCold(seed, checker, tracer, workdir=workdir, full=False,
                  trace_children=trace_children)
    for wl in (Sessions(seed, checker, tracer), TvHybrid(seed, checker, tracer, trials=300),
               ExactLab(seed, checker, tracer, scale="layer_pass"), cli):
        wl.setup()
        wl.round(0)
    artifacts = cli.artifacts()
    shutil.rmtree(workdir, ignore_errors=True)
    return artifacts


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.fmean(values) * scale if values else float("nan")


def derive_metrics(traced: SpanIndex, untraced: SpanIndex, pass_s: tuple[float, float]) -> dict:
    t, u = traced, untraced
    out: dict[str, float] = {}

    def region_time(index: SpanIndex, name: str) -> list[float]:
        return [index.dur[i] for i in index.find("bench." + name)]

    def corrected(label, region=None):
        return [t.corrected(i) for i in t.find(label, region)]

    # groups/_kernels: leaf kernels, so their self time is the operation
    out["groups.perm_compose_ns"] = _mean(t.self_ns[i] for i in t.find("_kernels.perm_compose"))
    out["groups.mat2_compose_ns"] = _mean(t.self_ns[i] for i in t.find("_kernels.mat2_compose"))
    out["groups.modp_compose_ns"] = _mean(
        t.self_ns[i] for i in t.find("groups.ModCyclicGroup.compose_p"))

    # per-draw counts: the outermost calls below tv_distance, over its draws
    draws = [i for s in SAMPLERS for i in t.find(f"security_lab.sample_{s}", "tv.")
             if t.label[t.parent[i]] == "security_lab.tv_distance"]

    def outermost_below(suffix, anchor, region):
        return sum(1 for i, name in enumerate(t.label)
                   if name.endswith(suffix) and not t.label[t.parent[i]].endswith(suffix)
                   and t.region_name(i).startswith(region) and t.has_ancestor(i, anchor))

    n_draws = len(draws)
    out["groups.compose_calls_per_draw"] = outermost_below(
        ".compose_p", "security_lab.tv_distance", "tv.") / n_draws
    out["groups.sample_calls_per_draw"] = outermost_below(
        ".sample_p", "security_lab.tv_distance", "tv.") / n_draws

    # actions
    for kind, cls in APPLY_KINDS.items():
        out[f"actions.apply_ns.{kind}"] = _mean(corrected(f"actions.{cls}.apply_p"))
    out["actions.apply_calls_per_draw"] = outermost_below(
        ".apply_p", "security_lab.tv_distance", "tv.") / n_draws
    conditionals = t.find("security_lab.exact_key_conditional", "exact.conditional.")
    out["actions.apply_calls_per_conditional"] = outermost_below(
        ".apply_p", "security_lab.exact_key_conditional", "exact.conditional.") / len(conditionals)
    for name in BUILD_PRESETS:
        (validate,) = t.find("actions.GroupAction.validate", f"build.{name}")
        (build,) = t.find(f"bench.build.{name}")
        out[f"actions.validate_s.{name}"] = t.corrected(validate) / 1e9
        out[f"actions.validate_apply_calls.{name}"] = sum(
            v for k, v in t.tracer.muted_calls[validate].items() if k.endswith(".apply_p"))
        out[f"platforms.build_s.{name}"] = (t.corrected(build) - t.corrected(validate)) / 1e9

    # protocol
    for n in (3, 8, 16, 32):
        out[f"protocol.run_session_us.n{n}"] = _mean(region_time(u, f"sessions.n{n}"), 1e-3)
    # from the untraced pass's light spans, which nest nothing else: the
    # quadratic ladder ordering runs in compute_key's children
    key = sum(u.dur[i] for i in u.find("protocol.PartyState.compute_key", "sessions."))
    out["protocol.compute_key_share"] = key / sum(
        u.dur[i] for i in u.find("protocol.run_session", "sessions."))
    out["protocol.oracle_key_us"] = _mean(corrected("protocol.oracle_key", "exact."), 1e-3)

    out["serial.transcript_roundtrip_us"] = _mean(region_time(u, "serial.roundtrip"), 1e-3)

    # harness
    out["harness.derive_seed_us"] = _mean(corrected("harness.derive_seed"), 1e-3)
    out["harness.execute_us"] = _mean(corrected("harness.OracleEnv.execute"), 1e-3)
    for kind, region in (("null", "exact.suite.fake_key_independence."),
                         ("exhaustive", "exact.suite.ddh_toy_advantage")):
        spans = t.find("harness.estimate_advantage", region)
        trials = sum(1 for i in t.find("harness.OracleEnv.execute", region))
        out[f"harness.advantage_trial_us.{kind}"] = sum(
            t.corrected(i) for i in spans) / trials * 1e-3

    # security_lab
    by_sampler = {s: [] for s in SAMPLERS}
    for i in draws:
        by_sampler[t.label[i][len("security_lab.sample_"):]].append(t.corrected(i))
    for s in SAMPLERS:
        out[f"security_lab.sample_us.{s}"] = _mean(by_sampler[s], 1e-3)
    shaped = [i for s in TV_SUITES[:2] for i in t.find("security_lab.sample_ddh_ga", f"tv.{s}")]
    excluded = t.find("security_lab.sample_ddh_ga", f"tv.{TV_SUITES[2]}")
    out["security_lab.sample_ddh_ga_us.dh_shaped"] = _mean((t.corrected(i) for i in shaped), 1e-3)
    out["security_lab.sample_ddh_ga_us.random_excluded"] = _mean(
        (t.corrected(i) for i in excluded), 1e-3)
    # every excluded tuple accepts exactly two draws (z and r) after x and y
    excluded_set = set(excluded)
    loop_draws = sum(1 for i, name in enumerate(t.label)
                     if name.endswith(".sample_p") and t.parent[i] in excluded_set)
    out["security_lab.ddh_accept_ratio"] = 2 * len(excluded) / (loop_draws - 2 * len(excluded))
    out["security_lab.partition_us"] = _mean(corrected("security_lab.Partition.__call__", "tv."),
                                             1e-3)
    out["security_lab.tv_self_ms"] = _mean(
        (t.self_ns[i] for i in t.find("security_lab.tv_distance", "tv.")), 1e-6)
    for name in EXACT_PLATFORMS:
        out[f"security_lab.exact_key_conditional_ms.{name}"] = _mean(
            region_time(u, f"exact.conditional.{name}"), 1e-6)

    for suite, region in SUITE_REGIONS.items():
        out[f"experiments.suite_s.{suite}"] = _mean(region_time(u, region), 1e-9)

    out["cli.import_s"] = _mean(region_time(u, "cli.import"), 1e-9)
    for name in CLI_PRESETS:
        out[f"cli.run_s.{name}"] = _mean(region_time(u, f"cli.run.{name}"), 1e-9)
        out[f"cli.verify_s.{name}"] = _mean(region_time(u, f"cli.verify.{name}"), 1e-9)
    out["cli.experiment_s"] = _mean(region_time(u, "cli.experiment"), 1e-9)

    untraced_s, traced_s = pass_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    out["trace.spans"] = len(t.label)
    out["trace.span_overhead_ns"] = t.span_ns
    missing = set(PER_LAYER) ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metric set differs from PER_LAYER: {sorted(missing)}")
    return out


def self_time_table(index: SpanIndex, top: int = 20) -> list[tuple[str, int, float]]:
    """(span name, calls, total self seconds), largest self time first."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for i, name in enumerate(index.label):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + index.self_ns[i]
    rows = sorted(total, key=total.get, reverse=True)[:top]
    return [(name, calls[name], total[name] / 1e9) for name in rows]

