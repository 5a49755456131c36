"""Layered end-to-end benchmark for the bdga package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout and imports the package from its ``src``
directory (never an installed copy). Workloads: tv_hybrid, sessions,
exact_lab and cli_cold (see perfbench/README.md). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced layer pass with --trace 1. Lines before it stamp the run (git
sha, source hash, Python and numpy versions, kernel backend, core count)
and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("tv_hybrid", "sessions", "exact_lab", "cli_cold")
SETUP_PROBES = 5  # fresh processes, each timing import and set-up
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_paths() -> None:
    if not os.path.isfile(os.path.join(SRC, "bdga", "__init__.py")):
        fail(f"no package sources at {SRC}; run from the root of a bdga checkout")
    sys.path[:0] = [SRC, HERE]


def set_up(name: str, seed: int, checker, workdir: str | None = None):
    """Import the package and build what the workload uses."""
    import workloads  # the package's first import in a set-up probe

    cls = workloads.WORKLOADS[name]
    wl = cls(seed, checker, workdir=workdir) if name == "cli_cold" else cls(seed, checker)
    wl.setup()
    return wl


def probe_setup(name: str) -> float:
    """Set-up time in a fresh process, at the reference machine's speed."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", name],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe for {name} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def stamp() -> dict:
    import numpy

    import bdga

    if not os.path.realpath(bdga.__file__).startswith(os.path.realpath(SRC)):
        fail(f"imported bdga from {bdga.__file__}, not from {SRC}")
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "bdga"))):
        dirs.sort()
        for fname in sorted(files):
            if fname.endswith((".py", ".pyx")):
                with open(os.path.join(folder, fname), "rb") as fh:
                    digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": bdga.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
    }


def git_sha() -> str:
    """HEAD's commit from .git, or 'none' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(name, seed, seconds, checker):
    wl = set_up(name, seed, checker)
    wl.slowness = []
    # main() has imported the package before this set-up, so set-up is timed
    # only in fresh processes, each from before its first import
    setup_s = statistics.median(probe_setup(name) for _ in range(SETUP_PROBES))
    times: dict[str, list[float]] = {}
    units: Counter = Counter()
    rounds, attempts = 0, []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        items = wl.round(rounds)
        rounds += 1
        for op in items:
            if op.rate:
                times.setdefault(op.label, []).append(op.seconds)
                units[op.label] += op.units
        attempts += [op for op in items if op.attempt]
    shutil.rmtree(getattr(wl, "workdir", ""), ignore_errors=True)
    # Times are at the reference machine's speed (speed.py). Each operation
    # counts at the median time of its kind (same label: inputs of the same
    # size), so that a burst of load on a few repeats moves it little.
    typical = {label: statistics.median(v) for label, v in times.items()}
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": sum(units.values())
        / sum(len(times[label]) * t for label, t in typical.items()),
        "op_p50_ms": statistics.median(
            t for label, t in typical.items() for _ in times[label]) * 1e3,
        "peak_rss_mb": peak_rss_mb(with_children=name == "cli_cold"),
    }
    print(f"# {name}: {rounds} rounds, {sum(map(len, times.values()))} timed operations of "
          f"{len(times)} kinds, throughput counts {wl.unit}; set-up is the median of "
          f"{SETUP_PROBES} fresh processes")
    print(f"# host slowness before each operation, median {statistics.median(wl.slowness):.3f} "
          f"(times are scaled by it to the reference machine)")
    return metrics, attempts, END_TO_END


def traced(name, seed, checker):
    import layers
    from tracer import SpanIndex, Tracer, calibrate

    wl = set_up(name, seed, checker)
    ops = [op for op in wl.round(0) if op.attempt]
    shutil.rmtree(getattr(wl, "workdir", ""), ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    passes, artifacts = [], []
    for label in ("untraced", "traced"):
        tracer = Tracer()
        try:
            if label == "traced":
                tracer.install()
                layers.build_presets(tracer)
            else:
                tracer.install(only=layers.LIGHT_SPANS)
            t0 = time.perf_counter()
            workdir = os.path.join(OUT, f"layer-pass-{label}-{os.getpid()}")
            artifacts.append(layers.run_pass(seed, checker, tracer, workdir,
                                             trace_children=label == "traced"))
            passes.append((tracer, time.perf_counter() - t0))
        finally:
            tracer.uninstall()
    checker.check(artifacts[0] == artifacts[1], "traced run changed a CLI --out artifact")
    (untraced_t, untraced_s), (traced_t, traced_s) = passes
    t_index = SpanIndex(traced_t, *calibrate())
    metrics = layers.derive_metrics(t_index, SpanIndex(untraced_t), (untraced_s, traced_s))
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz")
    traced_t.dump(path)
    print(f"# spans: {len(traced_t.name)} written to {os.path.relpath(path, ROOT)}")
    print("# largest self times in the traced layer pass (name, calls, seconds):")
    for span, calls, secs in layers.self_time_table(t_index):
        print(f"#   {span:<52}{calls:>10}{secs:>10.3f}")
    return metrics, ops, layers.PER_LAYER


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"# {'workload':<11}{'attempted':>10}{'failed':>8}  correct")
    for name, res in results.items():
        print(f"# {name:<11}{res['attempted']:>10}{res['failed']:>8}  {res['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, res in results.items()
                    for metric, value in res["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_paths()
    if args.setup_probe:
        from speed import timed_at_reference

        workdir = os.path.join(OUT, f"probe-{os.getpid()}")
        _, seconds, _ = timed_at_reference(
            lambda: set_up(args.setup_probe, 0, None, workdir=workdir))
        shutil.rmtree(workdir, ignore_errors=True)
        print(seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    from workloads import Checker

    checker = Checker()
    run = traced if args.trace else (lambda n, s, c: end_to_end(n, s, args.seconds, c))
    metrics, ops, units = run(args.workload, args.seed, checker)
    info = stamp()
    print("# stamp " + json.dumps(info, sort_keys=True))
    for metric, value in metrics.items():
        print(f"# {metric:<48}{value:>16.6g} {units[metric]}")
    attempted, failed = len(ops), sum(op.failed for op in ops)
    print(f"# {args.workload}: attempted {attempted}, failed {failed}")
    for error in checker.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
