"""Spans around calls into the package's public functions and methods.

The package is not edited: ``Tracer.install`` replaces each public
function and method of the traced modules, wherever the package holds a
reference to it, with a wrapper that records one span (name, start, end,
parent). Benchmark code adds its own ``region`` spans around the operations
it runs. Spans stay in memory in flat arrays and are written out at the end.

Inside ``make_platform`` and ``GroupAction.validate`` nested calls are
counted, not spanned: the exhaustive validation of ``s4_dcoset`` alone makes
about six million ``apply_p`` calls, and building ``gl25_twist`` checks its
endomorphism on 230,400 pairs, which would swamp the span arrays and the run
time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("_kernels", "groups", "actions", "platforms", "protocol", "serial", "harness",
          "security_lab", "experiments", "cli")
MUTING = ("platforms.make_platform", "actions.GroupAction.validate")
REGION = "bench."


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._mute_stack: list[dict[int, int]] = []
        self.muted_calls: dict[int, dict[str, int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        i = self._open(self._id(REGION + name))
        try:
            yield i
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        """A span per call; inside a muting span, a count per name instead.
        Muting spans themselves are always recorded."""
        nid = self._id(name)
        mutes = name in MUTING
        mute_stack = self._mute_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if mute_stack and not mutes:
                counts = mute_stack[-1]
                counts[nid] = counts.get(nid, 0) + 1
                return fn(*args, **kwargs)
            i = self._open(nid)
            if mutes:
                mute_stack.append({})
            try:
                return fn(*args, **kwargs)
            finally:
                if mutes:
                    self.muted_calls[i] = {self.names[k]: v for k, v in mute_stack.pop().items()}
                self._close(i)

        return traced

    # -- installing into the package ------------------------------------------

    def install(self, package: str = "bdga", only: set[str] | None = None) -> None:
        """Wrap every public function and method of the traced modules (or
        the ones named in ``only``), wherever the package holds a reference
        to it (module globals and module-level dicts such as the experiment
        registry)."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        holders = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == package or key.startswith(package + "."))]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._install_class(layer, obj, only)
                elif not attr.startswith("_") and callable(obj) and (
                        layer == "_kernels" or getattr(obj, "__module__", None) == mod.__name__
                ) and (only is None or name in only):
                    self._replace_everywhere(holders, obj, self.wrap(name, obj))

    def _install_class(self, layer: str, cls, only: set[str] | None) -> None:
        # private base classes carry public methods too (``_PermBase.compose_p``)
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            public = not attr.startswith("_") or attr == "__call__"
            if public and inspect.isfunction(obj) and (only is None or name in only):
                self._patched.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(name, obj))

    def _replace_everywhere(self, holders, obj, wrapped) -> None:
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is obj:
                    self._patched.append((holder, key, obj))
                    setattr(holder, key, wrapped)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is obj:
                            self._patched.append((val, k, obj))
                            val[k] = wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "muted_calls": {str(k): v for k, v in self.muted_calls.items()},
        }

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.to_obj(), fh)

    def merge(self, obj: dict, under: int) -> None:
        """Append spans recorded by a child process below span ``under``.
        perf_counter_ns reads the system-wide monotonic clock on Linux, so
        the child's times line up with the parent's."""
        base = len(self.name)
        ids = [self._id(n) for n in obj["names"]]
        for nid, s, e, p in zip(obj["name"], obj["start_ns"], obj["end_ns"], obj["parent"]):
            self.name.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(under if p < 0 else base + p)
        for k, v in obj["muted_calls"].items():
            self.muted_calls[base + int(k)] = v


def load(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def calibrate(reps: int = 500, loops: int = 40) -> tuple[float, float]:
    """Nanoseconds one traced call adds to its caller beyond the callee's own
    span, and nanoseconds one counted (muted) call adds. Each is the fastest
    of many short loops, which fall between the host's bursts of load."""
    def noop():
        return None

    def loop(fn) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        return time.perf_counter_ns() - t0

    probe = Tracer()
    traced = probe.wrap("noop", noop)
    # raw: the loop and call cost an untraced caller pays as well
    raw = min(loop(noop) for _ in range(loops))
    outside = []
    for _ in range(loops):
        mark = len(probe.name)
        wrapped = loop(traced)
        outside.append(wrapped - sum(probe.end[i] - probe.start[i]
                                     for i in range(mark, len(probe.name))))
    probe._mute_stack.append({})
    muted = min(loop(traced) for _ in range(loops))
    return max((min(outside) - raw) / reps, 0.0), max((muted - raw) / reps, 0.0)


class SpanIndex:
    """Derived quantities over a recorded span set: durations, self time,
    descendant counts, and the innermost benchmark region of every span.

    Self and corrected times subtract the calibrated cost of the tracing
    nested in a span: ``span_ns`` per traced call and ``muted_ns`` per
    counted call.
    """

    def __init__(self, tracer: Tracer, span_ns: float = 0.0, muted_ns: float = 0.0):
        n = len(tracer.name)
        self.tracer = tracer
        self.span_ns = span_ns
        names = tracer.names
        self.label = [names[k] for k in tracer.name]
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        parent = tracer.parent
        self.parent = parent
        muted = [0] * n
        for i, counts in tracer.muted_calls.items():
            muted[i] = sum(counts.values())
        self_ns = [self.dur[i] - muted[i] * muted_ns for i in range(n)]
        # tracing cost inside each span: nested spans and counted calls
        cost = [muted[i] * muted_ns for i in range(n)]
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                self_ns[p] -= self.dur[i] + span_ns
                cost[p] += cost[i] + span_ns
        self.self_ns = self_ns
        self._cost = cost
        self.by_label: dict[str, list[int]] = {}
        region = [-1] * n
        for i in range(n):
            label = self.label[i]
            self.by_label.setdefault(label, []).append(i)
            p = parent[i]
            region[i] = i if label.startswith(REGION) else (region[p] if p >= 0 else -1)
        self.region = region

    def corrected(self, i: int) -> float:
        """Inclusive duration less the tracing cost nested in it."""
        return self.dur[i] - self._cost[i]

    def region_name(self, i: int) -> str:
        r = self.region[i]
        return self.label[r][len(REGION):] if r >= 0 else ""

    def find(self, label: str, region_prefix: str | None = None) -> list[int]:
        found = self.by_label.get(label, [])
        if region_prefix is None:
            return list(found)
        return [i for i in found if self.region_name(i).startswith(region_prefix)]

    def has_ancestor(self, i: int, label: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.label[p] == label:
                return True
            p = self.parent[p]
        return False
