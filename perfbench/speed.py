"""Host speed reference for the end-to-end timings.

The benchmark shares a two-core virtual machine with other tenants. The
same code runs up to 2x slower in phases that last from a fraction of a
second to tens of seconds, so the share of a run spent in slow phases,
not the code, decided the figures (see README.md). Before each timed
operation, and every TICK_S during a long one, an end-to-end run therefore
times a fixed pure-Python reference pass (the benchmark's own reference
arithmetic, no package code) and divides the operation's time by how much
slower than ``REFERENCE_S`` the pass ran on average. A change to the
package moves the scaled times; a slower or busier host, to first order,
does not.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

from refarith import mat_mul, perm_inv, perm_mul

REFERENCE_S = 260e-6  # fastest reference pass when the benchmark landed
PASSES = 5
TICK_S = 0.05

_PERMS = [bytes((i + k) % 8 + 1 for i in range(8)) for k in range(8)]
_PERMS += [perm_mul(a, b) for a, b in zip(_PERMS, _PERMS[3:] + _PERMS[:3])]
_MATS = [bytes((k % 5, (k + 1) % 5, (2 * k + 1) % 5, (k + 3) % 5)) for k in range(16)]


def reference_pass() -> float:
    """Seconds for one fixed pass of permutation, matrix, dict and hash work."""
    t0 = time.perf_counter()
    acc, m, seen = _PERMS[0], _MATS[0], {}
    for i in range(64):
        acc = perm_mul(perm_inv(_PERMS[i & 15]), perm_mul(acc, _PERMS[(i * 7) & 15]))
        m = mat_mul(m, _MATS[i & 15], 5)
        seen[acc] = seen.get(acc, 0) + 1
        if i % 16 == 0:
            hashlib.sha256(acc + m).digest()
    return time.perf_counter() - t0


def slowness() -> float:
    """How much slower than the reference machine the host runs now: the
    fastest of a few passes on the same input, as timeit takes the minimum,
    over REFERENCE_S."""
    return min(reference_pass() for _ in range(PASSES)) / REFERENCE_S


def timed_at_reference(call, ticks: bool = True):
    """call()'s result, its seconds at the reference machine's speed, and
    the slowness samples used: one just before the call and, with ticks,
    for a call longer than TICK_S, one every TICK_S during it, taken by an
    interval timer whose own time is left out of the call's. A call that
    waits on a child process takes no ticks: the child runs on meanwhile."""
    factors = [slowness()]
    paused = 0.0

    def tick(signum, frame):
        nonlocal paused
        t = time.perf_counter()
        factors.append(slowness())
        paused += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, tick)
    if ticks:
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        out = call()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return out, (elapsed - paused) / statistics.fmean(factors), factors
