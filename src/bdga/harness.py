"""Passive-adversary oracle environment and advantage estimation.

An environment holds a registry of protocol instances, a master RNG, and a
hidden bit drawn once at construction. The adversary surface is two oracles:

  execute(instances)  -- runs a full session over fresh instances and returns
                         only the public transcript
  test(user, idx)     -- once per environment: the instance's session key if
                         the hidden bit is 1, else a uniform target element

A game runs the session's own round code (``protocol._session_rounds``, the
rounds ``run_session`` runs) on the platform's element-ops backend, and
keeps per session only the instance list, the transcript and one backend
key per instance. A ``SessionRecord`` (its pid, the transcript's sid and
the wrapped key) is built when ``record`` reads it, and a key is wrapped
when ``test`` returns it, so a game that reads neither computes no sid.
With ``fake_keys`` the key pass, whose output nobody reads, is skipped,
and each key is a uniform target element drawn after the session. Its
draws are the ones ``run_session`` and the target's ``sample`` make.

``estimate_advantage`` scores a guessing strategy over many fresh
environments and reports |2 Pr[correct] - 1| with a Wilson 95% half-width.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

from . import actions
from .actions import GroupAction
from .errors import (
    InstanceNotAcceptedError,
    InstanceReusedError,
    MalformedInstanceError,
    OracleContractError,
    TestUnavailableError,
    TooFewInstancesError,
)
from .groups import GroupElement
from .protocol import SessionRecord, Transcript, _party_key, _session_rounds


def derive_seed(seed: int, *labels) -> int:
    """Stable 64-bit child seed for independent streams."""
    text = ":".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class OracleEnv:
    """One game instance: registry, master RNG, single hidden bit.

    The registry holds one entry per instance an ``execute`` ran, its
    session and its position in it; a session is the tuple (instances,
    transcript, backend keys). Every registered instance has accepted,
    terminated and been used, so "the entry exists" is each of those
    checks. ``record`` builds the instance's ``SessionRecord`` from its
    entry on each read."""

    def __init__(self, platform: GroupAction, seed: int, fake_keys: bool = False):
        self.platform = platform
        self._ops = actions._ops(platform)
        self.rng = Random(seed)
        self.fake_keys = fake_keys
        self._entries: dict[tuple, tuple[tuple, int]] = {}
        self._bit = self.rng.getrandbits(1)
        self.test_used = False
        self.q_ex = 0

    def execute(self, instances: Sequence[tuple[str, int]]) -> Transcript:
        """Run one session over the named fresh instances. Naming an instance
        twice, or one already used, raises InstanceReusedError; fewer than
        three instances raise TooFewInstancesError; ``instances`` that are
        not a sized sequence, such as None or an iterator, or an instance that
        is not a (user, index) pair of a str and an int, such as ("A",), 5,
        "AB", (["A"], 1) or (1.5, None), raise MalformedInstanceError. All of
        these are raised before the session runs, ``q_ex`` counts it or the
        environment's RNG moves."""
        try:
            count = len(instances)
        except TypeError:
            raise MalformedInstanceError(
                f"{type(instances).__name__} is not a sequence of instances") from None
        if count < 3:
            raise TooFewInstancesError(f"a session needs >= 3 instances, got {count}")
        entries = self._entries
        named: dict[tuple, None] = {}  # the instances in order, as a set
        for instance in instances:
            try:
                user, index = key = tuple(instance)
            except (TypeError, ValueError):
                user = index = None
            if not isinstance(user, str) or type(index) is not int:
                raise MalformedInstanceError(f"{instance!r} is not a (user, index) pair")
            if key in named:
                raise InstanceReusedError(f"instance {key} is named twice")
            if key in entries:
                raise InstanceReusedError(f"instance {key} was already used")
            named[key] = None
        ops, rng = self._ops, self.rng
        _, _, vs, ws, xs, _, zs = _session_rounds(ops, count, Random(rng.getrandbits(63)))
        g_tuple = ops.g_tuple
        transcript = Transcript(self.platform.tag, count, g_tuple(vs), g_tuple(ws), g_tuple(zs))
        self.q_ex += 1
        if self.fake_keys:
            keys = [ops.draw_g(rng) for _ in range(count)]
        else:
            keys = [_party_key(ops, x, zs, i) for i, x in enumerate(xs, 1)]
        session = (tuple(named), transcript, keys)
        for position, key in enumerate(named):
            entries[key] = (session, position)
        return transcript

    def _entry(self, user: str, index: int) -> tuple[tuple, int] | None:
        try:
            return self._entries.get((user, index))
        except TypeError:
            raise MalformedInstanceError(f"{(user, index)!r} is not a (user, index) pair") from None

    def test(self, user: str, index: int) -> GroupElement:
        """The single Test query. A second query raises TestUnavailableError;
        an instance that is not hashable, such as (["A"], 0), raises
        MalformedInstanceError and one with no accepted key
        InstanceNotAcceptedError, both leaving the query unused."""
        if self.test_used:
            raise TestUnavailableError("the single Test query was already consumed")
        entry = self._entry(user, index)
        if entry is None:
            raise InstanceNotAcceptedError(f"instance {(user, index)} has not accepted a key")
        self.test_used = True
        ops = self._ops
        if self._bit == 1:
            (_, _, keys), position = entry
            sk = keys[position]
        else:
            sk = ops.draw_g(self.rng)
        return self.platform.target.wrap(ops.g_bytes(sk))

    @property
    def hidden_bit(self) -> int:
        """Scoring access for the game runner (and calibration adversaries)."""
        return self._bit

    def record(self, user: str, index: int) -> SessionRecord:
        """The instance's record, built from its session on each read: the
        participants as "user#index", the transcript's sid and the wrapped
        key. An instance that is not hashable raises MalformedInstanceError,
        one that no session ran KeyError."""
        entry = self._entry(user, index)
        if entry is None:
            raise KeyError((user, index))
        (named, transcript, keys), position = entry
        return SessionRecord(
            pid=tuple(f"{u}#{i}" for u, i in named),
            sid=transcript.sid,
            sk=self.platform.target.wrap(self._ops.g_bytes(keys[position])),
            acc=True,
            term=True,
            used=True,
        )


@dataclass
class AdvantageReport:
    trials: int
    successes: int
    q_ex: int
    advantage: float
    ci95: float
    wall_time: float

    def to_obj(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "advantage": self.advantage,
            "ci95": self.ci95,
            "q_ex": self.q_ex,
        }


def wilson_half_width(successes: int, trials: int, z: float = 1.959964) -> float:
    """Half-width of the Wilson 95% interval for the success rate."""
    if trials == 0:
        return 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    return (z * (phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) ** 0.5) / denom


Distinguisher = Callable[[OracleEnv], int]
EnvFactory = Callable[[int], OracleEnv]


def estimate_advantage(
    distinguisher: Distinguisher, env_factory: EnvFactory, trials: int
) -> AdvantageReport:
    """Run the distinguisher against fresh environments and count correct
    hidden-bit guesses. A trial whose oracle contract is violated (or that
    never queries Test) counts as a failure. A trial count that is not an
    int >= 1, such as True or 2.5, raises ValueError before any game runs."""
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int >= 1, not {trials!r}")
    t0 = time.perf_counter()
    successes = 0
    q_ex = 0
    for t in range(trials):
        env = env_factory(t)
        try:
            guess = distinguisher(env)
        except OracleContractError:
            guess = None
        q_ex += env.q_ex
        if env.test_used and guess == env.hidden_bit:
            successes += 1
    advantage = abs(2.0 * successes / trials - 1.0)
    ci = 2.0 * wilson_half_width(successes, trials)
    return AdvantageReport(trials, successes, q_ex, advantage, ci, time.perf_counter() - t0)
