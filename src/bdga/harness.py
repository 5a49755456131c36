"""Passive-adversary oracle environment and advantage estimation.

An environment holds a registry of protocol instances, a master RNG, and a
hidden bit drawn once at construction. The adversary surface is two oracles:

  execute(instances)  -- runs a full session over fresh instances and returns
                         only the public transcript
  test(user, idx)     -- once per environment: the instance's session key if
                         the hidden bit is 1, else a uniform target element

``estimate_advantage`` scores a guessing strategy over many fresh
environments and reports |2 Pr[correct] - 1| with a Wilson 95% half-width.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

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
from .protocol import SessionConfig, SessionRecord, Transcript, run_session


def derive_seed(seed: int, *labels) -> int:
    """Stable 64-bit child seed for independent streams."""
    text = ":".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class OracleEnv:
    """One game instance: registry, master RNG, single hidden bit."""

    def __init__(self, platform: GroupAction, seed: int, fake_keys: bool = False):
        self.platform = platform
        self.rng = Random(seed)
        self.fake_keys = fake_keys
        self._records: dict[tuple[str, int], SessionRecord] = {}
        self._bit = self.rng.getrandbits(1)
        self.test_used = False
        self.q_ex = 0

    def execute(self, instances: Sequence[tuple[str, int]]) -> Transcript:
        """Run one session over the named fresh instances. Naming an instance
        twice, or one already used, raises InstanceReusedError; fewer than
        three instances raise TooFewInstancesError; ``instances`` that are
        not a sized sequence, such as None or an iterator, or an instance that
        is not a hashable (user, index) pair, such as ("A",), 5 or (["A"], 1),
        raise MalformedInstanceError. All of these are raised before the
        session runs, ``q_ex`` counts it or the environment's RNG moves."""
        try:
            count = len(instances)
        except TypeError:
            raise MalformedInstanceError(
                f"{type(instances).__name__} is not a sequence of instances") from None
        if count < 3:
            raise TooFewInstancesError(f"a session needs >= 3 instances, got {count}")
        seen: set[tuple] = set()
        for key in instances:
            try:
                user, index = key = tuple(key)
                rec = self._records.get(key)
            except (TypeError, ValueError):
                raise MalformedInstanceError(f"{key!r} is not a (user, index) pair") from None
            if key in seen:
                raise InstanceReusedError(f"instance {key} is named twice")
            if rec is not None and rec.used:
                raise InstanceReusedError(f"instance {key} was already used")
            seen.add(key)
        pid = tuple(f"{u}#{i}" for u, i in instances)
        session_seed = self.rng.getrandbits(63)
        result = run_session(SessionConfig(self.platform, len(instances), session_seed))
        self.q_ex += 1
        for key, record, sk in zip(instances, result.records, result.keys):
            if self.fake_keys:
                sk = self.platform.target.sample(self.rng)
            self._records[tuple(key)] = SessionRecord(
                pid=pid,
                sid=record.sid,
                sk=sk,
                acc=True,
                term=True,
                used=True,
            )
        return result.transcript

    def test(self, user: str, index: int) -> GroupElement:
        if self.test_used:
            raise TestUnavailableError("the single Test query was already consumed")
        rec = self._records.get((user, index))
        if rec is None or not rec.acc:
            raise InstanceNotAcceptedError(f"instance {(user, index)} has not accepted a key")
        self.test_used = True
        if self._bit == 1:
            return rec.sk
        return self.platform.target.sample(self.rng)

    @property
    def hidden_bit(self) -> int:
        """Scoring access for the game runner (and calibration adversaries)."""
        return self._bit

    def record(self, user: str, index: int) -> SessionRecord:
        return self._records[(user, index)]


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
    never queries Test) counts as a failure."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
