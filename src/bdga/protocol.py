"""The key-exchange state machine: per-party round logic, the permuted key
product, a closed-form reference key, and a deterministic session runner.

Parties are numbered 1..n around a cycle. Party i holds a round secret h_i
and two pair keys: c_{i-1} shared with its left neighbor and c_i shared with
its right neighbor. Messages:

  round 2:  v_i = apply(h_i, g)                      -> both neighbors
  round 3:  w_i = apply(c_{i-1} . h_i, v_{i-1})      -> left neighbor
  round 4:  X_i = apply(h_i, v_{i-1}),
            Y_i = apply(c_i^-1, w_{i+1}),
            Z_i = X_i^-1 * Y_i                        -> broadcast

The session key is an ordered product of ladder values; every party computes
the same group element.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

from .actions import GroupAction
from .errors import ProtocolStateError, RegimeError
from .groups import GroupElement


def wrap(i: int, n: int) -> int:
    """Fold any integer onto the 1-based cycle 1..n."""
    if n < 1:
        raise RegimeError("party count must be >= 1")
    return (i - 1) % n + 1


def cycle_step(n: int, k: int) -> int:
    """Cyclic predecessor on 1..n: 1 -> n and k -> k-1 otherwise. Applying it
    n times is the identity; party i's ladder factors of the key come in the
    order of 1..n under it applied i - 1 times."""
    if n < 3:
        raise RegimeError("party count must be >= 3")
    if not 1 <= k <= n:
        raise ProtocolStateError(f"index {k} outside 1..{n}")
    return wrap(k - 1, n)


@dataclass(frozen=True, slots=True)
class Transcript:
    """The public messages of one complete run, in broadcast order."""

    platform: str
    n: int
    v: tuple[bytes, ...]
    w: tuple[bytes, ...]
    z: tuple[bytes, ...]

    def canonical_bytes(self) -> bytes:
        parts = [self.platform.encode(), b"\x00", self.n.to_bytes(4, "big")]
        for seq in (self.v, self.w, self.z):
            parts.append(len(seq).to_bytes(4, "big"))
            for payload in seq:
                parts.append(len(payload).to_bytes(2, "big"))
                parts.append(payload)
        return b"".join(parts)

    @property
    def sid(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


@dataclass
class SessionRecord:
    """Bookkeeping for one protocol instance: participant list, session id,
    session key, and the accepted/terminated/used flags."""

    pid: tuple[str, ...]
    sid: str | None = None
    sk: GroupElement | None = None
    acc: bool = False
    term: bool = False
    used: bool = False


class PartyState:
    """One party's view of a run. Fields are written exactly once, in round
    order; reading a missing earlier field raises."""

    def __init__(self, platform: GroupAction, index: int, n: int):
        if n < 3:
            raise RegimeError(f"party count {n} < 3")
        if not 1 <= index <= n:
            raise ProtocolStateError(f"party index {index} outside 1..{n}")
        self.platform = platform
        self.index = index
        self.n = n
        self.secret: bytes | None = None
        self.c_left: bytes | None = None
        self.c_right: bytes | None = None
        self.v_prev: bytes | None = None
        self.v_next: bytes | None = None
        self.w_next: bytes | None = None
        self.x: bytes | None = None
        self.y: bytes | None = None
        self.z: bytes | None = None
        self.z_all: tuple[bytes, ...] | None = None

    def _need(self, name: str) -> bytes:
        value = getattr(self, name)
        if value is None:
            raise ProtocolStateError(f"party {self.index}: {name} not available yet")
        return value

    def _write_once(self, name: str, value) -> None:
        if getattr(self, name) is not None:
            raise ProtocolStateError(f"party {self.index}: {name} already set")
        setattr(self, name, value)

    # -- round 1/2 inputs ---------------------------------------------------

    def set_pair_keys(self, left: bytes, right: bytes) -> None:
        self._write_once("c_left", left)
        self._write_once("c_right", right)

    def set_secret(self, h: bytes) -> None:
        self._write_once("secret", h)

    def receive_round2(self, v_prev: bytes, v_next: bytes) -> None:
        self._write_once("v_prev", v_prev)
        self._write_once("v_next", v_next)

    def receive_round3(self, w_next: bytes) -> None:
        self._write_once("w_next", w_next)

    def receive_round4(self, z_all: Sequence[bytes]) -> None:
        if len(z_all) != self.n:
            raise ProtocolStateError(f"expected {self.n} broadcast values, got {len(z_all)}")
        self._write_once("z_all", tuple(z_all))

    # -- round outputs ---------------------------------------------------------

    def round2_message(self) -> bytes:
        return self.platform.apply_p(self._need("secret"), self.platform.base_p)

    def round3_message(self) -> bytes:
        exponent = self.platform.acting.compose_p(self._need("c_left"), self._need("secret"))
        return self.platform.apply_p(exponent, self._need("v_prev"))

    def round4_values(self) -> tuple[bytes, bytes, bytes]:
        platform = self.platform
        target = platform.target
        x = platform.apply_p(self._need("secret"), self._need("v_prev"))
        c_inv = platform.acting.invert_p(self._need("c_right"))
        y = platform.apply_p(c_inv, self._need("w_next"))
        z = target.compose_p(target.invert_p(x), y)
        self._write_once("x", x)
        self._write_once("y", y)
        self._write_once("z", z)
        return x, y, z

    def compute_key(self) -> bytes:
        ladder = key_ladder(self.platform, self._need("x"), self._need("z_all"), self.index)
        # 1..n rotated back by index - 1: cycle_step applied index - 1 times
        order = [wrap(k - self.index + 1, self.n) for k in range(1, self.n + 1)]
        target = self.platform.target
        key = ladder[order[0] - 1]
        for k in order[1:]:
            key = target.compose_p(key, ladder[k - 1])
        return key


def key_ladder(
    platform: GroupAction, x: bytes, z_all: Sequence[bytes], index: int
) -> list[bytes]:
    """The accumulating values party ``index`` folds into its key: the first
    is X_i, and each next one multiplies in the broadcast value of the next
    party around the cycle."""
    n = len(z_all)
    target = platform.target
    ladder = [x]
    for k in range(1, n):
        ladder.append(target.compose_p(ladder[-1], z_all[wrap(index + k - 1, n) - 1]))
    return ladder


def oracle_key(platform: GroupAction, secrets: Sequence[GroupElement | bytes]) -> GroupElement:
    """Closed-form reference key: the ordered product of the n link values
    apply(h_{k} . h_{k-1}, g) with indices wrapping. Independent of the
    round/ladder machinery; used as the test oracle for sessions."""
    n = len(secrets)
    if n < 3:
        raise RegimeError(f"party count {n} < 3")
    hs = [s.payload if isinstance(s, GroupElement) else s for s in secrets]
    acting, target = platform.acting, platform.target
    links = [
        platform.apply_p(acting.compose_p(hs[k], hs[k - 1]), platform.base_p) for k in range(n)
    ]
    key = links[0]
    for link in links[1:]:
        key = target.compose_p(key, link)
    return target.wrap(key)


PairKeySource = Callable[[GroupAction, int, Random], list[bytes]]


def uniform_pair_keys(platform: GroupAction, n: int, rng: Random) -> list[bytes]:
    """Default round-1 stand-in: each neighboring pair shares a fresh uniform
    element of the acting group, drawn from the session RNG."""
    return [platform.acting.sample_p(rng) for _ in range(n)]


@dataclass
class SessionConfig:
    platform: GroupAction
    n: int
    rng_seed: int
    pair_key_source: PairKeySource = uniform_pair_keys


@dataclass
class SessionInternals:
    """Hidden per-run values kept for white-box assertions."""

    secrets: tuple[bytes, ...]
    pair_keys: tuple[bytes, ...]
    x: tuple[bytes, ...]
    y: tuple[bytes, ...]


@dataclass
class SessionResult:
    transcript: Transcript
    records: tuple[SessionRecord, ...]
    keys: tuple[GroupElement, ...]
    internals: SessionInternals


def run_session(config: SessionConfig) -> SessionResult:
    """Execute one full run over fresh parties with a deterministic schedule:
    all of round r is delivered before any round r+1 computation starts."""
    platform, n = config.platform, config.n
    if n < 3:
        raise RegimeError(f"party count {n} < 3 (pair keys and the key ordering degenerate)")
    rng = Random(config.rng_seed)
    secrets = [platform.acting.sample_p(rng) for _ in range(n)]
    pair_keys = config.pair_key_source(platform, n, rng)
    if len(pair_keys) != n:
        raise ProtocolStateError(f"pair-key source produced {len(pair_keys)} keys, wanted {n}")

    parties = [PartyState(platform, i + 1, n) for i in range(n)]
    for i, party in enumerate(parties):
        party.set_pair_keys(pair_keys[i - 1], pair_keys[i])
        party.set_secret(secrets[i])

    vs = [party.round2_message() for party in parties]
    for i, party in enumerate(parties):
        party.receive_round2(vs[i - 1], vs[(i + 1) % n])

    ws = [party.round3_message() for party in parties]
    for i, party in enumerate(parties):
        party.receive_round3(ws[(i + 1) % n])

    round4 = [party.round4_values() for party in parties]
    zs = [z for _, _, z in round4]
    for party in parties:
        party.receive_round4(zs)

    transcript = Transcript(platform.tag, n, tuple(vs), tuple(ws), tuple(zs))
    sid = transcript.sid
    pid = tuple(f"U{i + 1}" for i in range(n))
    keys = tuple(platform.target.wrap(party.compute_key()) for party in parties)
    records = tuple(
        SessionRecord(pid=pid, sid=sid, sk=key, acc=True, term=True, used=True) for key in keys
    )
    internals = SessionInternals(
        secrets=tuple(secrets),
        pair_keys=tuple(pair_keys),
        x=tuple(x for x, _, _ in round4),
        y=tuple(y for _, y, _ in round4),
    )
    return SessionResult(transcript, records, keys, internals)
