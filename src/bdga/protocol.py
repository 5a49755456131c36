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

Each round is one function over elements of the platform's element-ops
backend (``actions._ops``). ``_session_rounds`` calls them for all parties
in one pass, for ``run_session`` and for the oracle game's ``execute``;
``PartyState`` calls them for one party, behind its payload boundary and
its write-once, round-order checks. The key pass, each party's own
ladder and key product (2n(n - 1) products per session, the protocol's only
quadratic work), runs on the backend's two folds: one loop over the product
table on the tables, one kernel of the target group on payloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Sequence

from . import actions
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
    order; reading a missing earlier field raises.

    The methods take and return payloads. Inside, the fields hold elements
    of the platform's element-ops backend (table indices on tabulable
    platforms), converted at each method's boundary. The rounds themselves
    are the module's round functions, the ones ``run_session`` runs over
    every party at once.
    """

    def __init__(self, platform: GroupAction, index: int, n: int):
        if n < 3:
            raise RegimeError(f"party count {n} < 3")
        if not 1 <= index <= n:
            raise ProtocolStateError(f"party index {index} outside 1..{n}")
        self.platform = platform
        self.index = index
        self.n = n
        self._ops = actions._ops(platform)
        self.secret = None
        self.c_left = None
        self.c_right = None
        self.v_prev = None
        self.v_next = None
        self.w_next = None
        self.x = None
        self.y = None
        self.z = None
        self.z_all = None

    def _need(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ProtocolStateError(f"party {self.index}: {name} not available yet")
        return value

    def _write_once(self, **fields) -> None:
        for name, value in fields.items():
            if getattr(self, name) is not None:
                raise ProtocolStateError(f"party {self.index}: {name} already set")
            setattr(self, name, value)

    # -- round 1/2 inputs ---------------------------------------------------

    def set_pair_keys(self, left: bytes, right: bytes) -> None:
        left, right = self._ops.from_h((left, right))
        self._write_once(c_left=left, c_right=right)

    def set_secret(self, h: bytes) -> None:
        (h,) = self._ops.from_h((h,))
        self._write_once(secret=h)

    def receive_round2(self, v_prev: bytes, v_next: bytes) -> None:
        v_prev, v_next = self._ops.from_g((v_prev, v_next))
        self._write_once(v_prev=v_prev, v_next=v_next)

    def receive_round3(self, w_next: bytes) -> None:
        (w_next,) = self._ops.from_g((w_next,))
        self._write_once(w_next=w_next)

    def receive_round4(self, z_all: Sequence[bytes]) -> None:
        if len(z_all) != self.n:
            raise ProtocolStateError(f"expected {self.n} broadcast values, got {len(z_all)}")
        self._write_once(z_all=tuple(self._ops.from_g(z_all)))

    # -- round outputs ---------------------------------------------------------

    def round2_message(self) -> bytes:
        ops = self._ops
        return ops.g_bytes(_round2(ops, self._need("secret")))

    def round3_message(self) -> bytes:
        ops, need = self._ops, self._need
        return ops.g_bytes(_round3(ops, need("c_left"), need("secret"), need("v_prev")))

    def round4_values(self) -> tuple[bytes, bytes, bytes]:
        ops, need = self._ops, self._need
        x, y, z = _round4(ops, need("secret"), need("v_prev"), need("c_right"), need("w_next"))
        self._write_once(x=x, y=y, z=z)
        return ops.g_tuple((x, y, z))

    def compute_key(self) -> bytes:
        ops = self._ops
        return ops.g_bytes(_party_key(ops, self._need("x"), self._need("z_all"), self.index))


# -- the rounds of the module docstring on backend elements, each written once --


def _round2(ops, h):
    return ops.act(h, ops.g)


def _round3(ops, c_left, h, v_prev):
    return ops.act(ops.hmul(c_left, h), v_prev)


def _round4(ops, h, v_prev, c_right, w_next) -> tuple:
    x = ops.act(h, v_prev)
    y = ops.act(ops.hinv(c_right), w_next)
    return x, y, ops.gmul(ops.ginv(x), y)


def _party_key(ops, x, z_all: Sequence, index: int):
    """Party ``index``'s key from its own X_i and the n broadcasts: its ladder
    (a prefix-product scan) multiplied out (an ordered product) in the order
    of 1..n rotated back by index - 1 (cycle_step applied index - 1 times).
    The two folds are the backend's: one loop each over the product table,
    or the target group's fold kernels on payloads."""
    return ops.prod(_rotated(_ladder(ops, x, z_all, index), 1 - index))


def _rotated(seq: Sequence, shift: int) -> Sequence:
    """``seq`` cyclically rotated to start at position ``shift`` mod its length."""
    k = shift % len(seq)
    return seq[k:] + seq[:k]


def _ladder(ops, x, z_all: Sequence, index: int) -> list:
    # the broadcasts from party index's own onwards, folded into X_i
    return ops.scan(x, _rotated(z_all, index - 1)[:-1])


def key_ladder(
    platform: GroupAction, x: bytes, z_all: Sequence[bytes], index: int
) -> list[bytes]:
    """The accumulating values party ``index`` folds into its key: the first
    is X_i, and each next one multiplies in the broadcast value of the next
    party around the cycle. Fewer than three broadcasts, or an index outside
    1..n, raise ProtocolStateError, as PartyState does."""
    n = len(z_all)
    if n < 3:
        raise ProtocolStateError(f"expected n >= 3 broadcast values, got {n}")
    if not 1 <= index <= n:
        raise ProtocolStateError(f"party index {index} outside 1..{n}")
    ops = actions._ops(platform)
    (x,) = ops.from_g((x,))
    return list(ops.g_tuple(_ladder(ops, x, ops.from_g(z_all), index)))


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


@dataclass
class SessionConfig:
    platform: GroupAction
    n: int
    rng_seed: int


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


def _session_rounds(ops, n: int, rng: Random):
    """Rounds 1-4 for all n parties at once, on backend elements: the n
    secrets, then the n pair keys (round 1's stand-in: each neighboring pair
    shares a uniform acting element), drawn from ``rng``; then every party's
    v, w and (X, Y, Z). Returns (secrets, pair_keys, vs, ws, xs, ys, zs).
    ``run_session`` and the oracle game's ``execute`` both run a session
    through this."""
    draw_h = ops.draw_h
    secrets = [draw_h(rng) for _ in range(n)]
    pair_keys = [draw_h(rng) for _ in range(n)]
    # party i's neighbors' values: c_{i-1}, v_{i-1}, w_{i+1}
    vs = [_round2(ops, h) for h in secrets]
    v_prev = _rotated(vs, -1)
    ws = [_round3(ops, c, h, v) for c, h, v in zip(_rotated(pair_keys, -1), secrets, v_prev)]
    xs, ys, zs = zip(*(
        _round4(ops, h, v, c, w)
        for h, v, c, w in zip(secrets, v_prev, pair_keys, _rotated(ws, 1))
    ))
    return secrets, pair_keys, vs, ws, xs, ys, zs


def run_session(config: SessionConfig) -> SessionResult:
    """Execute one full run over fresh parties with a deterministic schedule:
    all of round r is delivered before any round r+1 computation starts.
    Each round is computed for every party at once, on the platform's
    element-ops backend; each key is computed per party, from its own X_i
    and the broadcasts, with no ladder shared between parties."""
    platform, n = config.platform, config.n
    if n < 3:
        raise RegimeError(f"party count {n} < 3 (pair keys and the key ordering degenerate)")
    ops = actions._ops(platform)
    secrets, pair_keys, vs, ws, xs, ys, zs = _session_rounds(ops, n, Random(config.rng_seed))

    g_tuple, g_bytes, wrap_g = ops.g_tuple, ops.g_bytes, platform.target.wrap
    transcript = Transcript(platform.tag, n, g_tuple(vs), g_tuple(ws), g_tuple(zs))
    sid = transcript.sid
    pid = tuple(f"U{i + 1}" for i in range(n))
    keys = tuple(wrap_g(g_bytes(_party_key(ops, x, zs, i))) for i, x in enumerate(xs, 1))
    records = tuple(
        SessionRecord(pid=pid, sid=sid, sk=key, acc=True, term=True, used=True) for key in keys
    )
    internals = SessionInternals(
        secrets=ops.h_tuple(secrets),
        pair_keys=ops.h_tuple(pair_keys),
        x=g_tuple(xs),
        y=g_tuple(ys),
    )
    return SessionResult(transcript, records, keys, internals)
