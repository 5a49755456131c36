"""Finite group actions: the pluggable platforms the key exchange runs over.

An action binds an acting group (H, .) to a target group (G, *) with a base
point g in G and a map apply: H x G -> G satisfying apply(e, x) = x and
apply(h2, apply(h1, x)) = apply(h2 . h1, x).

For the sandwich-style constructions (conjugation h^-1 x h, twisted
conjugacy h^-1 x t(h), right translation x j) the acting group is the
opposite group of the chosen subgroup, which is exactly what makes the
second axiom hold with composition on the left.
"""

from __future__ import annotations

import functools
import itertools
from random import Random
from typing import Callable

import numpy as np

from .errors import EnumerationCapError, ForeignElementError, PlatformValidationError
from .groups import (
    ENUMERATION_CAP,
    FiniteGroup,
    GroupElement,
    GroupTable,
    ModCyclicGroup,
    ProductGroup,
    UnitsModGroup,
)

VALIDATION_TRIPLES = 10_000


class ActionTables:
    """A platform by element index: kept as ``GroupAction.tables`` by
    tabulable platforms, and built by ``validate()`` for its exhaustive check
    of a small platform that is not tabulable.

    ``H`` and ``G`` are the acting and target groups' ``GroupTable``s,
    ``base`` is the index of the base point, and ``act[h, x]`` the index of
    apply(h, x); ``act_flat[h * |G| + x]`` reads it one entry at a time.
    Below VALIDATION_TRIPLES entries, or on a platform that is not tabulable,
    the table applies every acting element to every target element once
    (``from_factors`` is False), and raises PlatformValidationError if an
    image is not in the target. Larger tabulable sandwich actions,
    apply(h, x) = l(h) * x * r(h), read it from the target's product table
    instead (``from_factors`` is True), and ``validate()`` compares
    ``apply_p`` with it on sampled entries.
    """

    def __init__(self, action: "GroupAction"):
        self.H: GroupTable = action.acting.table
        self.G: GroupTable = action.target.table
        self.base = self.G.index[action.base_p]
        index = self.G.index
        factors = None
        if action.tabulable and self.H.order * self.G.order > VALIDATION_TRIPLES:
            factors = action._sandwich_factors()
        self.from_factors = factors is not None
        if factors is not None:
            left, right = (np.array([index[p] for p in side], dtype=np.intp) for side in factors)
            mul = self.G.mul
            self.act = mul[mul[left], right[:, None]]
        else:
            apply = action.apply_p
            act = np.array([[index.get(apply(h, x), -1) for x in self.G.elements]
                            for h in self.H.elements], dtype=np.int64)
            if (act < 0).any():
                raise PlatformValidationError(f"{action.tag}: an image leaves the target group")
            self.act = act.astype(self.G.dtype)
        self.act.flags.writeable = False
        self.act_flat = memoryview(self.act.reshape(-1))

    @functools.cached_property
    def mul_rows(self) -> list[memoryview]:
        """Row t of the target's product table: ``mul_rows[t][b]`` is the
        index of t * b, a slice of ``G.mul_flat`` (no copy)."""
        flat, ng = self.G.mul_flat, self.G.order
        return [flat[t:t + ng] for t in range(0, ng * ng, ng)]

    @functools.cached_property
    def fiber_columns(self) -> list[memoryview]:
        """Column w of the fiber counts: ``fiber_columns[w][x]`` is how many
        acting elements move x to w, a strided view of one count matrix."""
        ng = self.G.order
        cells = self.act + np.arange(ng, dtype=np.int64) * ng  # x * |G| + apply(h, x)
        counts = np.bincount(cells.ravel(), minlength=ng * ng).reshape(ng, ng)
        counts.flags.writeable = False
        return [memoryview(counts[:, w]) for w in range(ng)]


class GroupAction:
    """Base class for a left action of ``acting`` on ``target``'s elements.

    A platform is tabulable when the order of each group squared is within
    ENUMERATION_CAP, so that every integer table (the action, and both
    groups' products) fits the cap; every preset is.
    """

    tag: str
    acting: FiniteGroup
    target: FiniteGroup
    base_p: bytes
    commutative: bool = False

    def __init__(self, tag: str, acting: FiniteGroup, target: FiniteGroup, base_p: bytes):
        if not isinstance(tag, str):  # it is hashed into every session id
            raise PlatformValidationError(f"platform tag must be a string, not {tag!r}")
        self.tag = tag
        self.acting = acting
        self.target = target
        self.base_p = base_p
        self.descriptor: dict = {}
        self.tabulable = max(acting.order, target.order) ** 2 <= ENUMERATION_CAP

    @functools.cached_property
    def tables(self) -> ActionTables:
        """The platform's integer tables, built on first use and kept."""
        if not self.tabulable:
            raise EnumerationCapError(
                f"{self.tag}: |H| = {self.acting.order} or |G| = {self.target.order} "
                f"squared exceeds the cap {ENUMERATION_CAP}"
            )
        return ActionTables(self)

    @functools.cached_property
    def _element_ops(self) -> "_ByteOps | _IndexOps":
        """The platform's element-ops backend, built on first use and kept."""
        return _IndexOps(self) if self.tabulable else _ByteOps(self)

    @functools.cached_property
    def _batch_ops(self) -> "_BatchOps":
        """The batch backend, built on first use and kept; it needs the
        tables, so a platform that is not tabulable raises
        EnumerationCapError."""
        return _BatchOps(self)

    # -- payload level -----------------------------------------------------

    def apply_p(self, h: bytes, x: bytes) -> bytes:
        raise NotImplementedError

    def _sandwich_factors(self) -> tuple[list[bytes], list[bytes]] | None:
        """For an action of the form apply(h, x) = l(h) * x * r(h): the target
        payloads l(h) and r(h) of every acting element, in
        ``acting.elements_p()`` order; None for any other action. A subclass
        that overrides ``apply_p`` overrides this to match."""
        return None

    @property
    def base(self) -> GroupElement:
        return self.target.wrap(self.base_p)

    # -- element level -------------------------------------------------------

    def act(self, h: GroupElement, x: GroupElement) -> GroupElement:
        hp = self.acting.check(h)
        xp = self.target.check(x)
        return self.target.wrap(self.apply_p(hp, xp))

    def orbit(self, x: GroupElement) -> frozenset[GroupElement]:
        t, xi = self.tables, self.tables.G.index[self.target.check(x)]
        return frozenset(self.target.wrap(t.G.elements[y]) for y in np.unique(t.act[:, xi]))

    def stabilizer(self, x: GroupElement) -> frozenset[GroupElement]:
        t, xi = self.tables, self.tables.G.index[self.target.check(x)]
        fixes = t.act[:, xi] == xi
        return frozenset(map(self.acting.wrap, itertools.compress(t.H.elements, fixes)))

    def base_stabilizer_p(self) -> frozenset[bytes]:
        """The acting elements that fix the base point, read off the action
        table's base column."""
        t = self.tables
        return frozenset(itertools.compress(t.H.elements, t.act[:, t.base] == t.base))

    # -- validation ------------------------------------------------------------

    def validate(self, rng: Random | None = None) -> None:
        """Check the two action axioms; raises PlatformValidationError on the
        first violation.

        A tabulable platform, or one of at most VALIDATION_TRIPLES entries, is
        checked exhaustively over its action table: the identity row, then
        apply(s, apply(h, x)) = apply(s . h, x) for every h and x and each s
        of a generating set of H. Every acting element is a product of
        generators, so by induction this covers every h2 in place of s.
        Where the table was read off the sandwich factors instead of built
        from ``apply_p``, ``apply_p`` is compared with it on
        VALIDATION_TRIPLES distinct entries drawn from ``rng``. Only a
        platform too large to tabulate is checked on VALIDATION_TRIPLES
        sampled triples of ``apply_p`` calls instead."""
        H, G = self.acting, self.target
        rng = rng or Random(0xA11)
        if self.tabulable or H.order * G.order <= VALIDATION_TRIPLES:
            # needs only the action table and H's products, never G's
            t = self.tables if self.tabulable else ActionTables(self)
            act = t.act
            if not np.array_equal(act[t.H.identity], np.arange(t.G.order)):
                raise PlatformValidationError(f"{self.tag}: identity axiom fails")
            mul = t.H.mul
            for s in _generating_set(t.H):
                # row h, column x: apply(s, apply(h, x)) against apply(s . h, x)
                if not np.array_equal(act[s][act], act[mul[s]]):
                    raise PlatformValidationError(f"{self.tag}: compatibility axiom fails")
            if t.from_factors:
                apply, hs, xs, index = self.apply_p, t.H.elements, t.G.elements, t.G.index
                ng, act_flat = t.G.order, t.act_flat
                for e in rng.sample(range(t.H.order * ng), VALIDATION_TRIPLES):
                    h, x = divmod(e, ng)
                    if index.get(apply(hs[h], xs[x])) != act_flat[e]:
                        raise PlatformValidationError(
                            f"{self.tag}: apply_p disagrees with the action table")
        else:
            for _ in range(VALIDATION_TRIPLES):
                h1 = H.sample_p(rng)
                h2 = H.sample_p(rng)
                x = G.sample_p(rng)
                if self.apply_p(H.identity_p, x) != x:
                    raise PlatformValidationError(f"{self.tag}: identity axiom fails")
                if self.apply_p(h2, self.apply_p(h1, x)) != self.apply_p(
                    H.compose_p(h2, h1), x
                ):
                    raise PlatformValidationError(f"{self.tag}: compatibility axiom fails")

    def __repr__(self):
        return f"<{type(self).__name__} {self.tag}>"


def _generating_set(H: GroupTable) -> list[int]:
    """Indices of a generating set of H, picked greedily from its product
    table: each pick is the first element outside the subgroup the earlier
    picks generate, so each at least doubles that subgroup, and there are at
    most log2 |H| picks."""
    mul, gens = H.mul, []
    reached = np.zeros(H.order, dtype=bool)
    reached[H.identity] = True
    while not reached.all():
        gens.append(int(reached.argmin()))
        # close the subgroup reached so far under right products with the picks
        frontier, picks = np.flatnonzero(reached), np.array(gens)
        while frontier.size:
            before = reached.copy()
            reached[mul[frontier[:, None], picks]] = True
            frontier = np.flatnonzero(reached > before)
    return gens


# -- element operations ------------------------------------------------------------
#
# The samplers and the protocol are each written once over an element-ops
# backend: draws from the two groups, products, inverses, the action, the
# folds of the key pass (a prefix-product ``scan`` and an ordered ``prod``),
# and the conversions between payloads and elements. On tabulable platforms the
# elements are indices into the platform's tables; otherwise they are the
# payloads themselves. Both per-trial backends draw from a Random exactly as
# the groups' sample_p do, so a seed gives the same bytes on either. A batch
# backend runs the samplers once over whole IndexStream batches: its elements
# are arrays of indices, one entry per trial.


def _records():
    """The record types the backends build; imported when a backend is
    built, since their modules import this one."""
    from .protocol import Transcript
    from .security_lab import DdhGaTuple, DistributionSample

    return Transcript, DistributionSample, DdhGaTuple


class _TrialOps:
    """What the two per-trial backends share: one sample per call, drawn from
    a Random."""

    platform: GroupAction

    def __init__(self, platform: GroupAction):
        self.platform = platform
        self._transcript, self._sample, self._tuple = _records()

    def draw_h_outside(self, rng: Random, points: tuple):
        """An acting element that moves the base point outside ``points``:
        draw until one does."""
        act, g, draw = self.act, self.g, self.draw_h
        h = draw(rng)
        while act(h, g) in points:
            h = draw(rng)
        return h

    def ddh_tuple(self, x, y, z, r, kind: str):
        act, g, wrap = self.act, self.g, self.platform.target.wrap
        t1, t2, t3, t4 = (wrap(self.g_bytes(act(w, g))) for w in (x, y, z, r))
        return self._tuple(t1, t2, t3, t4, kind, self.h_tuple((x, y, z, r)))

    def sample(self, n: int, vs, ws, zs, sk, internals: dict):
        g_tuple = self.g_tuple
        transcript = self._transcript(self.platform.tag, n, g_tuple(vs), g_tuple(ws),
                                      g_tuple(zs))
        return self._sample(transcript, self.platform.target.wrap(self.g_bytes(sk)), internals)


class _ByteOps(_TrialOps):
    """Element operations on payloads: the reference path, and the only one
    for platforms too large to tabulate. ``from_h`` and ``from_g`` raise
    ForeignElementError for a payload outside the group, through its
    ``contains_p``."""

    def __init__(self, platform: GroupAction):
        super().__init__(platform)
        H, G = platform.acting, platform.target
        self.g = platform.base_p
        self.draw_h, self.draw_g = H.sample_p, G.sample_p
        self.hmul, self.hinv = H.compose_p, H.invert_p
        self.gmul, self.ginv = G.compose_p, G.invert_p
        self.scan, self.prod = G.scan_p, G.prod_p
        self.act = platform.apply_p

    @staticmethod
    def h_tuple(elements) -> tuple[bytes, ...]:
        return tuple(elements)

    g_tuple = h_tuple

    def from_h(self, payloads) -> list[bytes]:
        return _members(self.platform.acting, payloads)

    def from_g(self, payloads) -> list[bytes]:
        return _members(self.platform.target, payloads)

    @staticmethod
    def g_bytes(element: bytes) -> bytes:
        return element


class _IndexOps(_TrialOps):
    """Element operations on indices, over the platform's tables. ``from_h``
    and ``from_g`` raise ForeignElementError for a payload outside the group."""

    def __init__(self, platform: GroupAction):
        super().__init__(platform)
        t = platform.tables
        H, G = t.H, t.G
        self.g = t.base
        self.draw_h, self.draw_g = H.draw, G.draw
        self._h, self._nh = H, H.order  # H's tables are built when first used
        self._h_el, self._g_el = H.elements, G.elements
        self._h_index, self._g_index = H.index, G.index
        self._ginv, self._ng, self._gid = G.inv, G.order, G.identity
        self._act = t.act_flat
        self._gmul_flat = mul = G.mul_flat
        ng = G.order
        # one product per party in round 4 and per link in the samplers; a
        # closure reads no attributes per call
        self.gmul = lambda a, b: mul[a * ng + b]

    # the folds of the key pass, one inline loop over the product table each

    def scan(self, x: int, seq) -> list[int]:
        """The prefix products of ``seq`` after x: [x, x.s0, x.s0.s1, ...]."""
        mul, ng = self._gmul_flat, self._ng
        out = [x]
        append = out.append
        for s in seq:
            x = mul[x * ng + s]
            append(x)
        return out

    def prod(self, seq) -> int:
        """The ordered product s0.s1...; the identity when ``seq`` is empty."""
        mul, ng = self._gmul_flat, self._ng
        it = iter(seq)
        x = next(it, self._gid)
        for s in it:
            x = mul[x * ng + s]
        return x

    def hmul(self, a: int, b: int) -> int:
        return self._h.mul_flat[a * self._nh + b]

    def hinv(self, a: int) -> int:
        return self._h.inv[a]

    def ginv(self, a: int) -> int:
        return self._ginv[a]

    def act(self, h: int, x: int) -> int:
        return self._act[h * self._ng + x]

    def h_tuple(self, elements) -> tuple[bytes, ...]:
        return tuple(map(self._h_el.__getitem__, elements))

    def g_tuple(self, elements) -> tuple[bytes, ...]:
        return tuple(map(self._g_el.__getitem__, elements))

    def g_bytes(self, element: int) -> bytes:
        return self._g_el[element]

    def from_h(self, payloads) -> list[int]:
        return _indices(self._h_index, self.platform.acting, payloads)

    def from_g(self, payloads) -> list[int]:
        return _indices(self._g_index, self.platform.target, payloads)


class IndexStream:
    """A batch of ``trials`` independent draws from one PCG64 stream.

    Passed to a sampler in place of a ``Random``, it makes the sampler run
    once over the whole batch (``_BatchOps``): every element is a (trials,)
    array of table indices, and trial t is entry t of each. Each draw takes
    the next ``integers`` block of the stream, uniform over the group's
    indices in its table's dtype."""

    def __init__(self, seed: int, trials: int):
        self.trials = trials
        self.generator = np.random.Generator(np.random.PCG64(seed))


class _BatchOps:
    """Element operations on index arrays, one entry per trial of an
    IndexStream: the lookups of ``_IndexOps``, made by numpy over a whole
    batch."""

    def __init__(self, platform: GroupAction):
        t = platform.tables
        self.platform = platform
        self.g = t.base
        self._H, self._G, self._act = t.H, t.G, t.act
        self._tuple = _records()[2]

    def draw_h(self, stream: IndexStream, rows=None) -> np.ndarray:
        """One uniform index per trial, or per entry of ``rows`` when given."""
        return self._draw(stream, self._H, rows)

    def draw_g(self, stream: IndexStream, rows=None) -> np.ndarray:
        return self._draw(stream, self._G, rows)

    @staticmethod
    def _draw(stream: IndexStream, table: GroupTable, rows) -> np.ndarray:
        size = stream.trials if rows is None else len(rows)
        return stream.generator.integers(table.order, size=size, dtype=table.dtype)

    def act(self, h, x) -> np.ndarray:
        return self._act[h, x]

    def hmul(self, a, b) -> np.ndarray:
        return self._H.mul[a, b]

    def hinv(self, a) -> np.ndarray:
        return np.asarray(self._H.inv)[a]

    def gmul(self, a, b) -> np.ndarray:
        return self._G.mul[a, b]

    def prod(self, seq) -> np.ndarray:
        """The ordered product of a non-empty ``seq``, one lookup per link."""
        return functools.reduce(self.gmul, seq)

    def ginv(self, a) -> np.ndarray:
        return np.asarray(self._G.inv)[a]

    @staticmethod
    def from_h(elements) -> list[np.ndarray]:
        elements = list(elements)
        if not all(isinstance(e, np.ndarray) for e in elements):
            raise ForeignElementError("a batch takes index arrays, not payloads")
        return elements

    h_tuple = g_tuple = staticmethod(tuple)

    def draw_h_outside(self, stream: IndexStream, points: tuple) -> np.ndarray:
        """Per trial, an acting element that moves the base point outside
        that trial's ``points``: the rejected entries are redrawn, in trial
        order, until none is left."""
        a, b = points
        act, g = self._act, self.g
        h = self.draw_h(stream)
        image = act[h, g]
        rows = np.flatnonzero((image == a) | (image == b))
        while rows.size:
            h[rows] = self.draw_h(stream, rows)
            image = act[h[rows], g]
            rows = rows[(image == a[rows]) | (image == b[rows])]
        return h

    def ddh_tuple(self, x, y, z, r, kind: str):
        act, g = self._act, self.g
        return self._tuple(*(act[w, g] for w in (x, y, z, r)), kind, (x, y, z, r))

    @staticmethod
    def sample(n: int, vs, ws, zs, sk, internals: dict) -> np.ndarray:
        """The batch's (trials, 3n + 1) index rows: v, w, Z, then the key."""
        return np.stack([*vs, *ws, *zs, sk], axis=1)


def _foreign(group: FiniteGroup, payload: bytes) -> ForeignElementError:
    return ForeignElementError(f"{payload.hex()} is not an element of {group.tag}")


def _indices(index: dict[bytes, int], group: FiniteGroup, payloads) -> list[int]:
    try:
        return [index[p] for p in payloads]
    except KeyError as exc:
        raise _foreign(group, exc.args[0]) from None


def _members(group: FiniteGroup, payloads) -> list[bytes]:
    payloads = list(payloads)
    for p in payloads:
        if not group.contains_p(p):
            raise _foreign(group, p)
    return payloads


def _ops(platform: GroupAction, rng=None) -> _ByteOps | _IndexOps | _BatchOps:
    """The element-ops backend the samplers and the protocol run on, kept on
    the platform: its batch backend for an IndexStream ``rng``, else its
    own. Tests replace this function to drive both modules on another
    backend."""
    if isinstance(rng, IndexStream):
        return platform._batch_ops
    return platform._element_ops


# -- concrete actions ------------------------------------------------------------


class ExponentAction(GroupAction):
    """x -> x^h on the cyclic subgroup generated by g mod p; h ranges over the
    units mod q, q = order of g. The commutative platform."""

    commutative = True

    def __init__(self, p: int, g: int, q: int, tag: str | None = None):
        target = ModCyclicGroup(p, g, q)
        acting = UnitsModGroup(q)
        super().__init__(tag or f"bd_modp[{p},{g},{q}]", acting, target, target.element(g).payload)
        self.p = p
        self.q = q

    def apply_p(self, h, x):
        return pow(int.from_bytes(x, "big"), int.from_bytes(h, "big"), self.p).to_bytes(
            self.target.payload_len, "big")


def _require_subgroup(target: FiniteGroup, sub: FiniteGroup, role: str) -> None:
    if target.family is None:
        raise PlatformValidationError(f"{target.tag} is not of a sandwich action's group family")
    if sub.family != target.family:
        raise PlatformValidationError(
            f"{role} group family {sub.family} does not match the target's {target.family}")
    if sub is target:
        return
    if sub.order <= ENUMERATION_CAP:
        for p in sub.elements_p():
            if not target.contains_p(p):
                raise PlatformValidationError(f"{role} is not contained in {target.tag}")


class ConjugationAction(GroupAction):
    """x -> h^-1 x h for h in a subgroup of the target group."""

    def __init__(self, target: FiniteGroup, subgroup: FiniteGroup, base: GroupElement,
                 tag: str | None = None):
        _require_subgroup(target, subgroup, "acting subgroup")
        super().__init__(
            tag or f"conj[{target.tag}:{subgroup.tag}]",
            subgroup.opposite(),
            target,
            target.check(base),
        )
        self._conj = target.conjugate_p

    def apply_p(self, h, x):
        return self._conj(h, x)

    def _sandwich_factors(self):
        hs = self.acting.elements_p()
        return [self.target.invert_p(h) for h in hs], hs


class TwistedConjugacyAction(GroupAction):
    """x -> h^-1 x t(h) for an endomorphism t of the target group."""

    def __init__(
        self,
        target: FiniteGroup,
        subgroup: FiniteGroup,
        base: GroupElement,
        endo: Callable[[bytes], bytes],
        endo_name: str,
        tag: str | None = None,
    ):
        _require_subgroup(target, subgroup, "acting subgroup")
        super().__init__(
            tag or f"twist[{target.tag}:{subgroup.tag}:{endo_name}]",
            subgroup.opposite(),
            target,
            target.check(base),
        )
        self.endo_name = endo_name
        # precompute images over the (enumerable) acting subgroup and check
        # multiplicativity there, which is all the action ever evaluates
        members = subgroup.elements_p()
        self._endo = {h: endo(h) for h in members}
        for img in self._endo.values():
            if not target.contains_p(img):
                raise PlatformValidationError("endomorphism image leaves the target group")
        if not self._multiplicative(subgroup, target):
            raise PlatformValidationError("endomorphism is not multiplicative")
        self._twist = target.twisted_p

    def _multiplicative(self, subgroup: FiniteGroup, target: FiniteGroup) -> bool:
        """Whether the images respect the subgroup's products: over both
        groups' product tables on a tabulable platform with more than
        VALIDATION_TRIPLES pairs (whose action tables build the target's
        products anyway), else on every pair of a subgroup of order at most
        1000, else on sampled pairs."""
        endo = self._endo
        if self.tabulable and subgroup.order * target.order > VALIDATION_TRIPLES:
            S, G = subgroup.table, target.table
            # e[s]: the target index of the image of subgroup element s
            e = np.array([G.index[endo[h]] for h in S.elements], dtype=np.intp)
            return np.array_equal(e[S.mul], G.mul[e[:, None], e[None, :]])
        members = subgroup.elements_p()
        if len(members) ** 2 <= ENUMERATION_CAP:
            pairs = itertools.product(members, repeat=2)
        else:
            rng = Random(0xE2D)
            pairs = (
                (subgroup.sample_p(rng), subgroup.sample_p(rng)) for _ in range(VALIDATION_TRIPLES)
            )
        compose_s, compose_t = subgroup.compose_p, target.compose_p
        return all(endo[compose_s(a, b)] == compose_t(endo[a], endo[b]) for a, b in pairs)

    def apply_p(self, h, x):
        return self._twist(h, x, self._endo[h])

    def _sandwich_factors(self):
        hs = self.acting.elements_p()
        return [self.target.invert_p(h) for h in hs], [self._endo[h] for h in hs]


class DoubleCosetAction(GroupAction):
    """x -> h x j for (h, j) in H x J; the two translation actions commute
    (interchange law), so the pair group acts on the target."""

    def __init__(
        self,
        target: FiniteGroup,
        left_sub: FiniteGroup,
        right_sub: FiniteGroup,
        base: GroupElement,
        tag: str | None = None,
    ):
        _require_subgroup(target, left_sub, "left subgroup")
        _require_subgroup(target, right_sub, "right subgroup")
        acting = ProductGroup(left_sub, right_sub.opposite())
        super().__init__(
            tag or f"dcoset[{target.tag}:{left_sub.tag}:{right_sub.tag}]",
            acting,
            target,
            target.check(base),
        )
        self.left_sub = left_sub
        self.right_sub = right_sub
        self._cut = left_sub.payload_len
        self._sandwich = target.sandwich_p

    def apply_p(self, hj, x):
        return self._sandwich(hj[: self._cut], x, hj[self._cut :])

    def _sandwich_factors(self):
        hjs, cut = self.acting.elements_p(), self._cut
        return [hj[:cut] for hj in hjs], [hj[cut:] for hj in hjs]

    def pair(self, h: GroupElement, j: GroupElement) -> GroupElement:
        """Bundle one element of each subgroup into an acting-group element."""
        return self.acting.wrap(self.left_sub.check(h) + self.right_sub.check(j))


def double_act(
    action: DoubleCosetAction, h: GroupElement, j: GroupElement, x: GroupElement
) -> GroupElement:
    return action.act(action.pair(h, j), x)
