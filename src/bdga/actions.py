"""Finite group actions: the pluggable platforms the key exchange runs over.

An action binds an acting group (H, .) to a target group (G, *) with a base
point g in G and a map apply: H x G -> G satisfying apply(e, x) = x and
apply(h2, apply(h1, x)) = apply(h2 . h1, x).

The sandwich constructions are written in one form,
apply(h, x) = a(h)^-1 x r(h), from the maps ``_sandwich_maps(h) = (a(h), r(h))``:
(h, h) for conjugation, (h, t(h)) for twisted conjugacy and (h^-1, j) for
a double coset. Their acting group is the opposite group of the chosen
subgroup (for a double coset, of the right one), which is exactly what
makes the second axiom hold with composition on the left. The maps drive
``apply_p``, the action table and ``validate()`` alike.
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
    GL2Group,
    GroupElement,
    GroupTable,
    ModCyclicGroup,
    ProductGroup,
    SymmetricGroup,
    UnitsModGroup,
)

class ActionTables:
    """A tabulable platform by element index, kept as ``GroupAction.tables``.

    ``H`` and ``G`` are the acting and target groups' ``GroupTable``s,
    ``base`` is the index of the base point, and ``act[h, x]`` the index of
    apply(h, x); ``act_flat[h * |G| + x]`` reads it one entry at a time.
    A sandwich action, apply(h, x) = a(h)^-1 * x * r(h), reads the table off
    its ``_sandwich_maps``, the maps its ``apply_p`` runs on, and the
    target's inverse and product tables: one maps call per acting element.
    Any other action applies every acting element to every target element
    once. Either way a map value or image outside the target raises
    PlatformValidationError.
    """

    def __init__(self, action: "GroupAction"):
        self.H: GroupTable = action.acting.table
        self.G: GroupTable = action.target.table
        self.base = self.G.index[action.base_p]
        index, maps = self.G.index, action._sandwich_maps

        def indices(payloads) -> np.ndarray:
            found = np.array([index.get(p, -1) for p in payloads], dtype=np.intp)
            if (found < 0).any():
                raise PlatformValidationError(f"{action.tag}: an image leaves the target group")
            return found

        if maps is not None:
            a, r = map(indices, zip(*map(maps, self.H.elements)))
            mul = self.G.mul
            self.act = mul[mul[np.asarray(self.G.inv)[a]], r[:, None]]
        else:
            apply = action.apply_p
            images = indices(apply(h, x) for h in self.H.elements for x in self.G.elements)
            self.act = images.reshape(self.H.order, self.G.order).astype(self.G.dtype)
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

    # For a sandwich action, apply(h, x) = a(h)^-1 * x * r(h): the method
    # ``_sandwich_maps(h)`` returns the target payloads (a(h), r(h)), and the
    # class's ``apply_p`` runs its family's ``twisted_p`` on them. It is None
    # for any other action. Each sandwich class defines ``apply_p`` in its
    # own body, so that a profile (perfbench's tracer) times it per class.
    _sandwich_maps: Callable[[bytes], tuple[bytes, bytes]] | None = None

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

        A tabulable platform is checked exhaustively over its action table:
        the identity row, then apply(s, apply(h, x)) = apply(s . h, x) for
        every h and x and each s of a generating set of H. Every acting
        element is a product of generators, so by induction this covers
        every h2 in place of s. A sandwich action's table is read off its
        maps, so this checks the maps its ``apply_p`` runs on, and no
        ``apply_p`` call is made.

        A platform too large to tabulate is checked by ``_validate_exact``,
        from ``rng``. A sandwich action, apply(h, x) = a(h)^-1 x r(h), meets
        both axioms when its maps meet three identities under H's own
        product: a(e) = r(e) = e gives apply(e, x) = x, and
        a(b . c) = a(c) a(b) with r(b . c) = r(c) r(b) gives
        apply(b, apply(c, x)) = a(b)^-1 a(c)^-1 x r(c) r(b)
        = a(b . c)^-1 x r(b . c) = apply(b . c, x). Conjugation: H = K^op,
        a(h) = r(h) = h, b . c = cb. Twisted conjugacy: a(h) = h and r = t,
        multiplicative (a table by ``extend_homomorphism``, transpose-inverse
        by algebra, else ``_multiplicative``). Double coset: H = L x R^op,
        a(h, j) = h^-1, r(h, j) = j. Images stay in G, as K, L, R and t(K)
        lie in G. The maps are checked against this on the identity and
        three draws of H: a(e) = r(e) = e, every map value lies in G, and
        both identities hold for every pair under ``H.compose_p``."""
        if not self.tabulable:
            return self._validate_exact(rng or Random(0xA11))
        t = self.tables
        act = t.act
        if not np.array_equal(act[t.H.identity], np.arange(t.G.order)):
            raise PlatformValidationError(f"{self.tag}: identity axiom fails")
        mul = t.H.mul
        for s in _generating_set(t.H):
            # row h, column x: apply(s, apply(h, x)) against apply(s . h, x)
            if not np.array_equal(act[s][act], act[mul[s]]):
                raise PlatformValidationError(f"{self.tag}: compatibility axiom fails")

    def _validate_exact(self, rng: Random) -> None:
        """The sandwich check of ``validate()``, made on the maps alone; an
        action of another kind raises PlatformValidationError unless its
        class checks it exactly."""
        maps = self._sandwich_maps
        if maps is None:
            raise PlatformValidationError(
                f"{self.tag}: too large to tabulate, and not an action that can be checked exactly")
        H, G = self.acting, self.target
        e, compose = H.identity_p, G.compose_p
        ar = {h: maps(h) for h in (e, *(H.sample_p(rng) for _ in range(3)))}
        if ar[e] != (G.identity_p, G.identity_p):
            raise PlatformValidationError(f"{self.tag}: identity axiom fails")
        if not all(map(G.contains_p, itertools.chain.from_iterable(ar.values()))):
            raise PlatformValidationError(f"{self.tag}: an image leaves the target group")
        for (b, (ab, rb)), (c, (ac, rc)) in itertools.product(ar.items(), repeat=2):
            if maps(H.compose_p(b, c)) != (compose(ac, ab), compose(rc, rb)):
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
# backend: draws from the two groups, products, inverses, the action, two
# folds (the ordered ``prod`` of the samplers' links, and the protocol's
# ``key``, ``FiniteGroup.key_p``: one party's ladder multiplied out from a
# start position, with no ladder kept), and the conversions between payloads
# and elements. On tabulable platforms the elements are indices into the
# platform's tables; otherwise they are the payloads themselves. Both
# per-trial backends draw from a Random exactly as the groups' sample_p do,
# so a seed gives the same bytes on either. A batch backend runs the samplers
# once over whole IndexStream batches: its elements are arrays of indices,
# one entry per trial.


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
        self.key, self.prod = G.key_p, G.prod_p
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
        self._h_el, self._g_el = H.elements, G.elements
        self._h_index, self._g_index = H.index, G.index
        act, mul, ng, nh = t.act_flat, G.mul_flat, G.order, H.order
        self._gmul_flat, self._ng, self._gid = mul, ng, G.identity
        # the per-element operations are closures over the flat tables, so a
        # call reads no attributes of the backend; H's tables are read
        # through H, as they are built when first used
        self.act = lambda h, x: act[h * ng + x]
        self.gmul = lambda a, b: mul[a * ng + b]
        self.ginv = G.inv.__getitem__
        self.hmul = lambda a, b: H.mul_flat[a * nh + b]
        self.hinv = lambda a: H.inv[a]

    # the two folds over G's product table, one inline loop each

    def key(self, x: int, seq, k: int) -> int:
        """``FiniteGroup.key_p`` on indices: over the ladder L_0 = x,
        L_{j+1} = L_j.seq[j], the product L_k...L_m . L_0...L_{k-1}, from
        two accumulators in one pass."""
        mul, ng = self._gmul_flat, self._ng
        it = iter(seq)
        if k:
            head = x
            for s in itertools.islice(it, k - 1):
                x = mul[x * ng + s]
                head = mul[head * ng + x]
            x = mul[x * ng + next(it)]
        tail = x
        for s in it:
            x = mul[x * ng + s]
            tail = mul[tail * ng + x]
        return mul[tail * ng + head] if k else tail

    def prod(self, seq) -> int:
        """The ordered product s0.s1...; the identity when ``seq`` is empty."""
        mul, ng = self._gmul_flat, self._ng
        it = iter(seq)
        x = next(it, self._gid)
        for s in it:
            x = mul[x * ng + s]
        return x

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
    array of table indices in its table's dtype, and trial t is entry t of
    each; every lookup on them is one flat ``take`` that keeps that dtype.
    Each draw takes the next ``integers`` block of the stream, uniform over
    the group's indices in its table's dtype. A trial count that is not an
    int >= 1, such as True or 2.5, raises ValueError."""

    def __init__(self, seed: int, trials: int):
        if type(trials) is not int or trials < 1:
            raise ValueError(f"trials must be an int >= 1, not {trials!r}")
        self.trials = trials
        self.generator = np.random.Generator(np.random.PCG64(seed))


class _BatchOps:
    """Element operations on index arrays, one entry per trial of an
    IndexStream: the lookups of ``_IndexOps``, made by numpy over a whole
    batch.

    Each lookup is one 1-D ``take`` from a flat table, and its result keeps
    the table's dtype. A binary lookup t[a, b] on a table of row width m
    reads ``flat.take(np.multiply(a, m, dtype=np.intp) + b)``: the flat
    position is formed in intp, so it cannot wrap in the elements' small
    dtype (at |H| = 576, 576^2 > 2^16), and it lives for one call.
    apply(h, g) at the base point reads the action table's base column, and
    an inverse reads the inverse table."""

    def __init__(self, platform: GroupAction):
        t = platform.tables
        H, G = t.H, t.G
        self.platform = platform
        self.g = t.base
        self._H, self._G = H, G
        self._act_flat, self._hmul_flat, self._gmul_flat = (
            table.reshape(-1) for table in (t.act, H.mul, G.mul))
        self._hinv, self._ginv = np.asarray(H.inv), np.asarray(G.inv)
        self._base_column = np.ascontiguousarray(t.act[:, t.base])
        self._nh, self._ng = H.order, G.order
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
        """apply(h, x) per trial, for x the base point's index or an index
        array."""
        if not isinstance(x, np.ndarray) and x == self.g:
            return self._base_column.take(h)
        return self._act_flat.take(np.multiply(h, self._ng, dtype=np.intp) + x)

    def hmul(self, a, b) -> np.ndarray:
        return self._hmul_flat.take(np.multiply(a, self._nh, dtype=np.intp) + b)

    def hinv(self, a) -> np.ndarray:
        return self._hinv.take(a)

    def gmul(self, a, b) -> np.ndarray:
        return self._gmul_flat.take(np.multiply(a, self._ng, dtype=np.intp) + b)

    def prod(self, seq) -> np.ndarray:
        """The ordered product of a non-empty ``seq``, one lookup per link."""
        return functools.reduce(self.gmul, seq)

    def ginv(self, a) -> np.ndarray:
        return self._ginv.take(a)

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
        column = self._base_column
        h = self.draw_h(stream)
        image = column.take(h)
        rows = np.flatnonzero((image == a) | (image == b))
        while rows.size:
            h[rows] = self.draw_h(stream, rows)
            image = column.take(h[rows])
            rows = rows[(image == a[rows]) | (image == b[rows])]
        return h

    def ddh_tuple(self, x, y, z, r, kind: str):
        column = self._base_column
        return self._tuple(*(column.take(w) for w in (x, y, z, r)), kind, (x, y, z, r))

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

    def _validate_exact(self, rng: Random) -> None:
        """An ExponentAction too large to tabulate is checked exactly, by
        arithmetic in the exponent, with no element drawn.

        Its target G = <g> was built with g^q = 1 and g^(q/r) != 1 for every
        prime r dividing q, so |G| = q and x^q = 1 for every x in G: x^a
        depends on a only mod q. When H is the units mod that same q, every
        x in G and all units a, b give apply(1, x) = x^1 = x and
        apply(b, apply(a, x)) = (x^a)^b = x^(ab mod q) = apply(b . a, x),
        since b . a is ab mod q: both axioms hold on all of H x G. This
        re-verifies g^q = 1 and that H's modulus is |G|, then runs
        ``apply_p`` through both axioms at x = g and x = g^2 for a few fixed
        units, so that an ``apply_p`` other than x^h still fails."""
        H, G = self.acting, self.target
        if pow(G.g, G.order, G.p) != 1:
            raise PlatformValidationError(f"{self.tag}: g^{G.order} != 1 mod {G.p}")
        if H.q != G.order:
            raise PlatformValidationError(
                f"{self.tag}: acting modulus {H.q} is not the target's order {G.order}")
        apply, e = self.apply_p, H.identity_p
        units = [u for u in (v.to_bytes(H.payload_len, "big") for v in (1, 2, 3, 5, H.q - 1))
                 if H.contains_p(u)]
        for x in (self.base_p, G.compose_p(self.base_p, self.base_p)):
            if apply(e, x) != x:
                raise PlatformValidationError(f"{self.tag}: identity axiom fails")
            for a, b in itertools.product(units, repeat=2):
                if apply(b, apply(a, x)) != apply(H.compose_p(b, a), x):
                    raise PlatformValidationError(f"{self.tag}: compatibility axiom fails")


def _require_subgroup(target: FiniteGroup, sub: FiniteGroup, role: str) -> None:
    if target.family is None:
        raise PlatformValidationError(f"{target.tag} is not of a sandwich action's group family")
    if sub.family != target.family:
        raise PlatformValidationError(
            f"{role} group family {sub.family} does not match the target's {target.family}")
    if sub is target:
        return
    # exact by Lagrange: a subgroup's order divides the group's order
    if sub.order > target.order:
        raise PlatformValidationError(
            f"{role} of order {sub.order} is not contained in {target.tag} of order {target.order}")
    if sub.order <= ENUMERATION_CAP:
        for p in sub.elements_p():
            if not target.contains_p(p):
                raise PlatformValidationError(f"{role} is not contained in {target.tag}")
    elif not isinstance(sub, (SymmetricGroup, GL2Group)):
        raise PlatformValidationError(f"{role} is too large to check for containment")
    # else sub is its family's full group: it holds the target, whose order
    # is not smaller, so the two are equal


class ConjugationAction(GroupAction):
    """x -> h^-1 x h for h in a subgroup of the target group: the maps
    (h, h)."""

    def __init__(self, target: FiniteGroup, subgroup: FiniteGroup, base: GroupElement,
                 tag: str | None = None):
        _require_subgroup(target, subgroup, "acting subgroup")
        super().__init__(
            tag or f"conj[{target.tag}:{subgroup.tag}]",
            subgroup.opposite(),
            target,
            target.check(base),
        )
        self._twist = target.twisted_p

    def apply_p(self, h, x):
        a, r = self._sandwich_maps(h)
        return self._twist(a, x, r)

    def _sandwich_maps(self, h):
        return h, h


class TwistedConjugacyAction(GroupAction):
    """x -> h^-1 x t(h) for an endomorphism t of the target group: the maps
    (h, t(h))."""

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
        """Whether the images t respect the subgroup's products, exactly and
        with no draw: t(e) = e, and t(b s) = t(b) t(s) for every b and each s
        of a generating set. The set is picked greedily from the payloads,
        each pick outside the subgroup the earlier ones generate, so there
        are at most log2 |S| picks. That subgroup is grown by right products
        with the picks, and each such product b s is checked as it is made:
        every b against every pick once, |picks| |S| products in each group.
        Every element is a product of picks, so by induction on its length
        t(b a) = t(b) t(a) for every pair."""
        endo, compose_s, compose_t = self._endo, subgroup.compose_p, target.compose_p
        if endo[subgroup.identity_p] != target.identity_p:
            return False
        picks, reached = [], {subgroup.identity_p}
        for g in subgroup.elements_p():
            if g in reached:
                continue
            # the reached subgroup times the new pick, then each fresh
            # element times every pick
            picks.append(g)
            frontier, by = list(reached), [g]
            while frontier:
                fresh = []
                for b, s in itertools.product(frontier, by):
                    y = compose_s(b, s)
                    if endo[y] != compose_t(endo[b], endo[s]):
                        return False
                    if y not in reached:
                        reached.add(y)
                        fresh.append(y)
                frontier, by = fresh, picks
        return True

    def apply_p(self, h, x):
        a, r = self._sandwich_maps(h)
        return self._twist(a, x, r)

    def _sandwich_maps(self, h):
        return h, self._endo[h]


class DoubleCosetAction(GroupAction):
    """x -> h x j for (h, j) in H x J; the two translation actions commute
    (interchange law), so the pair group acts on the target: the maps
    (h^-1, j)."""

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
        self._invert, self._twist = target.invert_p, target.twisted_p

    def apply_p(self, hj, x):
        a, r = self._sandwich_maps(hj)
        return self._twist(a, x, r)

    def _sandwich_maps(self, hj):
        return self._invert(hj[: self._cut]), hj[self._cut :]

    def pair(self, h: GroupElement, j: GroupElement) -> GroupElement:
        """Bundle one element of each subgroup into an acting-group element."""
        return self.acting.wrap(self.left_sub.check(h) + self.right_sub.check(j))


def double_act(
    action: DoubleCosetAction, h: GroupElement, j: GroupElement, x: GroupElement
) -> GroupElement:
    return action.act(action.pair(h, j), x)
