"""Finite groups with canonical byte-encoded elements.

Every group fixes a canonical encoding for its elements (permutations as
one-line images over 1..m, one byte per point; 2x2 matrices mod p row-major,
one byte per entry; residues as fixed-width big-endian integers), so element
equality is byte equality and elements are hashable and serializable as hex.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from array import array
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels as kern
from .errors import EnumerationCapError, ForeignElementError, PlatformValidationError

ENUMERATION_CAP = 10**6


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of a specific group: owning-group tag plus canonical bytes."""

    group: str
    payload: bytes

    def hex(self) -> str:
        return self.payload.hex()


class FiniteGroup:
    """Base class: payload-level operations plus element-level wrappers.

    Subclasses implement ``compose_p``, ``invert_p``, ``identity_p``,
    ``order``, ``payload_len``, and ``_enumerate_p`` unless they set
    ``_elements_p`` on construction. A subclass that overrides ``sample_p``
    overrides ``_draw_index`` to match it. The two element families the
    sandwich actions run over, ``_PermBase`` and ``_Mat2Base``, name
    themselves in ``family``; it is None on every other group.
    """

    tag: str
    order: int
    payload_len: int
    identity_p: bytes
    family: tuple[str, int] | None = None

    def __init__(self, tag: str):
        self.tag = tag
        self._elements_p: list[bytes] | None = None
        self._index: dict[bytes, int] | None = None

    # -- payload level -------------------------------------------------

    def compose_p(self, a: bytes, b: bytes) -> bytes:
        raise NotImplementedError

    def invert_p(self, a: bytes) -> bytes:
        raise NotImplementedError

    def _enumerate_p(self) -> list[bytes]:
        raise NotImplementedError

    def elements_p(self) -> list[bytes]:
        if self._elements_p is None:
            if self.order > ENUMERATION_CAP:
                raise EnumerationCapError(
                    f"group {self.tag} has order {self.order} > cap {ENUMERATION_CAP}"
                )
            self._elements_p = self._enumerate_p()
        return self._elements_p

    def _index_map(self) -> dict[bytes, int]:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.elements_p())}
        return self._index

    def index_of(self, payload: bytes) -> int:
        return self._index_map()[payload]

    def contains_p(self, payload: bytes) -> bool:
        return payload in self._index_map()

    def sample_p(self, rng: Random) -> bytes:
        return self.elements_p()[self._draw_index(rng)]

    @functools.cached_property
    def _draw_index(self) -> Callable[[Random], int]:
        """``_draw_index(rng)``: the index of the element ``sample_p(rng)``
        returns, drawing from rng exactly as ``sample_p`` does. Here that is
        ``randrange(order)``, an index into the canonical enumeration."""
        return _rejection_draw((self.order,))

    def key_p(self, x: bytes, seq: Sequence[bytes], k: int) -> bytes:
        """L_k...L_m . L_0...L_{k-1} over the ladder L_0 = x,
        L_{j+1} = L_j.seq[j] (m = len(seq), 0 <= k <= m): two accumulators
        take the ladder values as they grow, 2m products, no ladder kept."""
        compose = self.compose_p
        it = iter(seq)
        if k:
            head = x
            for s in itertools.islice(it, k - 1):
                x = compose(x, s)
                head = compose(head, x)
            x = compose(x, next(it))
        tail = x
        for s in it:
            x = compose(x, s)
            tail = compose(tail, x)
        return compose(tail, head) if k else tail

    def prod_p(self, seq: Iterable[bytes]) -> bytes:
        """The ordered product s0.s1...; the identity when ``seq`` is empty."""
        it = iter(seq)
        return functools.reduce(self.compose_p, it, next(it, self.identity_p))

    def _mul_table(self) -> np.ndarray:
        els, index, compose = self.elements_p(), self._index_map(), self.compose_p
        return np.array([[index[compose(a, b)] for b in els] for a in els])

    @functools.cached_property
    def table(self) -> "GroupTable":
        """The group by element index, built on first use."""
        return GroupTable(self)

    # -- element level ---------------------------------------------------

    def wrap(self, payload: bytes) -> GroupElement:
        return GroupElement(self.tag, payload)

    def check(self, el: GroupElement) -> bytes:
        if el.group != self.tag:
            raise ForeignElementError(f"element of {el.group!r} used with group {self.tag!r}")
        return el.payload

    def identity(self) -> GroupElement:
        return self.wrap(self.identity_p)

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.wrap(self.compose_p(self.check(a), self.check(b)))

    def invert(self, a: GroupElement) -> GroupElement:
        return self.wrap(self.invert_p(self.check(a)))

    def sample(self, rng: Random) -> GroupElement:
        return self.wrap(self.sample_p(rng))

    def elements(self) -> list[GroupElement]:
        return [self.wrap(p) for p in self.elements_p()]

    def element_from_hex(self, hx: str) -> GroupElement:
        payload = bytes.fromhex(hx)
        if not self.contains_p(payload):
            raise ForeignElementError(f"payload {hx!r} is not an element of {self.tag!r}")
        return self.wrap(payload)

    def opposite(self) -> "FiniteGroup":
        return OppositeGroup(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self.tag} order={self.order}>"


class _ExplicitGroup(FiniteGroup):
    """An explicit subgroup, mixed in ahead of its family base: sorted
    elements, tagged ``_tag_format`` of the family parameter plus 8 hex
    digits of their SHA-256 unless a tag is given."""

    _tag_format: str

    def __init__(self, param: int, elements: Iterable[bytes], tag: str | None = None):
        els = sorted(set(elements))
        if tag is None:
            digest = hashlib.sha256(b"".join(els)).hexdigest()[:8]
            tag = f"{self._tag_format.format(param)}[{digest}]"
        super().__init__(tag, param)
        self.order = len(els)
        self._elements_p = els
        if self.identity_p not in els:
            raise PlatformValidationError(f"element set for {tag} lacks the identity")


# -- permutation groups ----------------------------------------------------


def perm_payload(one_line: Sequence[int]) -> bytes:
    """Encode a permutation given as 1-based one-line images."""
    m = len(one_line)
    if sorted(one_line) != list(range(1, m + 1)):
        raise PlatformValidationError(f"not a permutation of 1..{m}: {one_line!r}")
    if m > 255:
        raise PlatformValidationError(f"a permutation of {m} points: at most 255 are supported")
    return bytes(one_line)


def cycles_payload(degree: int, *cycles: Sequence[int]) -> bytes:
    """Encode a product of disjoint cycles on points 1..degree."""
    images = list(range(1, degree + 1))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt - 1] = cyc[(i + 1) % len(cyc)]
    return perm_payload(images)


class _PermBase(FiniteGroup):
    """The permutation family: one-line images of 1..degree, one byte each.

    A family base holds what actions and platform builders would otherwise
    branch on: ``family``, here ("perm", degree), equal for groups whose
    payloads and products agree; ``encode(entries)``, an element's payload;
    ``generated(generators, tag)``, the subgroup they generate; and the
    sandwich kernels ``conjugate_p(h, x)`` = h^-1 x h,
    ``sandwich_p(h, x, j)`` = h x j and ``twisted_p(h, x, t)`` = h^-1 x t,
    here the ``_kernels`` functions themselves.
    """

    encode = staticmethod(perm_payload)
    conjugate_p = staticmethod(kern.perm_conjugate)
    sandwich_p = staticmethod(kern.perm_sandwich)
    twisted_p = staticmethod(kern.perm_twisted)

    def __init__(self, tag: str, degree: int):
        super().__init__(tag)
        self.degree = degree
        self.family = ("perm", degree)
        self.payload_len = degree
        self.identity_p = bytes(range(1, degree + 1))

    def generated(self, generators: Iterable[Sequence[int]],
                  tag: str | None = None) -> "PermutationGroup":
        return generated_perm_group(self.degree, generators, tag=tag)

    def compose_p(self, a, b):
        return kern.perm_compose(a, b)

    def invert_p(self, a):
        return kern.perm_invert(a)

    def key_p(self, x, seq, k):
        return kern.perm_key(x, seq, k)

    def prod_p(self, seq):
        it = iter(seq)
        return kern.perm_prod(next(it, self.identity_p), it)

    def element(self, one_line: Sequence[int]) -> GroupElement:
        payload = perm_payload(one_line)
        if not self.contains_p(payload):
            raise ForeignElementError(f"{one_line!r} is not in {self.tag}")
        return self.wrap(payload)

    def from_cycles(self, *cycles: Sequence[int]) -> GroupElement:
        payload = cycles_payload(self.degree, *cycles)
        if not self.contains_p(payload):
            raise ForeignElementError(f"cycles {cycles!r} not in {self.tag}")
        return self.wrap(payload)


class SymmetricGroup(_PermBase):
    """All permutations of 1..m."""

    def __init__(self, m: int):
        if not 1 <= m <= 64:
            raise PlatformValidationError("symmetric group degree must be in 1..64")
        super().__init__(f"s{m}", m)
        self.order = math.factorial(m)

    def _enumerate_p(self):
        return [bytes(p) for p in itertools.permutations(range(1, self.degree + 1))]

    def contains_p(self, payload):
        return len(payload) == self.degree and sorted(payload) == list(
            range(1, self.degree + 1)
        )

    @functools.cached_property
    def _walk(self) -> tuple[tuple[int, int], ...]:
        """``Random.shuffle``'s walk: i = m-1 down to 1, swapped with a j <=
        i drawn by ``_randbelow(i + 1)``, from getrandbits of this bit length."""
        return tuple((i, (i + 1).bit_length()) for i in range(self.degree - 1, 0, -1))

    def sample_p(self, rng):
        # rng.shuffle's Fisher-Yates walk inline: uniform, no m! enumeration
        getrandbits = rng.getrandbits
        images = list(range(1, self.degree + 1))
        for i, k in self._walk:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            images[i], images[j] = images[j], images[i]
        return bytes(images)

    @functools.cached_property
    def _draw_index(self):
        # the _randbelow choices of sample_p's walk
        return _rejection_draw(tuple(i + 1 for i, _ in self._walk), self._shuffle_order)

    @functools.cached_property
    def _shuffle_order(self) -> list[int]:
        """The element index sample_p returns for each code of _draw_index."""
        m, index, walk = self.degree, self._index_map(), self._walk
        order = []
        for choices in itertools.product(*(range(i + 1) for i, _ in walk)):
            images = list(range(1, m + 1))
            for (i, _), j in zip(walk, choices):
                images[i], images[j] = images[j], images[i]
            order.append(index[bytes(images)])
        return order


class PermutationGroup(_ExplicitGroup, _PermBase):
    """An explicit subgroup of the permutations of 1..degree:
    ``PermutationGroup(degree, elements, tag=None)``."""

    _tag_format = "perm{}"


# -- 2x2 matrix groups mod p -------------------------------------------------


def mat2_payload(entries: Sequence[int] | Sequence[Sequence[int]], p: int) -> bytes:
    """Encode a 2x2 matrix mod p given as four ints or as two rows of two."""
    flat = list(entries) if isinstance(entries, (list, tuple)) else []
    if len(flat) == 2 and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in flat):
        flat = [*flat[0], *flat[1]]
    if len(flat) != 4 or any(type(v) is not int for v in flat):
        raise PlatformValidationError(
            f"matrix entries must be four ints or two rows of two ints, not {entries!r}")
    return bytes(v % p for v in flat)


def _det(a: bytes, p: int) -> int:
    return (a[0] * a[3] - a[1] * a[2]) % p


class _Mat2Base(FiniteGroup):
    """The 2x2-matrix family mod a prime p, row-major, one byte an entry:
    ``_PermBase``'s contract with ``family`` ("mat2", p) and the
    ``_kernels`` matrix functions bound to p."""

    def __init__(self, tag: str, p: int):
        super().__init__(tag)
        self.p = p
        self.family = ("mat2", p)
        self.payload_len = 4
        self.identity_p = bytes((1, 0, 0, 1))
        self.conjugate_p = lambda h, x: kern.mat2_conjugate(h, x, p)
        self.sandwich_p = lambda h, x, j: kern.mat2_sandwich(h, x, j, p)
        self.twisted_p = lambda h, x, t: kern.mat2_twisted(h, x, t, p)

    def encode(self, entries: Sequence[int] | Sequence[Sequence[int]]) -> bytes:
        return mat2_payload(entries, self.p)

    def generated(self, generators: Iterable[Sequence[int] | Sequence[Sequence[int]]],
                  tag: str | None = None) -> "Mat2Group":
        return generated_mat2_group(self.p, generators, tag=tag)

    def compose_p(self, a, b):
        return kern.mat2_compose(a, b, self.p)

    def invert_p(self, a):
        return kern.mat2_invert(a, self.p)

    def _mul_table(self):
        # Row r of a product a.b is (row r of a).b. Number the distinct rows
        # of the elements, tabulate row.b for every such row and every
        # element b in numpy, and read each product off its two row numbers.
        p = self.p
        m = np.frombuffer(b"".join(self.elements_p()), dtype=np.uint8).reshape(-1, 2, 2)
        m = m.astype(np.int64)
        rows, numbered = np.unique(m[:, :, 0] * p + m[:, :, 1], return_inverse=True)
        first, second = numbered.reshape(-1, 2).T
        row_number = np.zeros(p * p, dtype=np.min_scalar_type(len(rows)))
        row_number[rows] = np.arange(len(rows))
        x, y = (v[:, None] for v in np.divmod(rows, p))
        times = row_number[(x * m[:, 0, 0] + y * m[:, 1, 0]) % p * p
                           + (x * m[:, 0, 1] + y * m[:, 1, 1]) % p]
        by_rows = np.zeros((len(rows), len(rows)), dtype=self.table.dtype)
        by_rows[first, second] = np.arange(len(m))
        return by_rows[times[first], times[second]]

    def element(self, entries) -> GroupElement:
        payload = mat2_payload(entries, self.p)
        if not self.contains_p(payload):
            raise ForeignElementError(f"{entries!r} is not in {self.tag}")
        return self.wrap(payload)


class GL2Group(_Mat2Base):
    """All invertible 2x2 matrices over Z_p, p a small prime."""

    def __init__(self, p: int):
        if not (2 <= p <= 251 and _is_prime(p)):
            raise PlatformValidationError("matrix modulus must be a prime <= 251")
        super().__init__(f"gl2_{p}", p)
        self.order = (p * p - 1) * (p * p - p)

    def _enumerate_p(self):
        rng4 = itertools.product(range(self.p), repeat=4)
        return [bytes(t) for t in rng4 if (t[0] * t[3] - t[1] * t[2]) % self.p != 0]

    def contains_p(self, payload):
        return (
            len(payload) == 4
            and all(v < self.p for v in payload)
            and _det(payload, self.p) != 0
        )


class Mat2Group(_ExplicitGroup, _Mat2Base):
    """An explicit subgroup of GL(2, p): ``Mat2Group(p, elements, tag=None)``."""

    _tag_format = "mat2_{}"


# -- modular-arithmetic groups ------------------------------------------------


def _powers(g: int, p: int, q: int) -> list[int]:
    """g^0, g^1, ... mod p up to g's order, one product each; as g^q = 1 mod
    p, the order divides q, and there are q powers exactly when it is q."""
    powers, x = [], 1
    for _ in range(q):
        powers.append(x)
        x = x * g % p
        if x == 1:
            break
    return powers


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division up to sqrt(n):
    at most 1,000 steps for n within ENUMERATION_CAP."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return primes + [n] if n > 1 else primes


# Miller-Rabin with these bases is exact below the least number that is a
# strong pseudoprime to all of them (Sorenson & Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: O(log n) multiplications per base; a
    modulus at or above _PRIME_BOUND raises PlatformValidationError."""
    if n >= _PRIME_BOUND:
        raise PlatformValidationError(f"modulus {n} is too large to test for primality")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    r, d = 0, n - 1
    while d % 2 == 0:
        r, d = r + 1, d // 2
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

class ModCyclicGroup(FiniteGroup):
    """The cyclic subgroup of Z_p^* generated by g, of order q; its sorted
    elements are enumerated on first use."""

    def __init__(self, p: int, g: int, q: int):
        if not _is_prime(p):
            raise PlatformValidationError(f"modulus {p} is not prime")
        if not 1 < g < p:
            raise PlatformValidationError(f"generator {g} not in 2..{p - 1}")
        if q < 1:
            raise PlatformValidationError(f"order {q} is not positive")
        if pow(g, q, p) != 1:
            raise PlatformValidationError(f"{g}^{q} != 1 mod {p}: claimed order is wrong")
        if q > ENUMERATION_CAP:
            raise EnumerationCapError(f"order {q} exceeds the enumeration cap {ENUMERATION_CAP}")
        # g^q = 1, so g's order divides q: it is q with each prime r of q
        # divided out for as long as g^(order / r) is still 1
        order = q
        for r in _prime_factors(q):
            while order % r == 0 and pow(g, order // r, p) == 1:
                order //= r
        if order != q:
            raise PlatformValidationError(f"{g} has order {order} mod {p}, not {q}")
        super().__init__(f"mod{p}g{g}")
        self.p = p
        self.g = g
        self.q = q
        self.order = q
        self.payload_len = (p.bit_length() + 7) // 8
        self.identity_p = (1).to_bytes(self.payload_len, "big")

    def _enumerate_p(self):
        powers = sorted(_powers(self.g, self.p, self.q))
        return [v.to_bytes(self.payload_len, "big") for v in powers]

    def compose_p(self, a, b):
        return (int.from_bytes(a, "big") * int.from_bytes(b, "big") % self.p).to_bytes(
            self.payload_len, "big")

    def invert_p(self, a):
        return pow(int.from_bytes(a, "big"), -1, self.p).to_bytes(self.payload_len, "big")

    def key_p(self, x, seq, k):
        return kern.modp_key(x, seq, k, self.p, self.payload_len)

    def prod_p(self, seq):
        return kern.modp_prod(seq, self.p, self.payload_len)

    def _mul_table(self):
        # g^i * g^j = g^((i + j) mod q): number the elements by exponent, so
        # no product of residues is formed
        q = self.q
        exponent = np.argsort(_powers(self.g, self.p, q))  # of each element, in sorted order
        position = np.empty(q, dtype=np.intp)
        position[exponent] = np.arange(q)
        return position[np.add.outer(exponent, exponent) % q]

    def contains_p(self, payload):
        # Z_p^* is cyclic and q divides p - 1, so the powers of g are exactly
        # the residues x with x^q = 1
        if len(payload) != self.payload_len:
            return False
        x = int.from_bytes(payload, "big")
        return 0 < x < self.p and pow(x, self.q, self.p) == 1

    def element(self, value: int) -> GroupElement:
        payload = (value % self.p).to_bytes(self.payload_len, "big")
        if not self.contains_p(payload):
            raise ForeignElementError(f"{value} is not a power of {self.g} mod {self.p}")
        return self.wrap(payload)


class UnitsModGroup(FiniteGroup):
    """The multiplicative group of units mod q, in increasing order; its
    payloads are enumerated on first use."""

    def __init__(self, q: int):
        if q < 2:
            raise PlatformValidationError("modulus must be >= 2")
        if q > ENUMERATION_CAP:
            raise EnumerationCapError(f"modulus {q} exceeds the enumeration cap {ENUMERATION_CAP}")
        super().__init__(f"units{q}")
        self.q = q
        self._primes = _prime_factors(q)
        phi = q  # Euler's phi: q times (1 - 1/r) for each prime r of q
        for r in self._primes:
            phi = phi // r * (r - 1)
        self.order = phi
        self.payload_len = (q.bit_length() + 7) // 8
        self.identity_p = (1).to_bytes(self.payload_len, "big")

    @functools.cached_property
    def _units(self) -> array:
        """Unit i as ``_units[i]``: 0..q-1 sieved by the primes of q, four
        bytes each, built on first use."""
        q, sieve = self.q, bytearray(b"\x01") * self.q
        for r in self._primes:
            sieve[::r] = bytes(len(range(0, q, r)))
        return array("I", itertools.compress(range(q), sieve))

    def _enumerate_p(self):
        return [v.to_bytes(self.payload_len, "big") for v in self._units]

    def sample_p(self, rng):
        return self._units[self._draw_index(rng)].to_bytes(self.payload_len, "big")

    def compose_p(self, a, b):
        return (int.from_bytes(a, "big") * int.from_bytes(b, "big") % self.q).to_bytes(
            self.payload_len, "big")

    def invert_p(self, a):
        return pow(int.from_bytes(a, "big"), -1, self.q).to_bytes(self.payload_len, "big")

    def _mul_table(self):
        # products of the units in numpy, mapped back through a value -> index array
        q = self.q
        units = np.array(self._units, dtype=np.int64)
        index = np.zeros(q, dtype=np.intp)
        index[units] = np.arange(len(units))
        return index[np.multiply.outer(units, units) % q]

    def contains_p(self, payload):
        if len(payload) != self.payload_len:
            return False
        x = int.from_bytes(payload, "big")
        return 0 < x < self.q and math.gcd(x, self.q) == 1

    def element(self, value: int) -> GroupElement:
        payload = (value % self.q).to_bytes(self.payload_len, "big")
        if not self.contains_p(payload):
            raise ForeignElementError(f"{value} is not a unit mod {self.q}")
        return self.wrap(payload)


# -- derived groups -----------------------------------------------------------


class OppositeGroup(FiniteGroup):
    """The same element set with reversed composition."""

    def __init__(self, base: FiniteGroup):
        super().__init__(base.tag + "~op")
        self.base = base
        self.order = base.order
        self.payload_len = base.payload_len
        self.identity_p = base.identity_p

    def compose_p(self, a, b):
        return self.base.compose_p(b, a)

    def invert_p(self, a):
        return self.base.invert_p(a)

    def _enumerate_p(self):
        return self.base.elements_p()

    def contains_p(self, payload):
        return self.base.contains_p(payload)

    def sample_p(self, rng):
        return self.base.sample_p(rng)

    @functools.cached_property
    def _draw_index(self):
        return self.base._draw_index  # sample_p is the base group's too

    def _mul_table(self):
        return self.base.table.mul.T

    def opposite(self):
        return self.base


class ProductGroup(FiniteGroup):
    """Direct product; payloads are the two fixed-width payloads concatenated."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, tag: str | None = None):
        super().__init__(tag or f"({left.tag}*{right.tag})")
        self.left = left
        self.right = right
        self.order = left.order * right.order
        self.payload_len = left.payload_len + right.payload_len
        self._cut = left.payload_len
        self.identity_p = left.identity_p + right.identity_p

    def split(self, payload: bytes) -> tuple[bytes, bytes]:
        return payload[: self._cut], payload[self._cut :]

    def compose_p(self, a, b):
        a1, a2 = self.split(a)
        b1, b2 = self.split(b)
        return self.left.compose_p(a1, b1) + self.right.compose_p(a2, b2)

    def invert_p(self, a):
        a1, a2 = self.split(a)
        return self.left.invert_p(a1) + self.right.invert_p(a2)

    def _enumerate_p(self):
        return [
            a + b for a in self.left.elements_p() for b in self.right.elements_p()
        ]

    def contains_p(self, payload):
        if len(payload) != self.payload_len:
            return False
        a, b = self.split(payload)
        return self.left.contains_p(a) and self.right.contains_p(b)

    def sample_p(self, rng):
        return self.left.sample_p(rng) + self.right.sample_p(rng)

    @functools.cached_property
    def _draw_index(self):
        left, right, nr = self.left._draw_index, self.right._draw_index, self.right.order
        return lambda rng: left(rng) * nr + right(rng)

    def _mul_table(self):
        # (a, b)(c, d) = (ac, bd); the pair (a, b) has index a * |right| + b,
        # so every partial sum fits the table's own dtype
        left = self.left.table.mul.astype(self.table.dtype)
        right = self.right.table.mul
        cells = left[:, None, :, None] * self.right.order + right[None, :, None, :]
        return cells.reshape(self.order, self.order)


# -- integer tables -------------------------------------------------------------


def _rejection_draw(bounds: tuple[int, ...], order: Sequence[int] | None = None
                    ) -> Callable[[Random], int]:
    """A draw consuming a ``random.Random`` as ``_randbelow(n)`` does for
    each bound n in turn: CPython's rejection loop over ``getrandbits`` of
    n's bit length. The results are read as one mixed-radix number, mapped
    through ``order`` when given. No ``randrange``, ``_randbelow`` or
    ``shuffle`` call is made."""
    steps = tuple((n, n.bit_length()) for n in bounds)

    def draw_code(rng: Random) -> int:
        getrandbits = rng.getrandbits
        code = 0
        for n, k in steps:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            code = code * n + r
        return code if order is None else order[code]

    return draw_code


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GroupTable:
    """An enumerable group by element index: element i is ``elements_p()[i]``.

    ``draw(rng)`` returns the index of the element ``sample_p(rng)`` returns,
    using rng the same way. ``mul[a, b]`` is the index of the product of
    elements a and b and ``inv[a]`` that of the inverse of a, each built on
    first use; ``mul_flat[a * order + b]`` and ``inv[a]`` read one entry at a
    time as a Python int.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.elements = group.elements_p()
        self.order = len(self.elements)
        self.index = group._index_map()
        self.identity = self.index[group.identity_p]
        self.draw = group._draw_index
        self.dtype = np.min_scalar_type(max(self.order - 1, 0))

    @functools.cached_property
    def mul(self) -> np.ndarray:
        return _frozen(np.ascontiguousarray(self.group._mul_table(), dtype=self.dtype))

    @functools.cached_property
    def mul_flat(self) -> memoryview:
        return memoryview(self.mul.reshape(-1))

    @functools.cached_property
    def inv(self) -> memoryview:
        index, invert = self.index, self.group.invert_p
        return memoryview(_frozen(np.array([index[invert(a)] for a in self.elements],
                                           dtype=self.dtype)))


# -- construction helpers ------------------------------------------------------


def close_under_products(
    generators: Iterable[bytes],
    compose: Callable[[bytes, bytes], bytes],
    identity: bytes,
    cap: int = ENUMERATION_CAP,
) -> list[bytes]:
    """Breadth-first closure of a generating set, identity included."""
    gens = list(generators)
    els = {identity}
    els.update(gens)
    frontier = list(els)
    while frontier:
        fresh = []
        for a in gens:
            for b in frontier:
                c = compose(a, b)
                if c not in els:
                    els.add(c)
                    fresh.append(c)
                    if len(els) > cap:
                        raise EnumerationCapError(
                            f"generated group exceeds the enumeration cap {cap}"
                        )
        frontier = fresh
    return sorted(els)


def generated_perm_group(
    degree: int, generators: Iterable[Sequence[int]], tag: str | None = None
) -> PermutationGroup:
    gens = [perm_payload(g) for g in generators]
    els = close_under_products(gens, kern.perm_compose, bytes(range(1, degree + 1)))
    return PermutationGroup(degree, els, tag=tag)


def generated_mat2_group(
    p: int, generators: Iterable[Sequence[int] | Sequence[Sequence[int]]], tag: str | None = None
) -> Mat2Group:
    if p > 251 or not _is_prime(p):
        raise PlatformValidationError("matrix modulus must be a prime <= 251")
    gens = []
    for g in generators:
        payload = mat2_payload(g, p)
        if _det(payload, p) == 0:
            raise PlatformValidationError(f"generator {g!r} is singular mod {p}")
        gens.append(payload)
    els = close_under_products(gens, lambda a, b: kern.mat2_compose(a, b, p), bytes((1, 0, 0, 1)))
    return Mat2Group(p, els, tag=tag)


def explicit_perm_group(
    degree: int, elements: Iterable[Sequence[int]], tag: str | None = None
) -> PermutationGroup:
    """Subgroup from an explicit element list; rejects sets not closed under products."""
    els = {perm_payload(e) for e in elements}
    for a in els:
        for b in els:
            if kern.perm_compose(a, b) not in els:
                raise PlatformValidationError("element set is not closed under composition")
    return PermutationGroup(degree, els, tag=tag)


def extend_homomorphism(
    generators: Sequence[bytes],
    images: Sequence[bytes],
    compose: Callable[[bytes, bytes], bytes],
    identity: bytes,
    image_identity: bytes,
    cap: int = ENUMERATION_CAP,
) -> dict[bytes, bytes]:
    """Extend generator images multiplicatively over the generated group.

    Raises if any element is reachable with two inconsistent images, i.e. the
    images do not respect the group's relations.
    """
    if len(generators) != len(images):
        raise PlatformValidationError("generator and image counts differ")
    table: dict[bytes, bytes] = {identity: image_identity}
    for g, im in zip(generators, images):
        if table.setdefault(g, im) != im:
            raise PlatformValidationError("conflicting images for a generator")
    frontier = list(table)
    while frontier:
        fresh = []
        for g, im in zip(generators, images):
            for b in frontier:
                c = compose(g, b)
                c_im = compose(im, table[b])
                seen = table.get(c)
                if seen is None:
                    table[c] = c_im
                    fresh.append(c)
                    if len(table) > cap:
                        raise EnumerationCapError("homomorphism extension exceeds the cap")
                elif seen != c_im:
                    raise PlatformValidationError(
                        "endomorphism images are inconsistent with the group relations"
                    )
        frontier = fresh
    return table
