"""Kernels for the hot element operations.

Permutation payloads are one-line images over 1..m, one byte per point.
Matrix payloads are 2x2 row-major entries mod a prime p < 256, one byte each.
Modular payloads are residues mod p, fixed-width big-endian integers.
"""

import itertools

# Permutation kernels run in C through bytes.translate. A payload p of degree
# m <= 255 becomes the 256-byte lookup table b"\0" + p + padding, which maps
# each point 1..m to its image; maketrans(p, identity) maps each point to its
# preimage, so it is the table of p^-1. The tables are built inline because
# these are the package's hottest calls and a helper call would add to each.
_IDENTITY = bytes(range(1, 256))
_PAD = bytes(255)


def perm_compose(a, b):
    # (a.b)(pt) = a(b(pt))
    return b.translate(b"\0" + a + _PAD[len(a):])


def perm_key(x, seq, k):
    # the fold of FiniteGroup.key_p: L_k...L_m . L_0...L_{k-1} over the ladder
    # L_0 = x, L_{j+1} = L_j.seq[j], from two accumulators, the pad built once
    pad = _PAD[len(x):]
    it = iter(seq)
    if k:
        head = x
        for s in itertools.islice(it, k - 1):
            x = s.translate(b"\0" + x + pad)
            head = x.translate(b"\0" + head + pad)
        x = next(it).translate(b"\0" + x + pad)
    tail = x
    for s in it:
        x = s.translate(b"\0" + x + pad)
        tail = x.translate(b"\0" + tail + pad)
    return head.translate(b"\0" + tail + pad) if k else tail


def perm_prod(x, seq):
    # x.s0.s1...
    pad = _PAD[len(x):]
    for s in seq:
        x = s.translate(b"\0" + x + pad)
    return x


def perm_invert(a):
    return bytes.maketrans(a, _IDENTITY[: len(a)])[1 : len(a) + 1]


def perm_conjugate(h, x):
    # h^-1 . x . h
    return h.translate(b"\0" + x + _PAD[len(x):]).translate(
        bytes.maketrans(h, _IDENTITY[: len(h)]))


def perm_sandwich(h, x, j):
    # h . x . j
    return j.translate(b"\0" + x + _PAD[len(x):]).translate(b"\0" + h + _PAD[len(h):])


def perm_twisted(h, x, t):
    # h^-1 . x . t
    return t.translate(b"\0" + x + _PAD[len(x):]).translate(
        bytes.maketrans(h, _IDENTITY[: len(h)]))


def _mat2_mul(a0, a1, a2, a3, b0, b1, b2, b3, p):
    return (
        (a0 * b0 + a1 * b2) % p,
        (a0 * b1 + a1 * b3) % p,
        (a2 * b0 + a3 * b2) % p,
        (a2 * b1 + a3 * b3) % p,
    )


def mat2_compose(a, b, p):
    return bytes(_mat2_mul(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], p))


def mat2_invert(a, p):
    det = (a[0] * a[3] - a[1] * a[2]) % p
    dinv = pow(det, p - 2, p)
    return bytes(((a[3] * dinv) % p, (-a[1] * dinv) % p, (-a[2] * dinv) % p, (a[0] * dinv) % p))


def mat2_sandwich(h, x, j, p):
    # h.x.j in one pass: h.x unreduced, each entry of its product with j
    # reduced once, which leaves the same residue
    h0, h1, h2, h3 = h
    x0, x1, x2, x3 = x
    j0, j1, j2, j3 = j
    a0, a1 = h0 * x0 + h1 * x2, h0 * x1 + h1 * x3
    a2, a3 = h2 * x0 + h3 * x2, h2 * x1 + h3 * x3
    return bytes(((a0 * j0 + a1 * j2) % p, (a0 * j1 + a1 * j3) % p,
                  (a2 * j0 + a3 * j2) % p, (a2 * j1 + a3 * j3) % p))


def mat2_twisted(h, x, t, p):
    # h^-1.x.t in one pass: h^-1 is adj(h)/det(h), so this is adj(h).x.t
    # unreduced, each entry times 1/det reduced once
    h0, h1, h2, h3 = h
    x0, x1, x2, x3 = x
    t0, t1, t2, t3 = t
    d = pow((h0 * h3 - h1 * h2) % p, p - 2, p)
    a0, a1 = h3 * x0 - h1 * x2, h3 * x1 - h1 * x3
    a2, a3 = h0 * x2 - h2 * x0, h0 * x3 - h2 * x1
    return bytes(((a0 * t0 + a1 * t2) * d % p, (a0 * t1 + a1 * t3) * d % p,
                  (a2 * t0 + a3 * t2) * d % p, (a2 * t1 + a3 * t3) * d % p))


def mat2_conjugate(h, x, p):
    # h^-1.x.h
    return mat2_twisted(h, x, h, p)


def mat2_transpose_invert(a, p):
    return mat2_invert(bytes((a[0], a[2], a[1], a[3])), p)


# Modular kernels fold Python ints mod p, one from_bytes per payload and one
# to_bytes per result, for payloads of ``width`` big-endian bytes.


def modp_key(x, seq, k, p, width):
    # perm_key on residues mod p
    it = map(int.from_bytes, seq, itertools.repeat("big"))
    v = int.from_bytes(x, "big")
    if k:
        head = v
        for s in itertools.islice(it, k - 1):
            v = v * s % p
            head = head * v % p
        v = v * next(it) % p
    tail = v
    for s in it:
        v = v * s % p
        tail = tail * v % p
    return (tail * head % p if k else tail).to_bytes(width, "big")


def modp_prod(seq, p, width):
    v = 1
    for s in map(int.from_bytes, seq, itertools.repeat("big")):
        v = v * s % p
    return v.to_bytes(width, "big")
