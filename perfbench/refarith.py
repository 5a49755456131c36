"""Reference arithmetic for the benchmark's correctness checks.

Everything here is rebuilt from a platform descriptor (the JSON form the
package writes into its artifacts), never from the package's own group or
kernel objects, so a check made with it does not share code with the
arithmetic it checks. Payload encodings follow the package's documented
formats: permutations as one-line images over 1..m, one byte per point;
2x2 matrices mod p row-major, one byte per entry; residues as fixed-width
big-endian integers.
"""

from __future__ import annotations

import itertools


def perm_mul(a: bytes, b: bytes) -> bytes:
    """(a.b)(pt) = a(b(pt))."""
    return bytes(a[i - 1] for i in b)


def perm_inv(a: bytes) -> bytes:
    out = bytearray(len(a))
    for i, v in enumerate(a, 1):
        out[v - 1] = i
    return bytes(out)


def mat_mul(a: bytes, b: bytes, p: int) -> bytes:
    return bytes(((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
                  (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p))


def mat_inv(a: bytes, p: int) -> bytes:
    d = pow((a[0] * a[3] - a[1] * a[2]) % p, -1, p)
    return bytes((a[3] * d % p, -a[1] * d % p, -a[2] * d % p, a[0] * d % p))


def _flat(entries) -> list[int]:
    if len(entries) == 2:
        return [entries[0][0], entries[0][1], entries[1][0], entries[1][1]]
    return list(entries)


def _closure(gens: list[bytes], mul, identity: bytes) -> list[bytes]:
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                c = mul(g, a)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return sorted(seen)


class RefPlatform:
    """The action, the acting-group product and the target-group product of
    one platform descriptor.

    ``act(h, x)``, ``hmul(a, b)`` (acting group), ``mul``/``inv``/``identity``
    (target group) and ``base`` (the base point) are payload-level. Element
    enumeration covers the permutation and matrix families.
    """

    def __init__(self, descriptor: dict):
        kind, params = descriptor["kind"], descriptor["params"]
        if kind == "bd_modp":
            p, g, q = params["p"], params["g"], params["q"]
            wp, wq = (p.bit_length() + 7) // 8, (q.bit_length() + 7) // 8

            def num(b: bytes) -> int:
                return int.from_bytes(b, "big")

            self.mul = lambda a, b: (num(a) * num(b) % p).to_bytes(wp, "big")
            self.inv = lambda a: pow(num(a), -1, p).to_bytes(wp, "big")
            self.identity = (1).to_bytes(wp, "big")
            self.base = g.to_bytes(wp, "big")
            self.act = lambda h, x: pow(num(x), num(h), p).to_bytes(wp, "big")
            self.hmul = lambda a, b: (num(a) * num(b) % q).to_bytes(wq, "big")
            return
        if params["family"] == "perm":
            m = params["degree"]
            mul, inv = perm_mul, perm_inv
            identity = bytes(range(1, m + 1))
            base = bytes(params["base"])
            encode = bytes

            def full() -> list[bytes]:
                return [bytes(t) for t in itertools.permutations(range(1, m + 1))]
        else:
            p = params["p"]

            def mul(a, b):
                return mat_mul(a, b, p)

            def inv(a):
                return mat_inv(a, p)

            identity = bytes((1, 0, 0, 1))

            def encode(entries):
                return bytes(v % p for v in _flat(entries))

            base = encode(params["base"])

            def full() -> list[bytes]:
                return [bytes(t) for t in itertools.product(range(p), repeat=4)
                        if (t[0] * t[3] - t[1] * t[2]) % p]

        def group(source) -> list[bytes]:
            if source == "full":
                return full()
            return _closure([encode(g) for g in source], mul, identity)

        self.mul, self.inv, self.identity, self.base = mul, inv, identity, base
        target_src = params.get("group", "full")
        self._target = lambda: group(target_src)
        if kind in ("conjugation", "twisted_conjugacy"):
            sub = params.get("subgroup", "group")
            self._acting = lambda: self._target() if sub == "group" else group(sub)
            # the acting group is the opposite of the subgroup
            self.hmul = lambda a, b: mul(b, a)
            if kind == "conjugation":
                self.act = lambda h, x: mul(mul(inv(h), x), h)
            else:
                if params.get("endo", "transpose_inverse") != "transpose_inverse":
                    raise ValueError("reference arithmetic covers the transpose-inverse twist")

                def transpose_inverse(h):
                    return inv(bytes((h[0], h[2], h[1], h[3])))

                self.act = lambda h, x: mul(mul(inv(h), x), transpose_inverse(h))
        elif kind == "double_coset":
            cut = len(identity)
            left, right = params.get("left", "group"), params.get("right", "group")

            def side(src):
                return self._target() if src == "group" else group(src)

            # payload = left element then right element; the right factor is opposite
            self.act = lambda hj, x: mul(mul(hj[:cut], x), hj[cut:])
            self.hmul = lambda a, b: mul(a[:cut], b[:cut]) + mul(b[cut:], a[cut:])
            self._acting = lambda: [h + j for h in side(left) for j in side(right)]
        else:
            raise ValueError(f"no reference arithmetic for platform kind {kind!r}")

    def target_elements(self) -> list[bytes]:
        return self._target()

    def acting_elements(self) -> list[bytes]:
        return self._acting()

    def product(self, values) -> bytes:
        """Ordered product of target payloads, left to right."""
        acc = self.identity
        for v in values:
            acc = self.mul(acc, v)
        return acc

    def links(self, secrets) -> list[bytes]:
        """The chain links apply(h_k . h_{k-1}, g), indices wrapping."""
        return [self.act(self.hmul(secrets[k], secrets[k - 1]), self.base)
                for k in range(len(secrets))]

    def key(self, secrets) -> bytes:
        return self.product(self.links(secrets))

