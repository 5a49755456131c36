"""Element kernels: algebraic laws, the permutation kernels against
reference loops, the fused matrix kernel against the products it fuses, and
every sandwich platform's apply_p against the products of its maps."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bdga import _kernels as k
from bdga.platforms import PRESET_NAMES
from named_platforms import platform_named


def perms(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda m: st.permutations(list(range(1, m + 1))).map(bytes)
    )


def same_degree_perm_pairs():
    return st.integers(2, 8).flatmap(
        lambda m: st.tuples(
            st.permutations(list(range(1, m + 1))).map(bytes),
            st.permutations(list(range(1, m + 1))).map(bytes),
            st.permutations(list(range(1, m + 1))).map(bytes),
        )
    )


class TestPermLaws:
    @given(same_degree_perm_pairs())
    @settings(max_examples=200)
    def test_associative(self, abc):
        a, b, c = abc
        assert k.perm_compose(k.perm_compose(a, b), c) == k.perm_compose(a, k.perm_compose(b, c))

    @given(perms())
    def test_identity_and_inverse(self, a):
        e = bytes(range(1, len(a) + 1))
        assert k.perm_compose(a, e) == a
        assert k.perm_compose(e, a) == a
        assert k.perm_compose(a, k.perm_invert(a)) == e
        assert k.perm_compose(k.perm_invert(a), a) == e

    @given(same_degree_perm_pairs())
    @settings(max_examples=100)
    def test_fused_ops_match_composition(self, abc):
        h, x, j = abc
        hinv = k.perm_invert(h)
        assert k.perm_twisted(h, x, j) == k.perm_compose(k.perm_compose(hinv, x), j)


# the generator-loop kernels the translate-based ones replaced, kept as the
# reference they must match byte for byte


def ref_perm_compose(a, b):
    return bytes(a[b[i] - 1] for i in range(len(a)))


def ref_perm_invert(a):
    out = bytearray(len(a))
    for i, v in enumerate(a):
        out[v - 1] = i + 1
    return bytes(out)


def ref_perm_twisted(h, x, t):
    hinv = ref_perm_invert(h)
    return bytes(hinv[x[t[i] - 1] - 1] for i in range(len(h)))


@pytest.mark.parametrize("m", [1, 2, 4, 10, 23, 64])
def test_perm_kernels_match_reference_loops(m):
    rng = Random(m)

    def perm():
        images = list(range(1, m + 1))
        rng.shuffle(images)
        return bytes(images)

    for _ in range(200):
        a, b, c = perm(), perm(), perm()
        assert k.perm_compose(a, b) == ref_perm_compose(a, b)
        assert k.perm_invert(a) == ref_perm_invert(a)
        assert k.perm_twisted(a, b, c) == ref_perm_twisted(a, b, c)
        for out in (k.perm_compose(a, b), k.perm_invert(a)):
            assert type(out) is bytes and len(out) == m


def mats(p):
    # invertible 2x2 matrices mod p
    return (
        st.tuples(*[st.integers(0, p - 1)] * 4)
        .map(bytes)
        .filter(lambda m: (m[0] * m[3] - m[1] * m[2]) % p != 0)
    )


@pytest.mark.parametrize("p", [3, 5, 13])
class TestMatLaws:
    @given(data=st.data())
    @settings(max_examples=100)
    def test_group_laws(self, p, data):
        a = data.draw(mats(p))
        b = data.draw(mats(p))
        c = data.draw(mats(p))
        e = bytes((1, 0, 0, 1))
        assert k.mat2_compose(k.mat2_compose(a, b, p), c, p) == k.mat2_compose(
            a, k.mat2_compose(b, c, p), p
        )
        assert k.mat2_compose(a, e, p) == a
        assert k.mat2_compose(a, k.mat2_invert(a, p), p) == e

    @given(data=st.data())
    @settings(max_examples=50)
    def test_fused_and_transpose(self, p, data):
        h = data.draw(mats(p))
        x = data.draw(mats(p))
        t = data.draw(mats(p))
        hinv = k.mat2_invert(h, p)
        assert k.mat2_twisted(h, x, t, p) == k.mat2_compose(k.mat2_compose(hinv, x, p), t, p)
        # transpose-invert is an anti-automorphism composed with inversion
        ab = k.mat2_compose(h, x, p)
        assert k.mat2_transpose_invert(ab, p) == k.mat2_compose(
            k.mat2_transpose_invert(h, p), k.mat2_transpose_invert(x, p), p
        )



def gl2(p):
    return [bytes(t) for t in itertools.product(range(p), repeat=4)
            if (t[0] * t[3] - t[1] * t[2]) % p]


def mat2_triples(p):
    """Every triple of GL(2, p) for p = 2 and 3, else 20,000 seeded ones."""
    els = gl2(p)
    if p <= 3:
        return itertools.product(els, repeat=3)
    rng = Random(p)
    return ([rng.choice(els) for _ in range(3)] for _ in range(20_000))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fused_mat2_kernels_are_the_composition(p):
    """The one-pass sandwich kernel leaves the bytes of the products and
    inverse it fuses, exhaustively for p = 2 and 3."""
    compose, invert = k.mat2_compose, k.mat2_invert
    for h, x, t in mat2_triples(p):
        assert k.mat2_twisted(h, x, t, p) == compose(compose(invert(h, p), x, p), t, p)


@pytest.mark.parametrize("name", [*(p for p in PRESET_NAMES if p != "bd23"),
                                  "s10_conj", "gl27_conj"])
def test_sandwich_apply_is_the_product_of_its_maps(name):
    """apply_p(h, x) = a(h)^-1 x r(h) for (a(h), r(h)) = _sandwich_maps(h),
    with the target's compose_p and invert_p, at the identity and 100 seeded
    draws of H, each at 5 seeded draws of G."""
    pf = platform_named(name)
    H, G = pf.acting, pf.target
    compose = G.compose_p
    rng = Random(name)
    for h in [H.identity_p, *(H.sample_p(rng) for _ in range(100))]:
        a, r = pf._sandwich_maps(h)
        for x in [G.identity_p, *(G.sample_p(rng) for _ in range(5))]:
            assert pf.apply_p(h, x) == compose(compose(G.invert_p(a), x), r)
