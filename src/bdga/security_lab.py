"""Samplers and statistics for the transcript/key indistinguishability
experiments.

Five samplers produce (transcript, key) pairs plus hidden internals:

  sample_real        -- the honest protocol distribution
  sample_fake_prime  -- the first three chain links and one per block of
                        three thereafter replaced by uniform target elements
                        (party count restricted to n = 3s + 5)
  sample_fake        -- every chain link uniform
  sample_dist_prime  -- links derived from a four-element challenge tuple;
                        a coset-excluded random tuple approximates
                        fake_prime, and a shaped tuple gives sample_real's
                        links except the closing one (below)
  sample_dist        -- as above but shifted one hybrid: shaped tuples give
                        fake_prime's links except the closing one, random
                        tuples match fake

With a shaped tuple and the slot secrets s_1..s_n recorded in internals["s"],
the link from party k to k+1 (k = 1..n-1, outside the uniform positions) is
apply(s_{k+1} . s_k, g), as in the protocol. The closing link is
apply(s_n . s_1, g), where the protocol's is apply(s_1 . s_n, g): the two
agree on commutative platforms only, so on non-abelian ones the shaped
hybrids do not reproduce sample_real and sample_fake_prime exactly (ROADMAP
item 3).

Every sampler takes its randomness as ``rng``. A ``Random`` gives one
sample, drawn exactly as the byte-level groups draw. An
``actions.IndexStream`` gives a whole batch from one PCG64 stream, as
(trials, 3n + 1) index rows of (v, w, Z, key) over the platform's tables.

``tv_distance`` estimates the total-variation distance between two samplers
over a finite bucket partition (a sound lower bound on the true distance),
with a closed-form 95% interval for that partition distance. Each side is
drawn as one batch of index rows and every ``Partition`` maps those rows to
buckets, so every TV statistic buckets batch rows.
``exact_key_conditional`` computes, by exhaustive enumeration, the exact
conditional distribution of the key given a fake transcript. The links of
every translate t are one C-level ``itemgetter`` gather from row t of the
target's product table (``ActionTables.mul_rows``); the translate's weight
is the product of the observed w's fiber columns at those links
(``ActionTables.fiber_columns``), an exact Python int; the weights are
returned per key in the order of each key's first translate. No numpy call
is made per transcript: at these group orders numpy's per-call overhead
outweighs what it saves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import getitem, itemgetter
from random import Random
from typing import Callable, Sequence

import numpy as np

from . import actions
from .actions import GroupAction, IndexStream
from .errors import DegenerateExclusionError, ForeignElementError, ProtocolStateError, RegimeError
from .groups import GroupElement
from .harness import derive_seed
from .protocol import Transcript

# a sampler's randomness: a Random for one sample, an IndexStream for a batch
Rng = Random | IndexStream


# -- challenge tuples -----------------------------------------------------------


@dataclass(frozen=True)
class DdhGaTuple:
    """Four target elements (apply(x,g), apply(y,g), apply(z,g), apply(r,g)).

    For kind "dh_shaped", z = y.x and r = x.y; for kind "random_excluded",
    z and r are uniform outside the stabilizer cosets of those two products.
    The acting-group witness rides along for the samplers that embed it.
    Drawn from an IndexStream, each field holds (trials,) index arrays
    instead: the tuples of a whole batch.
    """

    t1: GroupElement
    t2: GroupElement
    t3: GroupElement
    t4: GroupElement
    kind: str
    witness: tuple[bytes, bytes, bytes, bytes]


# Each sampler is written once over an element-ops backend, picked from its
# rng by ``actions._ops``. A Random gives the platform's own backend: indices
# into its tables on tabulable platforms, payloads otherwise, with the same
# RNG draws and the same bytes out, one sample per call. An IndexStream gives
# the batch backend: one call draws every trial of the stream and returns
# the (trials, 3n + 1) index rows of (v, w, Z, key), and a challenge tuple
# holds index arrays.


def ddh_from_witness(
    platform: GroupAction, x: bytes, y: bytes, z: bytes, r: bytes, kind: str
) -> DdhGaTuple:
    return actions._ByteOps(platform).ddh_tuple(x, y, z, r, kind)


def sample_ddh_ga(platform: GroupAction, rng: Rng, kind: str) -> DdhGaTuple:
    ops = actions._ops(platform, rng)
    draw_h, hmul = ops.draw_h, ops.hmul
    x = draw_h(rng)
    y = draw_h(rng)
    yx = hmul(y, x)
    xy = hmul(x, y)
    if kind == "dh_shaped":
        return ops.ddh_tuple(x, y, yx, xy, kind)
    if kind != "random_excluded":
        raise ValueError(f"unknown tuple kind {kind!r}")
    stab = platform.base_stabilizer_p()
    H = platform.acting
    if 2 * len(stab) >= H.order:
        raise DegenerateExclusionError(
            f"stabilizer of the base point covers too much of {H.tag}: "
            f"2*{len(stab)} >= {H.order}"
        )
    # z lies in yx . Stab or xy . Stab iff it moves g to the same point.
    excluded = (ops.act(yx, ops.g), ops.act(xy, ops.g))
    z = ops.draw_h_outside(rng, excluded)
    r = ops.draw_h_outside(rng, excluded)
    return ops.ddh_tuple(x, y, z, r, kind)


# -- distribution samples --------------------------------------------------------


@dataclass(frozen=True)
class DistributionSample:
    """A (transcript, key) pair plus the hidden values that produced it."""

    transcript: Transcript
    key: GroupElement
    internals: dict


def _assemble(ops, n: int, vs: Sequence, links: Sequence, cs: Sequence,
              internals: dict) -> DistributionSample | np.ndarray:
    """Common tail of every sampler: w's from the links and pair keys, the
    broadcast differences and the ordered-product key, packaged by the
    backend (a DistributionSample, or a batch's index rows).

    ``links[0]`` is the closing link (indices 1 back to n); ``links[k]`` for
    k >= 1 is the link from party k to party k+1.
    """
    act, gmul, ginv = ops.act, ops.gmul, ops.ginv
    ws = [act(cs[i - 1], links[i]) for i in range(n)]
    zs = [gmul(ginv(links[i]), links[(i + 1) % n]) for i in range(n)]
    sk = ops.prod(links)
    internals["links"] = ops.g_tuple(links)
    internals["c"] = ops.h_tuple(cs)
    return ops.sample(n, vs, ws, zs, sk, internals)


def sample_real(platform: GroupAction, n: int, rng: Rng) -> DistributionSample | np.ndarray:
    """Honest run: same draw order as ``run_session``, so equal seeds give
    byte-identical transcripts and keys."""
    if n < 3:
        raise RegimeError(f"party count {n} < 3")
    ops = actions._ops(platform, rng)
    draw_h, act, hmul, g = ops.draw_h, ops.act, ops.hmul, ops.g
    hs = [draw_h(rng) for _ in range(n)]
    cs = [draw_h(rng) for _ in range(n)]
    vs = [act(h, g) for h in hs]
    links = [act(hmul(hs[k], hs[k - 1]), g) for k in range(n)]
    secrets = ops.h_tuple(hs)
    internals = {"h": secrets, "s": secrets, "random_links": ()}
    return _assemble(ops, n, vs, links, cs, internals)


def hybrid_regime(s: int) -> int:
    if not (type(s) is int and s >= 1):
        raise RegimeError(f"block count s must be an integer >= 1, got {s!r}")
    return 3 * s + 5


def require_hybrid_n(n: int) -> int:
    """Inverse of ``hybrid_regime``: the s with n = 3s + 5, else an error."""
    s, rem = divmod(n - 5, 3)
    if rem != 0 or s < 1:
        raise RegimeError(f"party count {n} is not of the form 3s + 5 with s >= 1")
    return s


def _randomized_indices(s: int) -> tuple[int, ...]:
    return tuple([1, 2, 3] + [3 * i + 3 for i in range(1, s + 1)])


def sample_fake_prime(platform: GroupAction, s: int, rng: Rng) -> DistributionSample | np.ndarray:
    """Honest secrets and v's, but the links at the randomized positions are
    fresh uniform target elements."""
    n = hybrid_regime(s)
    ops = actions._ops(platform, rng)
    draw_h, act, hmul, g = ops.draw_h, ops.act, ops.hmul, ops.g
    hs = [draw_h(rng) for _ in range(n)]
    cs = [draw_h(rng) for _ in range(n)]
    vs = [act(h, g) for h in hs]
    links = [act(hmul(hs[k], hs[k - 1]), g) for k in range(n)]
    randomized = _randomized_indices(s)
    for k in randomized:
        links[k] = ops.draw_g(rng)
    internals = {"h": ops.h_tuple(hs), "random_links": randomized}
    return _assemble(ops, n, vs, links, cs, internals)


def sample_fake(platform: GroupAction, n: int, rng: Rng) -> DistributionSample | np.ndarray:
    """Every link uniform; only the v's are tied to the drawn secrets."""
    if n < 3:
        raise RegimeError(f"party count {n} < 3")
    ops = actions._ops(platform, rng)
    draw_h, draw_g, act, g = ops.draw_h, ops.draw_g, ops.act, ops.g
    hs = [draw_h(rng) for _ in range(n)]
    cs = [draw_h(rng) for _ in range(n)]
    vs = [act(h, g) for h in hs]
    links = [draw_g(rng) for _ in range(n)]
    internals = {"h": ops.h_tuple(hs), "random_links": tuple(range(n))}
    return _assemble(ops, n, vs, links, cs, internals)


def sample_dist_prime(
    platform: GroupAction, s: int, tup: DdhGaTuple, rng: Rng
) -> DistributionSample | np.ndarray:
    """Embed the challenge tuple across every third link. The per-slot
    effective secrets are recorded in internals["s"]; with a shaped tuple
    the link from party k to k+1 is apply(s_{k+1} . s_k, g) for k = 1..n-1
    and the closing link is apply(s_n . s_1, g), the protocol's
    apply(s_1 . s_n, g) reversed, so the two differ on non-abelian
    platforms (ROADMAP item 3)."""
    n = hybrid_regime(s)
    ops = actions._ops(platform, rng)
    draw_h, act, hmul, g = ops.draw_h, ops.act, ops.hmul, ops.g
    x, y, z, r = ops.from_h(tup.witness)
    b0 = draw_h(rng)
    b0p = draw_h(rng)
    h0 = draw_h(rng)
    betas = [draw_h(rng) for _ in range(s)]
    gammas = [draw_h(rng) for _ in range(s)]
    aux = [draw_h(rng) for _ in range(s)]
    cs = [draw_h(rng) for _ in range(n)]

    slots: list = [None] * n  # effective secret for each v slot, 0-based
    slots[0] = hmul(y, b0)
    slots[1] = x
    slots[2] = y
    slots[3] = hmul(b0p, x)
    slots[4] = h0
    links: list = [None] * n
    links[1] = act(hmul(r, b0), g)
    links[2] = act(z, g)
    links[3] = act(hmul(b0p, r), g)
    aux_prev = h0
    for i in range(1, s + 1):
        j = 3 * i + 3  # 1-based transcript position of the block start
        beta_i, gamma_i, h_i = betas[i - 1], gammas[i - 1], aux[i - 1]
        slots[j - 1] = hmul(x, gamma_i)
        slots[j] = hmul(beta_i, y)
        slots[j + 1] = h_i
        links[j - 1] = act(hmul(x, hmul(gamma_i, aux_prev)), g)
        links[j] = act(hmul(beta_i, hmul(z, gamma_i)), g)
        aux_prev = h_i
    vs = [act(slot, g) for slot in slots]
    links[4] = act(h0, vs[3])
    for i in range(1, s + 1):
        j = 3 * i + 3
        links[j + 1] = act(aux[i - 1], vs[j])
    links[0] = act(aux[s - 1], vs[0])
    internals = {
        "s": ops.h_tuple(slots),
        "witness": tup.witness,
        "kind": tup.kind,
        "random_links": (),
        "witness_links": (1, 2, 3) + tuple(3 * i + 3 for i in range(1, s + 1)),
    }
    return _assemble(ops, n, vs, links, cs, internals)


def sample_dist(
    platform: GroupAction,
    s: int,
    tup: DdhGaTuple,
    rng: Rng,
    closing_link: str = "r",
) -> DistributionSample | np.ndarray:
    """One hybrid later: the positions randomized in fake_prime are drawn
    uniformly here, and the challenge tuple feeds the remaining links. The
    closing link composes the witness element named by ``closing_link``
    ("r" or "z"). With a shaped tuple and "r", the links outside the
    uniform positions are fake_prime's, apply(s_{k+1} . s_k, g), except the
    closing link: it is apply(s_n . s_1, g), the reverse of fake_prime's
    apply(s_1 . s_n, g), so the two differ on non-abelian platforms
    (ROADMAP item 3)."""
    if closing_link not in ("r", "z"):
        raise ValueError("closing_link must be 'r' or 'z'")
    n = hybrid_regime(s)
    ops = actions._ops(platform, rng)
    draw_h, act, hmul, g = ops.draw_h, ops.act, ops.hmul, ops.g
    x, y, z, r = ops.from_h(tup.witness)
    h1 = draw_h(rng)
    h2 = draw_h(rng)
    betas = [draw_h(rng) for _ in range(s + 1)]
    beta_primes = [draw_h(rng) for _ in range(s + 1)]
    gammas = [draw_h(rng) for _ in range(s + 1)]
    cs = [draw_h(rng) for _ in range(n)]

    slots: list = [None] * n
    slots[0] = hmul(y, betas[0])
    slots[1] = h1
    slots[2] = h2
    slots[3] = hmul(y, beta_primes[0])
    slots[4] = hmul(gammas[0], x)
    links: list = [None] * n
    for i in range(1, s + 1):
        j = 3 * i + 3
        slots[j - 1] = hmul(betas[i], hmul(y, ops.hinv(gammas[i - 1])))
        slots[j] = hmul(y, beta_primes[i])
        slots[j + 1] = hmul(gammas[i], x)
    vs = [act(slot, g) for slot in slots]
    randomized = _randomized_indices(s)
    for k in randomized:
        links[k] = ops.draw_g(rng)
    links[4] = act(hmul(gammas[0], hmul(r, beta_primes[0])), g)
    for i in range(1, s + 1):
        j = 3 * i + 3
        links[j - 1] = act(hmul(betas[i], z), g)
        links[j + 1] = act(hmul(gammas[i], hmul(r, beta_primes[i])), g)
    closer = r if closing_link == "r" else z
    links[0] = act(hmul(gammas[s], hmul(closer, betas[0])), g)
    internals = {
        "s": ops.h_tuple(slots),
        "witness": tup.witness,
        "kind": tup.kind,
        "random_links": randomized,
        "closing_link_symbol": closing_link,
    }
    return _assemble(ops, n, vs, links, cs, internals)


# -- total-variation estimation ------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A map from a batch's (trials, 3n + 1) index rows to one bucket per
    row, each in [0, buckets). Columns [0, n) hold v, [n, 2n) w, [2n, 3n) Z
    and column 3n the key, as indices into the target's table."""

    label: str
    buckets: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        return self.fn(rows)


_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise (uint64 products wrap)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash per index row. Fixed-width encoding: each index as a
    16-bit little-endian field (a tabulable group has at most 1000
    elements), four to a 64-bit word, zero-padded; the words are folded in
    order through the splitmix64 finalizer, starting from the row width."""
    trials, width = rows.shape
    fields = np.zeros((trials, -(-width // 4) * 4), dtype="<u2")
    fields[:, :width] = rows
    h = np.full(trials, width, dtype=np.uint64)
    for word in fields.view("<u8").T:
        h = _mix64((h + _GOLDEN) ^ word)
    return h


def hash_partition(buckets: int = 64) -> Partition:
    """A generic hash of the whole row (``_hash_rows``)."""
    def fn(rows: np.ndarray) -> np.ndarray:
        return (_hash_rows(rows) % np.uint64(buckets)).astype(np.intp)

    return Partition(f"hash{buckets}", buckets, fn)


def element_value_partition(platform: GroupAction, field: str, index: int,
                            buckets: int = 64) -> Partition:
    """Bucket by the exact value of one transcript position (or the key,
    where ``index`` only has to lie in [0, n)): its table index mod
    ``buckets``, a sharp white-box partition for small target groups."""
    if field not in ("v", "w", "z", "sk"):
        raise ValueError(f"field must be one of v, w, z, sk, got {field!r}")
    buckets = min(buckets, platform.target.order)

    def fn(rows: np.ndarray) -> np.ndarray:
        n = (rows.shape[1] - 1) // 3
        if not 0 <= index < n:
            raise ValueError(f"index {index} outside [0, {n})")
        column = 3 * n if field == "sk" else "vwz".index(field) * n + index
        return rows[:, column].astype(np.intp) % buckets

    return Partition(f"{field}[{index}]%{buckets}", buckets, fn)


def identity_count_partition(platform: GroupAction, buckets: int = 8) -> Partition:
    """Bucket by how many broadcast w values equal the target identity."""
    ident = platform.tables.G.identity

    def fn(rows: np.ndarray) -> np.ndarray:
        n = (rows.shape[1] - 1) // 3
        return np.minimum((rows[:, n:2 * n] == ident).sum(axis=1), buckets - 1)

    return Partition(f"w-identity-count%{buckets}", buckets, fn)


DELTA = 0.05  # ci95's error level: it misses the partition TV with probability <= DELTA


@dataclass(frozen=True)
class DistanceEstimate:
    """``statistic`` is the plug-in TV over the partition's B buckets,
    T^ = 1/2 ||p^ - q^||_1 for the two sides' empirical bucket
    distributions at T trials each. ``ci95`` is [T^ - h, T^ + h] clipped to
    [0, 1], with h = sqrt((B - 1)/T) + sqrt(ln(2/DELTA)/T): it contains the
    partition TV, TV_P = 1/2 ||p - q||_1, with probability at least
    1 - DELTA = 95%, and it always contains ``statistic``.

    Proof. Bias: per bucket E|p^_i - p_i| <= sqrt(p_i (1 - p_i)/T), so by
    Cauchy-Schwarz E||p^ - p||_1 <= sqrt(B (1 - sum p_i^2)/T)
    <= sqrt((B - 1)/T) per side, and by the triangle inequality
    |E T^ - TV_P| <= 1/2 (E||p^ - p||_1 + E||q^ - q||_1) <= sqrt((B - 1)/T).
    Deviation: T^ is a function of 2T independent draws, and moving one
    draw to another bucket moves T^ by at most 1/T, so McDiarmid's
    inequality gives P(|T^ - E T^| >= e) <= 2 exp(-2 e^2 / (2T / T^2))
    = 2 exp(-T e^2), which is DELTA at e = sqrt(ln(2/DELTA)/T). Outside
    that event |T^ - TV_P| < h. TV_P lies in [0, 1], so clipping keeps
    coverage.

    The interval needs no resampling and no randomness beyond the draws.
    It is wide: at B = 64, h is 0.031 at 10^5 trials and 0.18 at 3000."""

    statistic: float
    ci95: tuple[float, float]
    samples_per_side: int
    partition: str
    buckets: int


def tv_distance(
    draw_a: Callable[[IndexStream], np.ndarray],
    draw_b: Callable[[IndexStream], np.ndarray],
    trials: int,
    partition: Partition,
    seed: int,
) -> DistanceEstimate:
    """Half the L1 distance between the two empirical bucket distributions,
    with a 95% interval for the partition's TV (see ``DistanceEstimate``).
    Each side's draw is called once, with an IndexStream of ``trials`` draws
    seeded by derive_seed(seed, side) for side "a" or "b", and returns that
    side's index rows (every sampler above does, through the batch backend);
    the partition buckets the rows. The expected noise floor for identical
    samplers is about 0.57 * sqrt(buckets / trials), inside the interval's
    half-width. A partition that puts every row in one bucket warns; its
    statistic is 0. A trial count that is not an int >= 1, such as True or
    2.5, raises IndexStream's ValueError before any draw."""
    counts = np.zeros((2, partition.buckets), dtype=np.int64)
    for side, (label, draw) in enumerate((("a", draw_a), ("b", draw_b))):
        rows = draw(IndexStream(derive_seed(seed, label), trials))
        counts[side] = np.bincount(partition(rows), minlength=partition.buckets)
    if np.count_nonzero(counts.sum(axis=0)) <= 1:
        warnings.warn("degenerate partition: all samples in one bucket", stacklevel=2)
    stat = 0.5 * float(np.abs(counts[0] / trials - counts[1] / trials).sum())
    half = math.sqrt((partition.buckets - 1) / trials) + math.sqrt(math.log(2 / DELTA) / trials)
    return DistanceEstimate(stat, (max(stat - half, 0.0), min(stat + half, 1.0)), trials,
                            partition.label, partition.buckets)


# -- exact conditional analysis ---------------------------------------------------


def exact_key_conditional(platform: GroupAction, sample: DistributionSample) -> dict[bytes, int]:
    """The exact conditional distribution of the key given one fake
    transcript, by exhaustive enumeration.

    The broadcast differences pin the link vector up to a single left
    translate: links = (t, t*a_1, ..., t*a_{n-1}) with a_k the running
    product of the first k broadcast values. Each translate t is weighted by
    the number of pair-key vectors reproducing the observed w's: for each
    link x, the size of the fiber of w over x (a coset of Stab_H(x), or
    empty).

    The enumeration runs over the platform's tables. Row t of the product
    table (``mul_rows[t]``) gives all n links of translate t in one
    ``itemgetter`` gather at the prefix indices a_k; the weight is the
    product of the fiber columns of the observed w's (``fiber_columns[w]``)
    at those links, an exact Python int however many parties there are; the
    key folds the links along the same rows. Returns integer weights per key
    payload (unnormalized; zero-weight keys omitted), in the order of each
    key's first translate.

    A transcript of another platform, or one holding a payload outside the
    target group, raises ForeignElementError; a party count below 3 raises
    RegimeError; v, w and z not each holding n payloads raises
    ProtocolStateError; a platform that is not tabulable raises
    EnumerationCapError.
    """
    transcript = sample.transcript
    if transcript.platform != platform.tag:
        raise ForeignElementError(
            f"transcript of platform {transcript.platform!r} given to {platform.tag!r}")
    if transcript.n < 3:
        raise RegimeError(f"party count {transcript.n} < 3")
    if not (len(transcript.v) == len(transcript.w) == len(transcript.z) == transcript.n):
        raise ProtocolStateError(f"v, w and z do not each hold {transcript.n} payloads")
    return _table_key_conditional(platform.tables, transcript)


def _table_key_conditional(tables, transcript: Transcript) -> dict[bytes, int]:
    G = tables.G
    rows, columns, elements = tables.mul_rows, tables.fiber_columns, G.elements
    actions._indices(G.index, G.group, transcript.v)  # checked, never read
    ws = actions._indices(G.index, G.group, transcript.w)
    zs = actions._indices(G.index, G.group, transcript.z)
    fibers = [columns[w] for w in ws]
    prefix = [G.identity]
    for z in zs[: transcript.n - 1]:
        prefix.append(rows[prefix[-1]][z])
    gather = itemgetter(*prefix)
    weights: dict[bytes, int] = {}
    for row in rows:
        links = gather(row)
        weight = math.prod(map(getitem, fibers, links))
        if weight:
            sk = links[0]
            for x in links[1:]:
                sk = rows[sk][x]
            key = elements[sk]
            weights[key] = weights.get(key, 0) + weight
    return weights


def conditional_is_uniform(platform: GroupAction, weights: dict[bytes, int]) -> bool:
    """True iff the integer-weighted key distribution is exactly uniform over
    the whole target group."""
    if len(weights) != platform.target.order:
        return False
    values = set(weights.values())
    return len(values) == 1
