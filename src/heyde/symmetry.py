"""Checks for the conditional-symmetry functional equation.

For distributions mu1, mu2 on X and an automorphism alpha, independent
variables xi_1 ~ mu1 and xi_2 ~ mu2 give L1 = xi_1 + xi_2 and
L2 = xi_1 + alpha(xi_2).  L2 is conditionally symmetric given L1 exactly
when the characteristic functions satisfy, for all dual u, v,

    f1(u + v) * f2(u + B v) = f1(u - v) * f2(u - B v)

with B the adjoint of alpha.  Equivalently, (L1, L2) and (L1, -L2) have
the same law.  For atomic measures that joint law is a finite mixture of
bivariate Gaussians (possibly degenerate) times points of
(Z(2) x G)^2, and components with distinct (covariance, mean, finite
point) are linearly independent, so the identity holds exactly when the
coefficients of the two laws agree component by component.  The
joint-law residual is the l1 norm of those coefficient differences; each
component's characteristic function has modulus at most 1, so it bounds
the identity's deviation over the whole dual from above.  Real key
coordinates are matched by single-linkage clustering: sorted values join
one cluster while each gap is at most KEY_TOL * max(1, size), size the
sum of the absolute operands the key was formed from (so at least |x|).
That is a documented tolerance, not float rounding.

The module also evaluates the identity on grids (continuous dual
coordinates sampled, finite ones exhausted), by Monte Carlo on sampled
variables, and exactly for measures supported on the finite part, and it
decides the order-2 convolution relation between two measures on
coefficient tables like the joint law's.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambient import AmbientGroup, XAutomorphism, YPoint
from .finite_abelian import GroupAutomorphism, GroupElement, pairing
from .measures import (
    _BLOCK,
    AtomicSignedMeasure,
    _check_samplable,
    _coset_probs,
    _draw_blocks,
    char_values,
    order_two_measure,
)

__all__ = [
    "KEY_TOL",
    "JointKey",
    "JointLawReport",
    "joint_law_report",
    "joint_law_residual",
    "SGrid",
    "ResidualReport",
    "equation_residual",
    "equation_residual_report",
    "McWorst",
    "McReport",
    "mc_symmetry_test",
    "finite_exact_check",
    "DeltaRelation",
    "delta_relation",
    "char_sup_distance",
    "default_s_scale",
]

KEY_TOL = 1e-9

# the reflection (L1, L2) -> (L1, -L2) on the rows of the real keys
_REFLECTED = np.array([[1.0], [-1.0], [1.0], [1.0], [-1.0]])


def _gaussian_sigmas(*measures: AtomicSignedMeasure) -> list[float]:
    return [s for mu in measures for s in mu.sigma.tolist() if s > 0.0]


def default_s_scale(*measures: AtomicSignedMeasure) -> float:
    """Half-width 5/sqrt(min positive sigma), or 10 when no Gaussian part."""
    sigmas = _gaussian_sigmas(*measures)
    if not sigmas:
        return 10.0
    return 5.0 / math.sqrt(min(sigmas))


@dataclass(frozen=True)
class JointKey:
    """One component of the law of (L1, L2) and its unmatched coefficient.

    n is the Z(2) coordinate L1 and L2 share, g1 and g2 their points in G,
    mean the real mean of (L1, L2), and coefficient the summed coefficient
    of law(L1, L2) - law(L1, -L2) on this component.
    """

    n: int
    g1: tuple[int, ...]
    g2: tuple[int, ...]
    mean: tuple[float, float]
    coefficient: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g1": list(self.g1),
            "g2": list(self.g2),
            "mean": list(self.mean),
            "coefficient": self.coefficient,
        }


@dataclass(frozen=True)
class JointLawReport:
    residual: float
    worst: JointKey | None  # None when every coefficient cancels exactly


def _cluster_labels(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Single-linkage cluster of each value: sorted neighbours share a
    cluster while their gap is at most KEY_TOL * max(1, size) of either.
    size bounds the operands a key was summed from (|x| <= size), so a
    key that cancels to near 0 keeps the rounding error of its operands
    inside the tolerance.  x of shape (k, n) is clustered row by row."""
    order = np.argsort(x, kind="stable")
    if x.ndim > 1:
        order += np.arange(len(x))[:, None] * x.shape[1]  # flat indices
    v = np.take(x, order)
    w = np.take(size, order)
    scale = np.maximum(w[..., :-1], w[..., 1:])
    np.maximum(scale, 1.0, out=scale)
    split = v[..., 1:] - v[..., :-1] > KEY_TOL * scale
    ranks = np.zeros(x.shape, dtype=np.int64)
    np.add.accumulate(split, axis=-1, dtype=np.int64, out=ranks[..., 1:])
    labels = np.empty(x.shape, dtype=np.int64)
    np.put(labels, order, ranks)
    return labels


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the columns of keys, int64 rows of shape (k, n), by one
    stable lexicographic sort.  Returns the sort order, which places of
    the sorted order start a group, and the group of each column, groups
    numbered in key order."""
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.logical_or.reduce(ordered[:, 1:] != ordered[:, :-1], axis=0, out=new[1:])
    ranks = np.add.accumulate(new, dtype=np.intp)
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    return order, new, inverse


def _sum_by_key(keys: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct key, in key order: the key (one row), the index of its
    first column in keys, and the sums of each row of coef (shape (c, n))
    over its columns.  keys are int64 of shape (k, n); each sum adds in
    column order from 0.0, as np.add.at does."""
    order, new, inverse = _group(keys)
    first = order[new]
    sums = np.empty((len(first), len(coef)))
    for col, w in enumerate(coef):
        sums[:, col] = np.bincount(inverse, w, len(first))
    return keys[:, first].T, first, sums


def _real_keys(s1, s2, t1, t2, a: float) -> np.ndarray:
    """Real key of each atom pair (i, j), one column per pair; rows var L1,
    cov(L1, L2), var L2, mean L1, mean L2."""
    return np.stack(
        [
            np.add.outer(s1, s2),
            np.add.outer(s1, a * s2),
            np.add.outer(s1, a * a * s2),
            np.add.outer(t1, t2),
            np.add.outer(t1, a * t2),
        ]
    ).reshape(5, -1)


def _atoms(mu: AtomicSignedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Each term's real atom (sigma, shift), atoms numbered by runs of
    equal consecutive values (canonical terms are sorted, so one run per
    atom), and the first term of each atom."""
    new = np.ones(len(mu.c), dtype=bool)
    np.not_equal(mu.sigma[1:], mu.sigma[:-1], out=new[1:])
    new[1:] |= mu.shift[1:] != mu.shift[:-1]
    return np.cumsum(new) - 1, np.flatnonzero(new)


def joint_law_report(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
) -> JointLawReport:
    """l1 distance between the coefficients of law(L1, L2) and law(L1, -L2).

    Term i of mu1 and term j of mu2 put c_i c_j on the (L1, L2) component
    with covariance (s_i + s_j, s_i + a s_j, s_i + a^2 s_j), mean
    (t_i + t_j, t_i + a t_j) and finite point (m_i + m_j, g_i + g_j,
    g_i + alpha_G g_j), and -c_i c_j on its reflection, which negates
    s_i + a s_j, t_i + a t_j and g_i + alpha_G g_j.  The residual bounds
    the identity's deviation over the whole dual and is 0 exactly when
    the identity holds (up to the KEY_TOL clustering of real keys).

    The real key of a term pair is that of its pair of real atoms (sigma,
    shift), so the real columns are clustered over the 2 R1 R2 atom pairs
    (and reflections), R_j the atom count of mu_j, and each distinct row
    of cluster labels is ranked.  Atoms are numbered in order of first
    term and pairs enumerated like the term pairs, so each value's first
    and last atom pair are those of its first and last term pair: the
    clusters are those of the term pairs.  Each term pair then has one
    int64 key, rank * 2|G|^2 + the row-major index of its finite point,
    whose order is the lexicographic order of (labels, finite point), and
    one stable sort groups them.  Cost O(U1 U2 log(U1 U2)) for term counts
    U1, U2, independent of |G|.  A key or coefficient beyond float range
    leaves the residual undefined and raises ValueError.
    """
    if mu1.group != mu2.group or alpha.group != mu1.group:
        raise ValueError("measures and automorphism must share one group")
    if not (len(mu1.c) and len(mu2.c)):
        return JointLawReport(0.0, None)
    G = mu1.group.G
    orders = np.array(G.cyclic_orders, dtype=np.int64)
    strides = np.array([math.prod(G.cyclic_orders[k + 1 :]) for k in range(G.rank)])
    a = alpha.a
    # row-major index of each term pair's finite point (n, f1, f2), and of
    # its reflection's (n, f1, -f2)
    f2 = (mu1.g[:, None] + mu2.g @ np.array(alpha.alpha_G.matrix, dtype=np.int64).T) % orders
    finite = np.add.outer(mu1.m, mu2.m) % 2 * G.order
    finite += ((mu1.g[:, None] + mu2.g) % orders) @ strides
    finite *= G.order
    finite = np.stack([finite + f2 @ strides, finite + (-f2 % orders) @ strides])
    (atom1, first1), (atom2, first2) = _atoms(mu1), _atoms(mu2)
    s1, t1, s2, t2 = mu1.sigma[first1], mu1.shift[first1], mu2.sigma[first2], mu2.shift[first2]
    # an overflowing input turns into inf or NaN here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        real = _real_keys(s1, s2, t1, t2, a)
        real = np.concatenate([real, real * _REFLECTED], axis=1)
        # operand size of each key: the same sums over absolute values
        size = _real_keys(np.abs(s1), np.abs(s2), np.abs(t1), np.abs(t2), abs(a))
        size = np.concatenate([size, size], axis=1)
        spread = real.max(axis=1) - real.min(axis=1)
        rank = _group(_cluster_labels(real, size))[2].reshape(2, len(s1), len(s2))
        # keys stay below 2 R1 R2 * 2|G|^2 with |G| <= MAX_ENUMERABLE_ORDER:
        # within int64 for any pair count that fits in memory
        keys = rank[:, atom1[:, None], atom2] * (2 * G.order**2) + finite
        coef = np.multiply.outer(mu1.c, mu2.c).ravel()
        _, first, sums = _sum_by_key(keys.reshape(1, -1), np.concatenate([coef, -coef])[None])
        sums = sums[:, 0]
        residual = float(np.abs(sums).sum())
    if not np.isfinite(spread).all():
        residual = math.nan  # keys beyond float range cannot be compared
    if not math.isfinite(residual):
        raise ValueError(f"equation residual is not finite ({residual})")
    k = int(np.argmax(np.abs(sums)))
    if sums[k] == 0.0:
        return JointLawReport(residual, None)
    # the worst key's first term pair, its point and mean as the keys have them
    reflected, pair = divmod(int(first[k]), len(mu1.c) * len(mu2.c))
    i, j = divmod(pair, len(mu2.c))
    mean2 = mu1.shift[i] + a * mu2.shift[j]
    worst = JointKey(
        int((mu1.m[i] + mu2.m[j]) % 2),
        tuple(((mu1.g[i] + mu2.g[j]) % orders).tolist()),
        tuple((-f2[i, j] % orders if reflected else f2[i, j]).tolist()),
        (float(mu1.shift[i] + mu2.shift[j]), float(mean2 * -1.0 if reflected else mean2)),
        float(sums[k]),
    )
    return JointLawReport(residual, worst)


def joint_law_residual(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
) -> float:
    return joint_law_report(mu1, mu2, alpha).residual


@dataclass(frozen=True)
class SGrid:
    """Symmetric grid of real dual coordinates; smax = None auto-scales."""

    smax: float | None = None
    points: int = 33

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")

    def values(self, *measures: AtomicSignedMeasure) -> np.ndarray:
        smax = self.smax if self.smax is not None else default_s_scale(*measures)
        return np.linspace(-smax, smax, self.points)


@dataclass(frozen=True)
class ResidualReport:
    residual: float
    smax: float
    points: int


def equation_residual_report(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
    grid: SGrid | None = None,
) -> ResidualReport:
    """Max of |f1(u+v) f2(u+Bv) - f1(u-v) f2(u-Bv)| over the probe grid.

    Real dual coordinates of u and v run over the grid; the finite dual
    coordinates are exhausted, in blocks of first coordinates h1 to bound
    memory.  The two sides depend on the Z(2) duals only through their sum,
    so that sum is what is enumerated.  A non-finite residual raises
    ValueError, so it never reads as a pass.
    """
    if mu1.group != mu2.group or alpha.group != mu1.group:
        raise ValueError("measures and automorphism must share one group")
    grid = grid or SGrid()
    s = grid.values(mu1, mu2)
    a = alpha.a
    G = mu1.group.G
    H = G.order
    coords = G.all_coords()
    adj_coords = coords @ np.array(alpha.alpha_G.adjoint().matrix, dtype=np.int64).T
    s1, s2 = np.meshgrid(s, s, indexing="ij")
    s1 = s1.ravel()
    s2 = s2.ravel()
    s_up, s_um = s1 + s2, s1 - s2
    s_ap, s_am = s1 + a * s2, s1 - a * s2

    residual = 0.0
    h_block = max(1, 4096 // max(H, 1))
    for start in range(0, H, h_block):
        h1 = coords[start : start + h_block, None, :]
        n_sum = np.repeat([0, 1], len(h1) * H)

        def duals(h2: np.ndarray) -> np.ndarray:
            return np.tile((h1 + h2).reshape(-1, G.rank), (2, 1))

        # an overflowing input turns into NaN here and is refused just below
        with np.errstate(over="ignore", invalid="ignore"):
            A1p = char_values(mu1, s_up, n_sum, duals(coords))
            A2p = char_values(mu2, s_ap, n_sum, duals(adj_coords))
            A1m = char_values(mu1, s_um, n_sum, duals(-coords))
            A2m = char_values(mu2, s_am, n_sum, duals(-adj_coords))
            block = float(np.abs(A1p * A2p - A1m * A2m).max())
        if not math.isfinite(block):
            raise ValueError(f"equation residual is not finite ({block})")
        residual = max(residual, block)
    return ResidualReport(residual, float(abs(s).max()), grid.points)


def equation_residual(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
    grid: SGrid | None = None,
) -> float:
    return equation_residual_report(mu1, mu2, alpha, grid).residual


def char_sup_distance(
    mu: AtomicSignedMeasure,
    nu: AtomicSignedMeasure,
    s_values: np.ndarray | None = None,
) -> float:
    """Sup of |char(mu) - char(nu)| over an s-grid times the full finite dual."""
    if mu.group != nu.group:
        raise ValueError("measures live on different groups")
    diff = mu + nu * (-1.0)
    if not len(diff.c):
        return 0.0
    if s_values is None:
        s_values = SGrid().values(mu, nu)
    return float(np.abs(char_values(diff, np.asarray(s_values, dtype=float))).max())


@dataclass(frozen=True)
class McWorst:
    """The probe pair (u, v) that attains the Monte Carlo statistic, and its
    index in the probe list."""

    index: int
    u: YPoint
    v: YPoint

    def to_json(self) -> dict:
        return {"index": self.index, "u": self.u.to_json(), "v": self.v.to_json()}


@dataclass(frozen=True)
class McReport:
    statistic: float
    threshold: float
    passed: bool
    n_samples: int
    probe_count: int
    worst: McWorst | None = None  # None when there are no probes


def _default_probe_pairs(
    group: AmbientGroup, *measures: AtomicSignedMeasure
) -> list[tuple[YPoint, YPoint]]:
    """A small deterministic set of (u, v) dual probe pairs."""
    sigmas = _gaussian_sigmas(*measures)
    s0 = 0.5 / math.sqrt(max(sigmas)) if sigmas else 0.7
    G = group.G
    # one generator per cyclic factor, else atoms varying only along a
    # later factor are invisible to every probe
    hs = [G.trivial_character()]
    for k in range(G.rank):
        gen = G.character([1 if j == k else 0 for j in range(G.rank)])
        if not gen.is_trivial:
            hs.append(gen)
    singles = [YPoint(group, s, n, h) for s in (0.0, s0) for n in (0, 1) for h in hs]
    # singles[0] is the zero dual point; the pair of two zeros tests nothing
    return [(u, v) for u in singles for v in singles][1:]


def _on_two_threads(first, second) -> list:
    """[first(), second()], second run on a daemon worker thread, in a copy
    of the caller's context (numpy's error state carries over), while the
    caller runs first; the two overlap where numpy releases the GIL.  The
    worker is joined before any return or raise; its exception is raised
    here, after one raised by first.
    """
    results: list = [None, None]
    failure: list[BaseException] = []

    def run_second() -> None:
        try:
            results[1] = second()
        except BaseException as exc:  # handed to the caller
            failure.append(exc)

    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(run_second,), daemon=True
    )
    worker.start()
    try:
        results[0] = first()
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return results


def _sample_pair(
    mu1: AtomicSignedMeasure, mu2: AtomicSignedMeasure, seed: int, count: int
) -> tuple:
    """count i.i.d. pairs (xi_1, xi_2), drawn grouped by coset pair.

    Returns counts, (t1, m1, g1), (t2, m2, g2): counts[k1, k2] pairs have
    xi_1 in coset k1 of mu1 and xi_2 in coset k2 of mu2, m and g give each
    coset's finite point, and t1, t2 the real parts of the draws.  t1 holds
    the cells (k1, k2) in row-major order and t2 in column-major order; the
    i-th draw of a cell on one side is paired with the i-th on the other.
    mu1 and then mu2 are checked before any draw.  Of two streams spawned
    from seed, the first draws the table, then xi_1 on the calling thread;
    the second draws xi_2 on a worker thread.  Draws within a coset block
    are i.i.d. and independent of the counts, so the pairs have the law of
    independent draws of xi_1 and xi_2.
    """
    _check_samplable(mu1)
    _check_samplable(mu2)
    cosets1, cosets2 = mu1._cosets, mu2._cosets
    rng1, rng2 = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    probs = np.outer(_coset_probs(cosets1), _coset_probs(cosets2))
    counts = rng1.multinomial(count, probs.ravel()).reshape(probs.shape)
    t1, t2 = _on_two_threads(
        lambda: _draw_blocks(cosets1, counts.sum(axis=1), rng1),
        lambda: _draw_blocks(cosets2, counts.sum(axis=0), rng2),
    )
    rank = mu1.group.G.rank

    def points(cosets):
        # (m, g) of each coset
        m = np.array([m for (m, _), _ in cosets], dtype=np.int64)
        return m, np.array([g for (_, g), _ in cosets], dtype=np.int64).reshape(-1, rank)

    return counts, (t1, *points(cosets1)), (t2, *points(cosets2))


def _cos_sin(cos: np.ndarray, sin: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite cos, which holds x, with cos(x) and fill sin with sin(x),
    from one tangent of the half angle: with tau = tan(x/2),

        cos(x) = (1 - tau**2) / (1 + tau**2),  sin(x) = 2 tau / (1 + tau**2).

    The three arrays have one length; scratch is overwritten.  The gain
    rests on numpy's AVX-512 float64 tan kernel: where numpy dispatches to
    it, tan is vectorized and float64 sin and cos are not, and this costs
    a few ns per element where np.sin plus np.cos cost 25-56 ns (numpy
    2.4.6 on an AVX-512 host, the only kind measured).  On AVX2 or ARM
    hosts np.tan may be scalar libm, and the speed there is unmeasured.
    On that host, against np.cos and np.sin, the absolute error is at most
    2.2e-16 and the relative error of sin at most 3.5e-16 for |x| normal,
    near and at odd multiples of pi (the poles of tau) included; tan(x/2)
    of a finite float is never infinite, so every output is finite.  Each
    element's result depends on its x alone, so chunking does not change a
    bit.
    """
    np.multiply(cos, 0.5, out=sin)
    np.tan(sin, out=sin)
    np.square(sin, out=scratch)
    np.subtract(1.0, scratch, out=cos)
    scratch += 1.0
    cos /= scratch
    sin += sin
    sin /= scratch


def _probe_sums(
    alpha: XAutomorphism, draws: tuple, probes: Sequence[tuple[YPoint, YPoint]]
) -> np.ndarray:
    """sum over the pairs of pair(L1, u) * Im pair(L2, v), per probe pair.

    draws are the pairs of _sample_pair.  On a coset-pair cell (k1, k2) the
    finite parts of L1 and L2, (m1 + m2, g1 + g2) and (m1 + m2,
    g1 + alpha_G g2), are constant, and so are the finite factors chi_u of
    pair(L1, u) and chi_v of pair(L2, v).  With T1, T2 the real parts of L1
    and L2 and e = exp(i s_u T1), the sum is

        sum_c chi_u(c) [Re chi_v(c) A_sin(c) + Im chi_v(c) A_cos(c)],

    A_sin(c) and A_cos(c) the sums of e sin(s_v T2) and e cos(s_v T2) over
    the C <= min(N, K1 K2) occupied cells c.  A cell is one run of t1 and
    one of t2, cut into pieces of at most _BLOCK pairs; two threads split
    the pieces at the boundary nearest N/2 and pack them into blocks of at
    most _BLOCK pairs.  Per block, T1 = t1 + t2 and T2 = t1 + a t2 are
    written piece by piece into reused buffers, _cos_sin runs once per
    distinct nonzero s on each side (at s = 0, cos and sin are 1 and 0),
    and one np.add.reduceat per product sums the pieces.  A piece's sum
    depends on its pairs alone, and the piece sums are added up per cell
    in piece order, so the result is bit for bit that of one thread.
    Cost: O(K1 K2 + C + N/_BLOCK) pieces, O(N) per distinct nonzero s and
    (s_u, s_v), O(C) per probe pair.  Memory beyond the draws: O(_BLOCK)
    per thread, whatever the size of a cell, and four sums per piece and
    distinct (s_u, s_v).
    """
    counts, (t1, m1, g1), (t2, m2, g2) = draws
    k1, k2 = np.nonzero(counts)
    sizes = counts[k1, k2]
    # where each cell starts: t1 holds the cells in row-major order, t2 in
    # column-major order
    from1 = np.cumsum(sizes) - sizes
    from2 = np.cumsum(counts.T).reshape(counts.T.shape).T[k1, k2] - sizes
    cell_m = m1[k1] ^ m2[k2]

    def finite_factors(ys, cell_f):
        # chi over the occupied cells, one column per distinct (n, h); the
        # pairing is periodic in cell_f
        columns: dict[tuple, int] = {}
        index = [columns.setdefault((y.n, y.h.coords), len(columns)) for y in ys]
        h, n = [c[1] for c in columns], [c[0] for c in columns]
        return np.array(index), pairing(alpha.group.G, cell_f, h, cell_m, n)

    A = np.array(alpha.alpha_G.matrix, dtype=np.int64)
    qu, chi_u = finite_factors([u for u, _ in probes], g1[k1] + g2[k2])
    qv, chi_v = finite_factors([v for _, v in probes], g1[k1] + g2[k2] @ A.T)

    groups: dict[tuple[float, float], list[int]] = {}
    for k, (u, v) in enumerate(probes):
        groups.setdefault((u.s, v.s), []).append(k)

    # (start in t1, start in t2, length) per piece; piece p holds the pairs
    # at[p] to at[p + 1], and cell c the pieces first[c] to first[c + 1]
    pieces = [
        (x + i, y + i, min(_BLOCK, k - i))
        for x, y, k in zip(from1.tolist(), from2.tolist(), sizes.tolist())
        for i in range(0, k, _BLOCK)
    ]
    at = np.append([x for x, _, _ in pieces], len(t1))
    first = np.searchsorted(at, from1)

    def piece_sums(lo: int, hi: int) -> dict:
        # per (s_u, s_v), the sums of pieces lo to hi: rows Re and Im of
        # A_sin, then of A_cos
        width = min(_BLOCK, int(at[hi] - at[lo]))
        prod = np.empty(width)
        # (cos(s T), sin(s T)) per side j (0 for T1, 1 for T2) and distinct
        # nonzero s
        sides = {(j, s) for s_pair in groups for j, s in enumerate(s_pair) if s != 0.0}
        trig = {side: (np.empty(width), np.empty(width)) for side in sorted(sides)}
        sums = {s_pair: np.zeros((4, hi - lo)) for s_pair in groups}
        work = []  # (row, x, y): the row sums x * y, or x where y is None
        for (s_u, s_v), rows in sums.items():
            if s_u != 0.0 and s_v != 0.0:
                (cos_u, sin_u), (cos_v, sin_v) = trig[0, s_u], trig[1, s_v]
                factors = ((cos_u, sin_v), (sin_u, sin_v), (cos_u, cos_v), (sin_u, cos_v))
                work += [(row, x, y) for row, (x, y) in zip(rows, factors)]
            elif s_v != 0.0:
                work += [(rows[0], trig[1, s_v][1], None), (rows[2], trig[1, s_v][0], None)]
            elif s_u != 0.0:
                work += [(rows[2], trig[0, s_u][0], None), (rows[3], trig[0, s_u][1], None)]
        p = lo
        while p < hi:
            # the block: the most whole pieces from p within _BLOCK pairs
            q = min(int(np.searchsorted(at, at[p] + _BLOCK, "right")) - 1, hi)
            n, seg = int(at[q] - at[p]), at[p:q] - at[p]
            for (j, s), (cos_s, sin_s) in trig.items():
                for (x, y, k), to in zip(pieces[p:q], seg.tolist()):
                    T = cos_s[to : to + k]
                    if j == 0:
                        np.add(t1[x : x + k], t2[y : y + k], out=T)
                    else:
                        np.multiply(t2[y : y + k], alpha.a, out=T)
                        T += t1[x : x + k]
                cos_s[:n] *= s
                _cos_sin(cos_s[:n], sin_s[:n], prod[:n])
            for row, x, y in work:
                w = x[:n] if y is None else np.multiply(x[:n], y[:n], out=prod[:n])
                np.add.reduceat(w, seg, out=row[p - lo : q - lo])
            p = q
        return sums

    cut = int(np.argmin(np.abs(at - len(t1) / 2)))
    low, high = _on_two_threads(lambda: piece_sums(0, cut), lambda: piece_sums(cut, len(pieces)))
    sums = np.empty(len(probes), dtype=complex)
    for s_pair, members in groups.items():
        rows = np.concatenate((low[s_pair], high[s_pair]), axis=1)
        re_sin, im_sin, re_cos, im_cos = np.add.reduceat(rows, first, axis=1)
        a_cos = sizes if s_pair == (0.0, 0.0) else re_cos + 1j * im_cos
        chi = (re_sin + 1j * im_sin)[:, None] * chi_v.real + a_cos[:, None] * chi_v.imag
        sums[members] = (chi_u.T @ chi)[qu[members], qv[members]]
    return sums


def mc_symmetry_test(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
    n_samples: int,
    probes: Sequence[tuple[YPoint, YPoint]] | None = None,
    seed: int = 0,
) -> McReport:
    """Monte Carlo check of conditional symmetry of L2 given L1.

    The statistic is the max over probe pairs (u, v) of

        | mean pair(L1,u)*pair(L2,v) - mean pair(L1,u)*pair(-L2,v) |

    which equals 2 |mean pair(L1,u) * Im pair(L2,v)|, and the acceptance
    threshold is 4/sqrt(n_samples): the probes are
    bounded test functions, so a true symmetry keeps every difference
    within a few multiples of the Monte Carlo scale 1/sqrt(n).  The report
    names the probe pair that attains the max: the first one within
    KEY_TOL of it, since conjugate probes can tie up to rounding.
    The pairs are drawn grouped by coset pair (see _sample_pair): one
    multinomial table of K1 K2 coset-pair counts, K1 and K2 the measures'
    coset counts, then O(N) per measure (a continuous coset with no
    negative term is drawn directly from its mixture; rejection makes about
    N / p proposals on any other, of acceptance rate p; the normal and
    uniform draws are most of the rest).  The probe stage works cell
    by cell over the C <= min(N, K1 K2) occupied cells, cut into
    O(C + N/_BLOCK) pieces: O(K1 K2) to find them, one numpy step per piece
    and side, O(N) per distinct nonzero s and per distinct (s_u, s_v) other
    than (0, 0), and O(C) per probe pair (see _probe_sums); it neither
    sorts nor gathers the N pairs, and its trig is one vectorized tangent
    per pair and distinct nonzero s.  Both stages run on two threads, and
    the result is bit for bit that of one thread.  Memory: the draws take
    16 bytes per pair; beyond them, sampling holds 1 byte per draw of a
    coset drawn directly, or 9 bytes per proposal of a coset's first
    rejection round (at most 10^6), plus O(_BLOCK) per thread, and the
    probe stage O(_BLOCK) per thread.  A non-finite statistic, or
    n_samples < 1, raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    group = mu1.group
    if probes is None:
        probes = _default_probe_pairs(group, mu1, mu2)
    draws = _sample_pair(mu1, mu2, seed, n_samples)
    threshold = 4.0 / math.sqrt(n_samples)
    if not probes:
        return McReport(0.0, threshold, True, n_samples, 0)
    sums = np.abs(_probe_sums(alpha, draws, probes))
    top = float(sums.max())
    stat = 2.0 / n_samples * top
    if not math.isfinite(stat):
        raise ValueError(f"Monte Carlo statistic is not finite ({stat})")
    k = int(np.argmax(sums >= top - KEY_TOL * top))
    worst = McWorst(k, *probes[k])
    return McReport(stat, threshold, bool(stat <= threshold), n_samples, len(probes), worst)


def finite_exact_check(
    w1: AtomicSignedMeasure,
    w2: AtomicSignedMeasure,
    alpha_G: GroupAutomorphism,
) -> float:
    """Exact residual of the identity for finite-part measures.

    Both measures must be supported on Z(2) x G (every atom at t = 0); the
    automorphism is (I, alpha_G) on Z(2) x G, and the residual is the
    joint-law residual, which bounds the deviation over all dual pairs.
    """
    if w1.group != w2.group:
        raise ValueError("measures live on different groups")
    for name, w in (("first", w1), ("second", w2)):
        if not w.is_finite_supported:
            raise ValueError(f"{name} measure is not supported on the finite part")
    return joint_law_residual(w1, w2, XAutomorphism(w1.group, 1.0, alpha_G))


@dataclass(frozen=True)
class DeltaRelation:
    """Outcome of the order-2 convolution comparison of two distributions."""

    branch: str  # "tau1_eq_tau2_conv_delta" | "tau2_eq_tau1_conv_delta" | "neither"
    d: float | None = None
    delta: AtomicSignedMeasure | None = None
    flags: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.branch != "neither"


def _parity_sums(*taus: AtomicSignedMeasure, dk: GroupElement | None = None):
    """The coefficient table of taus per (sigma, shift, g) key of any of
    them, real parts clustered under KEY_TOL.  Returns the key rows (sigma
    and shift cluster labels, then g), each key's first row in the rows
    of taus in turn, and columns even_j, odd_j per tau j: the m = 0
    coefficient plus (even) or minus (odd) the m = 1 one, taus[0] moved by
    dk in G.  On dual parity 0 (1) a tau's characteristic function is its
    even (odd) sums times factors of modulus at most 1."""
    n = sum(len(tau.c) for tau in taus)
    real = np.empty((2, n))
    keys = np.empty((2 + taus[0].group.G.rank, n), dtype=np.int64)
    coef = np.zeros((2 * len(taus), n))
    stop = 0
    for j, tau in enumerate(taus):
        start, stop = stop, stop + len(tau.c)
        real[0, start:stop] = tau.sigma
        real[1, start:stop] = tau.shift
        keys[2:, start:stop] = tau.g.T
        coef[2 * j, start:stop] = tau.c
        coef[2 * j + 1, start:stop] = np.where(tau.m == 0, tau.c, -tau.c)
    if dk is not None:
        n0 = len(taus[0].c)
        orders = np.array(taus[0].group.G.cyclic_orders)[:, None]
        keys[2:, :n0] = (keys[2:, :n0] + np.array(dk.coords)[:, None]) % orders
    keys[:2] = _cluster_labels(real, np.abs(real))
    return _sum_by_key(keys, coef)


def delta_relation(
    tau1: AtomicSignedMeasure,
    tau2: AtomicSignedMeasure,
    tol: float = 1e-9,
    dk: GroupElement | None = None,
) -> DeltaRelation:
    """Decide whether tau1 moved by dk in G is tau2 * delta, or tau2 is it
    convolved with delta.

    delta = ((1+d)/2) E_0 + ((1-d)/2) E_p, p the order-2 point, keeps each
    key's even sum and multiplies its odd sum by d (see _parity_sums).  So
    the even sums must agree within tol in l1, and for the odd sums x of
    one side and y of the other, d = <x, y>/<y, y> (1 when y vanishes) must
    have |d| <= 1 + tol and sum |x - d y| <= tol.  Ties at |d| = 1 report
    the first branch and are flagged.
    """
    if tau1.group != tau2.group:
        raise ValueError("measures live on different groups")
    even1, odd1, even2, odd2 = _parity_sums(tau1, tau2, dk=dk)[2].T
    if np.abs(even1 - even2).sum() > tol:
        return DeltaRelation("neither")
    for branch, x, y in (
        ("tau1_eq_tau2_conv_delta", odd1, odd2),
        ("tau2_eq_tau1_conv_delta", odd2, odd1),
    ):
        yy = float(y @ y)
        d = float(x @ y) / yy if yy > 0.0 else 1.0
        if abs(d) <= 1.0 + tol and np.abs(x - d * y).sum() <= tol:
            break
    else:
        return DeltaRelation("neither")
    flags: tuple[str, ...] = ()
    if abs(abs(d) - 1.0) <= tol:
        flags = ("both_branches_fit",)
        d = math.copysign(1.0, d)
    return DeltaRelation(branch, d, order_two_measure(tau1.group, d), flags)
