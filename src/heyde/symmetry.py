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
    inside the tolerance."""
    order = np.argsort(x, kind="stable")
    v = x[order]
    w = size[order]
    scale = np.maximum(1.0, np.maximum(w[:-1], w[1:]))
    labels = np.empty(len(x), dtype=np.int64)
    labels[order] = np.concatenate(([0], np.cumsum(np.diff(v) > KEY_TOL * scale)))
    return labels


def _sum_by_key(real, size, finite, coef) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per key, its row (the cluster labels of the real columns, then
    finite), its first row of real and finite, and the sums of coef over
    its rows; a key is a row of real (columns clustered with operand sizes
    size) and of finite."""
    labels = np.column_stack([_cluster_labels(x, w) for x, w in zip(real.T, size.T)])
    rows = np.hstack([labels, finite])
    # rows in lexicographic order; the sort is stable, so each key's first
    # row comes first
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    sums = np.zeros((int(new.sum()),) + coef.shape[1:])
    np.add.at(sums, inverse, coef)
    return ordered[new], order[new], sums


def _real_keys(s1, s2, t1, t2, a: float) -> np.ndarray:
    """Real key of each term pair (i, j), one row per pair; columns var L1,
    cov(L1, L2), var L2, mean L1, mean L2."""
    return np.stack(
        [
            np.add.outer(s1, s2),
            np.add.outer(s1, a * s2),
            np.add.outer(s1, a * a * s2),
            np.add.outer(t1, t2),
            np.add.outer(t1, a * t2),
        ],
        axis=-1,
    ).reshape(-1, 5)


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
    the identity holds (up to the KEY_TOL clustering of real keys).  Cost
    O(U1 U2 log(U1 U2)) for atom counts U1, U2, independent of |G|.  A key
    or coefficient beyond float range leaves the residual undefined and
    raises ValueError.
    """
    if mu1.group != mu2.group or alpha.group != mu1.group:
        raise ValueError("measures and automorphism must share one group")
    if not (len(mu1.c) and len(mu2.c)):
        return JointLawReport(0.0, None)
    G = mu1.group.G
    orders = np.array(G.cyclic_orders, dtype=np.int64)
    a = alpha.a
    c1, s1, t1, m1, g1 = mu1.c, mu1.sigma, mu1.shift, mu1.m, mu1.g
    c2, s2, t2, m2, g2 = mu2.c, mu2.sigma, mu2.shift, mu2.m, mu2.g
    g2a = g2 @ np.array(alpha.alpha_G.matrix, dtype=np.int64).T
    n = np.add.outer(m1, m2).reshape(-1, 1) % 2
    f1 = ((g1[:, None, :] + g2[None, :, :]) % orders).reshape(-1, G.rank)
    f2 = ((g1[:, None, :] + g2a[None, :, :]) % orders).reshape(-1, G.rank)
    finite = np.concatenate([np.hstack([n, f1, f2]), np.hstack([n, f1, -f2 % orders])])
    # an overflowing input turns into inf or NaN here and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        real = _real_keys(s1, s2, t1, t2, a)
        real = np.concatenate([real, real * np.array([1.0, -1.0, 1.0, 1.0, -1.0])])
        # operand size of each key: the same sums over absolute values
        size = _real_keys(np.abs(s1), np.abs(s2), np.abs(t1), np.abs(t2), abs(a))
        size = np.concatenate([size, size])
        coef = np.multiply.outer(c1, c2).ravel()
        coef = np.concatenate([coef, -coef])
        spread = real.max(axis=0) - real.min(axis=0)
        _, first, sums = _sum_by_key(real, size, finite, coef)
        residual = float(np.abs(sums).sum())
    if not np.isfinite(spread).all():
        residual = math.nan  # keys beyond float range cannot be compared
    if not math.isfinite(residual):
        raise ValueError(f"equation residual is not finite ({residual})")
    k = int(np.argmax(np.abs(sums)))
    if sums[k] == 0.0:
        return JointLawReport(residual, None)
    row = first[k]
    worst = JointKey(
        int(finite[row, 0]),
        tuple(int(v) for v in finite[row, 1 : 1 + G.rank]),
        tuple(int(v) for v in finite[row, 1 + G.rank :]),
        (float(real[row, 3]), float(real[row, 4])),
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

    draws are the pairs of _sample_pair.  L1 and L2 share their Z(2)
    coordinate m1 + m2, so a pair falls in one bin b = (m1 + m2, g1, g2) of
    2|G|^2, on which the finite factors chi_u of pair(L1, u) and chi_v of
    pair(L2, v) are constant.  With T1, T2 the real parts of L1, L2 and
    e = exp(i s_u T1), the sum is

        sum_b chi_u(b) [Re chi_v(b) A_sin(b) + Im chi_v(b) A_cos(b)],

    A_sin(b) and A_cos(b) the bin sums of e sin(s_v T2) and e cos(s_v T2).
    Each coset-pair cell (k1, k2) lies in one bin, so the C occupied cells
    (C at most min(N, K1 K2)), put in (bin, k1, k2) order by a stable sort
    of their keys, lay every bin out as one contiguous run; T1 = t1 + t2
    and T2 = t1 + a t2 are written cell by cell into that order, one numpy
    step per cell, with no sort or gather of the N pairs.  The trig runs
    once per distinct nonzero s on each side, by _cos_sin: one vectorized
    half-angle tangent, within 2.2e-16 of np.cos and np.sin, in the cos and
    sin buffers with the product buffer as scratch.  At s = 0, cos and
    sin are the constants 1 and 0, so a pair with s_v = 0 has A_sin = 0 and
    A_cos the bin sums of e (the bin counts when s_u = 0 too), and a pair
    with s_u = 0 only the bin sums of cos(s_v T2) and sin(s_v T2).  The bin
    sums run once per distinct (s_u, s_v), and each probe pair then costs
    the occupied bins, at most min(N, 2|G|^2).  T1, T2, the trig and the
    bin sums run on two threads, each over the whole bins on its side of
    the bin boundary nearest N/2.  Each thread walks its bins in chunks of
    whole bins of at most _BLOCK pairs, or one bin when that is larger, so
    each bin is still one reduceat segment and its sums are bit for bit
    those of one pass over all pairs.  The chunks reuse one set of buffers
    per thread: two per distinct nonzero s on each side and one for the
    products, each of max(_BLOCK, largest bin) floats.  So beyond the draws
    (16 bytes per pair) the stage holds O(max(_BLOCK, largest bin)) per
    thread, and the largest bin sets the bound.
    """
    counts, (t1, m1, g1), (t2, m2, g2) = draws
    G = alpha.group.G
    a = alpha.a
    dims = (2,) + G.cyclic_orders * 2

    def cell_starts(table: np.ndarray) -> np.ndarray:
        # where each cell's draws start, the cells laid out in row-major order
        flat = table.ravel()
        return (np.cumsum(flat) - flat).reshape(table.shape)

    # t1 holds the cells in row-major order, t2 in column-major order
    start1, start2 = cell_starts(counts), cell_starts(counts.T).T
    k1, k2 = np.nonzero(counts)
    key = np.ravel_multi_index((m1[k1] ^ m2[k2], *g1[k1].T, *g2[k2].T), dims)
    # occupied cells in (bin, k1, k2) order: np.nonzero lists them in
    # (k1, k2) order and the sort is stable
    order = np.argsort(key, kind="stable")
    k1, k2, key = k1[order], k2[order], key[order]
    sizes, from1, from2 = counts[k1, k2], start1[k1, k2], start2[k1, k2]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    starts = cell_starts(sizes)[first]
    bin_m, bin_g1, bin_g2 = m1[k1[first]] ^ m2[k2[first]], g1[k1[first]], g2[k2[first]]
    # finite parts of L1 and L2 per bin; the pairing is periodic in each
    bin_f1 = bin_g1 + bin_g2
    bin_f2 = bin_g1 + bin_g2 @ np.array(alpha.alpha_G.matrix, dtype=np.int64).T

    def finite_factors(ys, bin_f):
        # chi over the occupied bins, one column per distinct (n, h)
        columns: dict[tuple, int] = {}
        index = [columns.setdefault((y.n, y.h.coords), len(columns)) for y in ys]
        n = [c[0] for c in columns]
        h = [c[1] for c in columns]
        return np.array(index), pairing(G, bin_f, h, bin_m, n)

    qu, chi_u = finite_factors([u for u, _ in probes], bin_f1)
    qv, chi_v = finite_factors([v for _, v in probes], bin_f2)

    groups: dict[tuple[float, float], list[int]] = {}
    for k, (u, v) in enumerate(probes):
        groups.setdefault((u.s, v.s), []).append(k)
    s_us = {s_u for s_u, _ in groups if s_u != 0.0}
    s_vs = {s_v for _, s_v in groups if s_v != 0.0}

    n = len(t1)
    # bin b holds the cells cell_at[b] to cell_at[b + 1] and the pairs
    # pair_at[b] to pair_at[b + 1]
    cell_at = np.append(first, len(key))
    pair_at = np.append(starts, n)

    def bin_sums(b0: int, b1: int) -> dict:
        # (A_sin, A_cos) per (s_u, s_v) over the bins b0 to b1, walked in
        # chunks of whole bins of at most _BLOCK pairs (one bin when it is
        # larger), in buffers reused from chunk to chunk; rows of sums are
        # the bin sums of Re and Im of A_sin, then of A_cos
        width = min(
            max(_BLOCK, int(np.diff(pair_at[b0 : b1 + 1]).max(initial=0))),
            int(pair_at[b1] - pair_at[b0]),
        )
        prod = np.empty(width)
        # (cos(s T), sin(s T)) per distinct nonzero s on each side
        trig1 = {s: (np.empty(width), np.empty(width)) for s in s_us}
        trig2 = {s: (np.empty(width), np.empty(width)) for s in s_vs}
        sums = {s_pair: np.zeros((4, b1 - b0)) for s_pair in groups}

        def bin_sum(weights: np.ndarray, row: np.ndarray) -> None:
            # the chunk's bin sums of weights into its columns of row
            np.add.reduceat(weights[:at], seg, out=row[b - b0 : e - b0])

        b = b0
        while b < b1:
            # the chunk: bins b to e, the most whole bins from b within _BLOCK
            # pairs, and at least one
            e = int(np.searchsorted(pair_at, pair_at[b] + _BLOCK, "right")) - 1
            e = min(max(b + 1, e), b1)
            c0, c1 = int(cell_at[b]), int(cell_at[e])
            cells = list(zip(*(col[c0:c1].tolist() for col in (from1, from2, sizes))))
            at = int(pair_at[e] - pair_at[b])
            for of_l1, trig in ((True, trig1), (False, trig2)):
                for s, (cos_s, sin_s) in trig.items():
                    # T1 = t1 + t2 or T2 = t1 + a t2 in bin order, cell by
                    # cell, then s T in place
                    to = 0
                    for x, y, k in cells:
                        x1, x2, T = t1[x : x + k], t2[y : y + k], cos_s[to : to + k]
                        if of_l1:
                            np.add(x1, x2, out=T)
                        else:
                            np.multiply(x2, a, out=T)
                            T += x1
                        to += k
                    cos_s[:at] *= s
                    _cos_sin(cos_s[:at], sin_s[:at], prod[:at])
            seg = pair_at[b:e] - pair_at[b]
            for (s_u, s_v), rows in sums.items():
                if s_v == 0.0:
                    if s_u != 0.0:
                        bin_sum(trig1[s_u][0], rows[2])
                        bin_sum(trig1[s_u][1], rows[3])
                elif s_u == 0.0:
                    bin_sum(trig2[s_v][1], rows[0])
                    bin_sum(trig2[s_v][0], rows[2])
                else:
                    (cos_u, sin_u), (cos_v, sin_v) = trig1[s_u], trig2[s_v]
                    factors = ((cos_u, sin_v), (sin_u, sin_v), (cos_u, cos_v), (sin_u, cos_v))
                    for row, (x, y) in zip(rows, factors):
                        np.multiply(x[:at], y[:at], out=prod[:at])
                        bin_sum(prod, row)
            b = e

        out = {}
        for (s_u, s_v), (re_sin, im_sin, re_cos, im_cos) in sums.items():
            if s_v == 0.0:
                a_sin = np.zeros(b1 - b0)
                if s_u == 0.0:
                    a_cos = np.diff(pair_at[b0 : b1 + 1]).astype(float)
                else:
                    a_cos = re_cos + 1j * im_cos
            elif s_u == 0.0:
                a_sin, a_cos = re_sin, re_cos
            else:
                a_sin, a_cos = re_sin + 1j * im_sin, re_cos + 1j * im_cos
            out[s_u, s_v] = a_sin, a_cos
        return out

    j = int(np.argmin(np.abs(pair_at - n / 2)))
    low, high = _on_two_threads(lambda: bin_sums(0, j), lambda: bin_sums(j, len(starts)))

    sums = np.empty(len(probes), dtype=complex)
    for s_pair, members in groups.items():
        a_sin, a_cos = (np.concatenate(halves) for halves in zip(low[s_pair], high[s_pair]))
        table = chi_u.T @ (a_sin[:, None] * chi_v.real + a_cos[:, None] * chi_v.imag)
        sums[members] = table[qu[members], qv[members]]
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
    coset counts, then O(N) per measure (rejection makes about N / p
    proposals on a continuous coset of acceptance rate p, and scores them
    against the density only on a coset with a negative term; the normal
    and uniform draws are most of the rest).  The probe stage
    costs O(K1 K2 + C log C) to find and order the C <= min(N, K1 K2)
    occupied cells, one numpy step per occupied cell, O(N) per distinct
    nonzero s and per distinct (s_u, s_v) other than (0, 0), and
    O(min(N, 2|G|^2)) per probe pair (see _probe_sums); it neither sorts
    nor gathers the N pairs, and its trig is one vectorized tangent per
    pair and distinct nonzero s.  Both stages run on two threads, and the
    result is bit for bit that of one thread.  Memory: the draws take 16
    bytes per pair; beyond them, sampling holds 9 bytes per proposal of a
    coset's first rejection round (at most 10^6) plus O(_BLOCK) per thread,
    and the probe stage O(max(_BLOCK, largest bin)) per thread, so the
    largest bin sets the bound.  A non-finite statistic, or n_samples < 1,
    raises ValueError.
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
    c, s, t, m, g = (
        np.concatenate(column)
        for column in zip(*((tau.c, tau.sigma, tau.shift, tau.m, tau.g) for tau in taus))
    )
    if dk is not None:
        n0 = len(taus[0].c)
        g[:n0] = (g[:n0] + dk.coords) % np.array(taus[0].group.G.cyclic_orders)
    owner = np.repeat(np.eye(len(taus)), [len(tau.c) for tau in taus], axis=0)
    parity = np.column_stack([c, np.where(m == 0, c, -c)])
    coef = (owner[:, :, None] * parity[:, None, :]).reshape(len(c), -1)
    real = np.column_stack([s, t])
    return _sum_by_key(real, np.abs(real), g, coef)


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
