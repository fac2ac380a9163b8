"""Checks for the conditional-symmetry functional equation.

For distributions mu1, mu2 on X and an automorphism alpha, independent
variables xi_1 ~ mu1 and xi_2 ~ mu2 give L1 = xi_1 + xi_2 and
L2 = xi_1 + alpha(xi_2).  L2 is conditionally symmetric given L1 exactly
when the characteristic functions satisfy, for all dual u, v,

    f1(u + v) * f2(u + B v) = f1(u - v) * f2(u - B v)

with B the adjoint of alpha.  This module evaluates that identity on
grids (continuous dual coordinates sampled, finite ones exhausted), by
Monte Carlo on sampled variables, and exactly for measures supported on
the finite part.  It also decides the order-2 convolution relation
between two finite-part distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ambient import AmbientGroup, XAutomorphism, YPoint
from .finite_abelian import FiniteAbelianGroup, GroupAutomorphism, pairing_phase
from .measures import AtomicSignedMeasure, char_values, order_two_measure, sample_arrays

__all__ = [
    "SGrid",
    "ResidualReport",
    "equation_residual",
    "equation_residual_report",
    "McReport",
    "mc_symmetry_test",
    "finite_exact_check",
    "DeltaRelation",
    "delta_relation",
    "char_sup_distance",
    "ratio_probe_scale",
]

VANISH_TOL = 1e-10


def _gaussian_sigmas(*measures: AtomicSignedMeasure) -> list[float]:
    return [t.atom.sigma for mu in measures for t in mu.terms if t.atom.sigma > 0.0]


def default_s_scale(*measures: AtomicSignedMeasure) -> float:
    """Half-width 5/sqrt(min positive sigma), or 10 when no Gaussian part."""
    sigmas = _gaussian_sigmas(*measures)
    if not sigmas:
        return 10.0
    return 5.0 / math.sqrt(min(sigmas))


def ratio_probe_scale(*measures: AtomicSignedMeasure) -> float:
    """Half-width for probes feeding characteristic-function ratios.

    3/sqrt(max sigma) keeps every Gaussian factor at exp(-9) or larger, so
    ratios stay far from the underflow regime while still discriminating
    mismatched variances and shifts.
    """
    sigmas = _gaussian_sigmas(*measures)
    if not sigmas:
        return 10.0
    return 3.0 / math.sqrt(max(sigmas))


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


def _identity_deviation(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    a: float,
    alpha_G: GroupAutomorphism,
    s: np.ndarray,
) -> float:
    """Max of |f1(u+v) f2(u+Bv) - f1(u-v) f2(u-Bv)|.

    Real dual coordinates of u and v run over s; the finite dual coordinates
    are exhausted, in blocks of first coordinates h1 to bound memory.  The
    two sides depend on the Z(2) duals only through their sum, so that sum
    is what is enumerated.  A non-finite deviation raises ValueError.
    """
    G = mu1.group.G
    H = G.order
    coords = G.all_coords()
    adj_coords = coords @ np.array(alpha_G.adjoint().matrix, dtype=np.int64).T
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
    return residual


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
    """Max deviation of the symmetry identity over the probe grid.

    Real dual coordinates of u and v run over the grid; the finite dual
    coordinates are exhausted.  A non-finite residual raises ValueError, so
    it never reads as a pass.
    """
    if mu1.group != mu2.group or alpha.group != mu1.group:
        raise ValueError("measures and automorphism must share one group")
    grid = grid or SGrid()
    s = grid.values(mu1, mu2)
    residual = _identity_deviation(mu1, mu2, alpha.a, alpha.alpha_G, s)
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
    if not diff.terms:
        return 0.0
    if s_values is None:
        s_values = SGrid().values(mu, nu)
    return float(np.abs(char_values(diff, np.asarray(s_values, dtype=float))).max())


@dataclass(frozen=True)
class McReport:
    statistic: float
    threshold: float
    passed: bool
    n_samples: int
    probe_count: int


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


def _probe_rows(
    G: FiniteAbelianGroup, points: tuple, probes: Sequence[YPoint], want_cos: bool
) -> tuple[list[int], np.ndarray | None, np.ndarray]:
    """cos and sin of pair(point, y) over the samples, one row per distinct y.

    Returns the row of each probe, the cos rows (None unless wanted) and
    the sin rows; rows are filled one at a time, so no complex matrix over
    all probes is ever held.
    """
    t, m, g = points
    rows: dict[tuple, int] = {}
    index = [rows.setdefault((y.s, y.n, y.h.coords), len(rows)) for y in probes]
    cos = np.empty((len(rows), len(t))) if want_cos else None
    sin = np.empty((len(rows), len(t)))
    for (s, n, h), j in rows.items():
        angle, odd = pairing_phase(G, g, [h], m, [n], t, [s])
        np.sin(angle[:, 0], out=sin[j])
        np.negative(sin[j], out=sin[j], where=odd[:, 0])
        if want_cos:
            np.cos(angle[:, 0], out=cos[j])
            np.negative(cos[j], out=cos[j], where=odd[:, 0])
    return index, cos, sin


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
    within a few multiples of the Monte Carlo scale 1/sqrt(n).  A
    non-finite statistic raises ValueError.
    """
    group = mu1.group
    if probes is None:
        probes = _default_probe_pairs(group, mu1, mu2)
    seeds = np.random.SeedSequence(seed).spawn(2)
    rng1 = np.random.default_rng(seeds[0])
    rng2 = np.random.default_rng(seeds[1])
    t1, m1, g1 = sample_arrays(mu1, rng1, n_samples)
    t2, m2, g2 = sample_arrays(mu2, rng2, n_samples)

    mat = np.array(alpha.alpha_G.matrix, dtype=np.int64)
    orders = np.array(group.G.cyclic_orders, dtype=np.int64)
    g2a = (g2 @ mat.T) % orders[None, :]

    L1 = (t1 + t2, (m1 + m2) % 2, (g1 + g2) % orders[None, :])
    L2 = (t1 + alpha.a * t2, (m1 + m2) % 2, (g1 + g2a) % orders[None, :])

    # direct - reflected = mean(w1 * 2i Im w2) with w1 = C1 + i S1, so the
    # statistic needs cos and sin rows for u and only sin rows for v
    rows1, C1, S1 = _probe_rows(group.G, L1, [u for u, _ in probes], True)
    rows2, _, S2 = _probe_rows(group.G, L2, [v for _, v in probes], False)
    sums = np.abs(C1 @ S2.T + 1j * (S1 @ S2.T))
    stat = 2.0 / n_samples * float(sums[rows1, rows2].max(initial=0.0))
    if not math.isfinite(stat):
        raise ValueError(f"Monte Carlo statistic is not finite ({stat})")
    threshold = 4.0 / math.sqrt(n_samples)
    return McReport(stat, threshold, bool(stat <= threshold), n_samples, len(probes))


def finite_exact_check(
    w1: AtomicSignedMeasure,
    w2: AtomicSignedMeasure,
    alpha_G: GroupAutomorphism,
) -> float:
    """Exact residual of the identity for finite-part measures.

    Both measures must be supported on Z(2) x G (every atom at t = 0); the
    automorphism is (I, alpha_G) on Z(2) x G, and all dual pairs are
    enumerated.
    """
    if w1.group != w2.group:
        raise ValueError("measures live on different groups")
    for name, w in (("first", w1), ("second", w2)):
        if not w.is_finite_supported:
            raise ValueError(f"{name} measure is not supported on the finite part")
    # finite-part chars carry no s dependence; evaluate at s = 0 only
    return _identity_deviation(w1, w2, 1.0, alpha_G, np.zeros(1))


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


def delta_relation(
    tau1: AtomicSignedMeasure,
    tau2: AtomicSignedMeasure,
    tol: float = 1e-9,
    s_values: Sequence[float] | None = None,
) -> DeltaRelation:
    """Decide whether tau1 = tau2 * delta or tau2 = tau1 * delta.

    delta ranges over distributions on {0, p} with p the order-2 point.  The
    characteristic ratio r = char(tau1)/char(tau2) must be 1 wherever the
    dual pairs trivially with p and a real constant on the complement; the
    constant (or its reciprocal) is the delta parameter.  Ties at |d| = 1
    report the first branch and are flagged.
    """
    if tau1.group != tau2.group:
        raise ValueError("measures live on different groups")
    group = tau1.group
    if s_values is None:
        if tau1.is_finite_supported and tau2.is_finite_supported:
            s_values = [0.0]
        else:
            scale = ratio_probe_scale(tau1, tau2)
            s_values = list(np.linspace(-scale, scale, 7))
    s = np.asarray(s_values, dtype=float)
    c1 = char_values(tau1, s)
    c2 = char_values(tau2, s)
    if min(np.abs(c1).min(), np.abs(c2).min()) < VANISH_TOL:
        raise ValueError("vanishing characteristic function on a probe")
    # columns run over n = 0 then n = 1, each over the whole of H
    ratios = c1 / c2
    H = group.G.order
    r0 = ratios[:, :H].ravel()
    r1 = ratios[:, H:].ravel()
    if np.abs(r0 - 1.0).max() > tol:
        return DeltaRelation("neither")
    d_c = complex(r1.mean())
    if np.abs(r1 - d_c).max() > tol or abs(d_c.imag) > tol:
        return DeltaRelation("neither")
    d = float(d_c.real)
    flags: tuple[str, ...] = ()
    if abs(abs(d) - 1.0) <= tol:
        flags = ("both_branches_fit",)
        d = math.copysign(1.0, d)
    if abs(d) <= 1.0:
        return DeltaRelation("tau1_eq_tau2_conv_delta", d, order_two_measure(group, d), flags)
    d_rec = 1.0 / d
    return DeltaRelation("tau2_eq_tau1_conv_delta", d_rec, order_two_measure(group, d_rec), flags)
