"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: density
minima come from dense grids plus scipy's Brent minimizer, expected
convolutions from direct coefficient algebra, and membership verdicts
from first-principles inequalities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from heyde import (
    AmbientGroup,
    AtomicSignedMeasure,
    FiniteAbelianGroup,
    GeneratedInstance,
    InstanceSpec,
    ThetaParams,
    generate_instance,
    kernel_of_I_plus,
    negation_automorphism,
    two_term_bound,
)
from heyde.finite_abelian import GroupAutomorphism
from heyde.symmetry import _sample_pair


def expand_pairs(draws):
    """The (t, m, g) of xi_1 and of xi_2 per pair, from the grouped draws of
    _sample_pair: pairs in cell (k1, k2) order, row i of the one side
    paired with row i of the other."""
    counts, (t1, m1, g1), (t2, m2, g2) = draws
    K1, K2 = counts.shape
    cells = [(k1, k2) for k1 in range(K1) for k2 in range(K2)]
    # xi_2's draws are stored cell by cell in (k2, k1) order
    start2, at = {}, 0
    for k2 in range(K2):
        for k1 in range(K1):
            start2[k1, k2] = at
            at += int(counts[k1, k2])
    rows2 = np.concatenate(
        [np.arange(start2[c], start2[c] + counts[c], dtype=np.int64) for c in cells]
    )
    k1_of = np.repeat([k1 for k1, _ in cells], counts.ravel())
    k2_of = np.repeat([k2 for _, k2 in cells], counts.ravel())
    return [(t1, m1[k1_of], g1[k1_of]), (t2[rows2], m2[k2_of], g2[k2_of])]


def paired_samples(mu1, mu2, n_samples, seed):
    """The pairs mc_symmetry_test draws at seed, one row per pair."""
    return expand_pairs(_sample_pair(mu1, mu2, seed, n_samples))


def pair_on_samples(group, t, m, g, y):
    """pair((t, m, g), y) over sample arrays, straight from the formula."""
    orders = np.array(group.G.cyclic_orders)
    finite = 2.0 * np.pi * ((g * np.array(y.h.coords)) / orders).sum(axis=1)
    sign = np.where((m.astype(int) * y.n) % 2 == 1, -1.0, 1.0)
    return np.exp(1j * (y.s * t + finite)) * sign


def values_on_pairs(alpha, pairs, probes):
    """|mean(w1 * w2) - mean(w1 * conj(w2))| per probe pair (u, v), w1 on L1
    and w2 on L2 of the pairs, given one row per pair as expand_pairs gives
    them."""
    group = alpha.group
    (t1, m1, g1), (t2, m2, g2) = pairs
    g2a = g2 @ np.array(alpha.alpha_G.matrix).T
    L1 = (t1 + t2, m1 + m2, g1 + g2)
    L2 = (t1 + alpha.a * t2, m1 + m2, g1 + g2a)
    # rows of pair(L, y) per distinct dual point y; the means of the
    # products of rows are matrix products over the pairs
    us = {u: i for i, u in enumerate(dict.fromkeys(u for u, _ in probes))}
    vs = {v: j for j, v in enumerate(dict.fromkeys(v for _, v in probes))}
    w1 = np.array([pair_on_samples(group, *L1, u) for u in us]).reshape(len(us), len(t1))
    w2 = np.array([pair_on_samples(group, *L2, v) for v in vs]).reshape(len(vs), len(t1))
    mean, mean_conj = w1 @ w2.T / len(t1), w1 @ np.conj(w2).T / len(t1)
    return [abs(mean[us[u], vs[v]] - mean_conj[us[u], vs[v]]) for u, v in probes]


def values_by_definition(mu1, mu2, alpha, n_samples, probes, seed):
    """values_on_pairs over the pairs mc_symmetry_test draws at seed."""
    return values_on_pairs(alpha, paired_samples(mu1, mu2, n_samples, seed), probes)


@pytest.fixture
def z3():
    return FiniteAbelianGroup((3,))


@pytest.fixture
def x3(z3):
    return AmbientGroup(z3)


@pytest.fixture
def x_trivial():
    return AmbientGroup(FiniteAbelianGroup((1,)))


def coset_density_min_oracle(mu: AtomicSignedMeasure, m: int, coords) -> float:
    """Grid + Brent minimum of the continuous density on one coset.

    Independent of the library's classifier: sums atom densities directly
    and refines every local grid minimum with scipy.
    """
    from scipy.optimize import minimize_scalar

    terms = [
        t
        for t in mu.terms
        if t.m == m and t.g.coords == tuple(coords) and t.atom.sigma > 0.0
    ]
    if not terms:
        return math.inf

    def dens(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for term in terms:
            s, c = term.atom.sigma, term.c
            total = total + c * np.exp(
                -((t - term.atom.shift) ** 2) / (4.0 * s)
            ) / (2.0 * math.sqrt(math.pi * s))
        return total

    smax = max(t.atom.sigma for t in terms)
    lo = min(t.atom.shift for t in terms) - 12.0 * math.sqrt(smax)
    hi = max(t.atom.shift for t in terms) + 12.0 * math.sqrt(smax)
    grid = np.linspace(lo, hi, 6001)
    vals = dens(grid)
    best = float(vals.min())
    # refine around each grid minimum candidate
    idx = np.argsort(vals)[:8]
    width = (hi - lo) / 6000.0
    for i in idx:
        res = minimize_scalar(
            lambda t: float(dens(t)),
            bounds=(grid[i] - 2 * width, grid[i] + 2 * width),
            method="bounded",
            options={"xatol": 1e-14},
        )
        best = min(best, float(res.fun))
    return best


def distribution_oracle(mu: AtomicSignedMeasure, tol: float = 1e-12) -> bool:
    """First-principles nonnegativity check: point masses and density grids."""
    worst = math.inf
    for t in mu.terms:
        if t.atom.sigma == 0.0:
            worst = min(worst, t.c)
    for m, coords in {(t.m, t.g.coords) for t in mu.terms}:
        worst = min(worst, coset_density_min_oracle(mu, m, coords))
    return worst >= -tol


def measures_close(mu: AtomicSignedMeasure, nu: AtomicSignedMeasure, tol: float) -> bool:
    """Termwise comparison of canonical forms within tol on each field."""
    if mu.group != nu.group or len(mu.terms) != len(nu.terms):
        return False
    for a, b in zip(mu.terms, nu.terms):
        if a.m != b.m or a.g.coords != b.g.coords:
            return False
        if abs(a.c - b.c) > tol or abs(a.atom.sigma - b.atom.sigma) > tol:
            return False
        if abs(a.atom.shift - b.atom.shift) > tol:
            return False
    return True


def finite_uniform_spec(group: AmbientGroup, kernel, weights, parities=None):
    """omega2-style measure from (weight, kernel-index) data."""
    parities = parities or [0] * len(weights)
    terms = [
        (w, 0.0, 0.0, p, kernel[i % len(kernel)])
        for i, (w, p) in enumerate(zip(weights, parities))
    ]
    return AtomicSignedMeasure.from_terms(group, terms)


def standard_instance(
    orders=(3,),
    a=-2.0,
    matrix=None,
    sigma=1.0,
    sigma_p=0.5,
    m=0.0,
    m_p=0.0,
    kappa=0.3,
    vartheta_d=0.4,
    x2=(1.0, 0, None),
    weights=(0.4, 0.3, 0.3),
    parities=(0, 1, 0),
    kappa1=None,
) -> GeneratedInstance:
    """One-call generator for round-trip tests."""
    G = FiniteAbelianGroup(tuple(orders))
    X = AmbientGroup(G)
    if matrix is None:
        alpha_G = negation_automorphism(G)
    else:
        alpha_G = GroupAutomorphism(G, tuple(tuple(r) for r in matrix))
    K = kernel_of_I_plus(alpha_G)
    omega2 = finite_uniform_spec(X, K, weights, list(parities))
    t2, m2, g2 = x2
    g2 = g2 if g2 is not None else G.zero().coords
    spec = InstanceSpec(
        group=X,
        a=a,
        alpha_G=alpha_G,
        theta2=ThetaParams(sigma, sigma_p, m, m_p, kappa),
        omega2=omega2,
        vartheta_d=vartheta_d,
        x2=X.point(t2, m2, g2),
        kappa1=kappa1,
    )
    return generate_instance(spec)


def rigidity_sweep_oracle(gamma, coeffs, n_grid=1000) -> bool:
    """True when some nondegenerate exchange factor c yields two valid
    factors; mirrors the defining property, not the decision procedure.

    gamma validity uses the closed-form bound recomputed here; omega
    validity transforms the (a, b) pairs directly.
    """
    rho = math.sqrt(gamma.sigma_p / gamma.sigma) * math.exp(
        -((gamma.m - gamma.m_p) ** 2) / (4.0 * (gamma.sigma - gamma.sigma_p))
    )
    half = n_grid // 2
    cs = np.concatenate(
        [np.linspace(1e-3, 0.999, half), np.linspace(1.001, 10.0, n_grid - half)]
    )
    pairs = list(coeffs.values())
    for c in cs:
        kap = gamma.kappa * c
        if kap == 0.0 or abs(kap) > rho * (1.0 + 1e-12):
            continue
        r = 1.0 / c
        ok = True
        for a, b in pairs:
            a2 = (a * (1 + r) + b * (1 - r)) / 2.0
            b2 = (a * (1 - r) + b * (1 + r)) / 2.0
            if a2 < -1e-12 or b2 < -1e-12:
                ok = False
                break
        if ok:
            return True
    return False


def perturb_coefficient(mu: AtomicSignedMeasure, eps: float = 0.05) -> AtomicSignedMeasure:
    """Bump the largest coefficient by eps, then rescale to the old mass."""
    terms = list(mu.terms)
    k = max(range(len(terms)), key=lambda i: abs(terms[i].c))
    raw = [
        (t.c + (eps if i == k else 0.0), t.atom.sigma, t.atom.shift, t.m, t.g)
        for i, t in enumerate(terms)
    ]
    scale = mu.total_mass() / (mu.total_mass() + eps)
    return AtomicSignedMeasure.from_terms(
        mu.group, [(c * scale, s, sh, m, g) for c, s, sh, m, g in raw]
    )


def expected_recovered_d(inst: GeneratedInstance, branch_generic: bool) -> float:
    """The vartheta value decompose should report, adjusted for the
    extremal-normalization sign ambiguity (see the splitting convention)."""
    d = inst.vartheta_d
    m_flip = (-1.0) ** ((inst.x1.m + inst.x2.m) % 2)
    if not branch_generic:
        return (inst.theta1.kappa / inst.theta2.kappa) * m_flip * d
    signs = []
    rhos = []
    for theta, omega, x in (
        (inst.theta1, inst.omega1, inst.x1),
        (inst.theta2, inst.omega2, inst.x2),
    ):
        w_odd = sum(
            t.c * ((-1.0) ** (t.m % 2)) for t in omega.terms
        )
        signs.append(math.copysign(1.0, theta.kappa * ((-1.0) ** (x.m % 2)) * w_odd))
        if 0.0 < theta.sigma_p < theta.sigma:
            rhos.append(two_term_bound(theta.sigma, theta.m + x.t, theta.sigma_p, theta.m_p + x.t))
        else:
            rhos.append(1.0)
    return (
        (signs[0] * rhos[1] * inst.theta1.kappa)
        / (signs[1] * rhos[0] * inst.theta2.kappa)
        * m_flip
        * d
    )
