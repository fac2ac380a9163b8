"""Constructive structure behind the characterization theorem.

Given two distributions whose linear forms satisfy the symmetry equation,
this module recovers the canonical factorization mu_j = gamma_j * omega_j
* E_shift (gamma_j in the two-Gaussian class, omega_j supported on
Z(2) x K with K = Ker(I + alpha_G)), and conversely manufactures instances
that satisfy the equation exactly from such building blocks.  It also
carries the convolution positivity criterion, the factor-exchange move
on (gamma, omega) pairs, and the decision of whether that move admits any
nondegenerate application (rigidity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ambient import AmbientGroup, XAutomorphism, XPoint
from .finite_abelian import (
    GroupAutomorphism,
    GroupElement,
    in_kernel_of_I_plus,
    kernel_coords,
    kernel_of_I_plus,
)
from .measures import (
    NONNEG_TOL,
    AtomicSignedMeasure,
    char_values,
    is_distribution,
    order_two_measure,
    two_term_bound,
)
from .symmetry import KEY_TOL, _parity_sums, delta_relation, joint_law_report
from .theta import PiMeasure, ThetaParams, is_in_theta, rho_extremal, theta_to_measure

__all__ = [
    "InfeasibleSpec",
    "DecompositionError",
    "InstanceSpec",
    "GeneratedInstance",
    "Decomposition",
    "check_cross_constraints",
    "cross_constraint_residuals",
    "derive_partner_params",
    "generate_instance",
    "decompose",
    "lambda_tau_criterion",
    "tau_from_coefficients",
    "factor_exchange",
    "RigidityResult",
    "rigidity_decision",
]

BRANCH_GENERIC = "a_not_minus_one"
BRANCH_MINUS_ONE = "a_minus_one"

# direction labels for the order-2 link between the two omega factors
OMEGA1_FROM_OMEGA2 = "omega1_eq_omega2_conv_vartheta"
OMEGA2_FROM_OMEGA1 = "omega2_eq_omega1_conv_vartheta"

# total mass must be 1 within MASS_TOL; an omega characteristic value of
# modulus below VANISH_TOL counts as 0 (factor_exchange refuses such an
# omega, rigidity_decision flags it); an a within MINUS_ONE_TOL of -1 takes
# decompose's a = -1 branch
MASS_TOL = 1e-9
VANISH_TOL = 1e-10
MINUS_ONE_TOL = 1e-12


class InfeasibleSpec(ValueError):
    """Instance spec violates a generation precondition; lists every failure."""

    def __init__(self, failures: Sequence[str]):
        self.failures = tuple(failures)
        super().__init__("; ".join(failures))


class DecompositionError(ValueError):
    """Input violates a hypothesis of the decomposition; carries diagnostics."""

    def __init__(self, diagnostics: Sequence[str] | str):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(diagnostics))


def _profile(p: ThetaParams) -> tuple[float, float, float, float]:
    """(sigma, sigma', m, m'), the fields the cross constraints relate."""
    return p.sigma, p.sigma_p, p.m, p.m_p


def cross_constraint_residuals(
    theta1: ThetaParams, theta2: ThetaParams, a: float
) -> tuple[float, float, float, float]:
    """Residuals of sigma1 + a*sigma2, sigma'1 + a*sigma'2, and the shifts."""
    return tuple(abs(x1 + a * x2) for x1, x2 in zip(_profile(theta1), _profile(theta2)))


def check_cross_constraints(
    theta1: ThetaParams, theta2: ThetaParams, a: float, tol: float = 1e-10
) -> bool:
    """Each |x1 + a*x2| is at most tol * max(1, |x1| + |a|*|x2|), the gate's real-key rule."""
    pairs = zip(_profile(theta1), _profile(theta2))
    return all(abs(x1 + a * x2) <= tol * max(1.0, abs(x1) + abs(a) * abs(x2)) for x1, x2 in pairs)


def _extremal_or_one(p: ThetaParams) -> float:
    """Extremal coefficient bound: two-term bound strictly, 1 degenerately."""
    if 0.0 < p.sigma_p < p.sigma:
        return rho_extremal(p)
    return 1.0


def derive_partner_params(
    theta2: ThetaParams, a: float, kappa1: float | None = None
) -> ThetaParams:
    """theta1 forced by the cross constraints, with kappa1 chosen or defaulted.

    The default keeps the ratio |kappa|/extremal equal on both sides, which
    preserves class membership whenever theta2 is a member; the ratio is
    capped at 1, so an extremal theta2 gives exactly the extremal kappa1.
    """
    if kappa1 is None:
        rho2 = _extremal_or_one(theta2)
        trial = ThetaParams(
            -a * theta2.sigma, -a * theta2.sigma_p, -a * theta2.m, -a * theta2.m_p, 1.0
        )
        rho1 = _extremal_or_one(trial)
        kappa1 = math.copysign(min(rho1, rho1 * abs(theta2.kappa) / rho2), theta2.kappa)
    return ThetaParams(
        -a * theta2.sigma, -a * theta2.sigma_p, -a * theta2.m, -a * theta2.m_p, kappa1
    )


@dataclass(frozen=True)
class InstanceSpec:
    """Building blocks for an instance that satisfies the equation exactly.

    vartheta_d parametrizes the Z(2) link measure by its odd-character
    value d in [-1, 1]; omega2 must be a distribution on Z(2) x K.
    """

    group: AmbientGroup
    a: float
    alpha_G: GroupAutomorphism
    theta2: ThetaParams
    omega2: AtomicSignedMeasure
    vartheta_d: float = 1.0
    x2: XPoint | None = None
    kappa1: float | None = None


@dataclass(frozen=True)
class GeneratedInstance:
    mu1: AtomicSignedMeasure
    mu2: AtomicSignedMeasure
    alpha: XAutomorphism
    theta1: ThetaParams
    theta2: ThetaParams
    omega1: AtomicSignedMeasure
    omega2: AtomicSignedMeasure
    vartheta_d: float
    x1: XPoint
    x2: XPoint
    kernel: tuple[GroupElement, ...]

    def effective_thetas(self) -> tuple[ThetaParams, ThetaParams]:
        """Class parameters as read off the characteristic functions.

        The real part of each shift folds into the exponential centers, so
        the recoverable centers are m + t_j and m' + t_j.
        """
        out = []
        for p, x in ((self.theta1, self.x1), (self.theta2, self.x2)):
            out.append(ThetaParams(p.sigma, p.sigma_p, p.m + x.t, p.m_p + x.t, p.kappa))
        return (out[0], out[1])

    def to_json(self) -> dict:
        return {
            "mu1": self.mu1.to_json(),
            "mu2": self.mu2.to_json(),
            "alpha": self.alpha.to_json(),
            "truth": {
                "theta1": self.theta1.to_json(),
                "theta2": self.theta2.to_json(),
                "omega1": self.omega1.to_json(),
                "omega2": self.omega2.to_json(),
                "vartheta_d": self.vartheta_d,
                "x1": self.x1.to_json(),
                "x2": self.x2.to_json(),
            },
        }


def generate_instance(spec: InstanceSpec) -> GeneratedInstance:
    """Build (mu1, mu2, alpha) satisfying the symmetry equation identically.

    mu2 = theta2-measure * omega2 * E_x2 and mu1 = theta1-measure *
    (omega2 * vartheta) * E_x1, with theta1 from the cross constraints and
    x1 = -alpha(x2).  Every precondition failure is reported, not just the
    first.
    """
    group = spec.group
    failures: list[str] = []
    if spec.a == 0.0:
        failures.append("a must be nonzero")
    if spec.alpha_G.group != group.G:
        failures.append("alpha_G acts on a different group")
    t2 = spec.theta2
    if spec.a > 0.0 and (t2.sigma > 0.0 or t2.sigma_p > 0.0):
        failures.append(
            "a > 0 forces sigma = sigma' = 0 (otherwise the partner variance "
            "-a*sigma would be negative)"
        )
    if not is_in_theta(t2):
        failures.append("theta2 is not in the admissible class")
    theta1 = None
    if spec.a != 0.0:
        try:
            theta1 = derive_partner_params(t2, spec.a, spec.kappa1)
        except ValueError as e:
            failures.append(f"cannot derive theta1: {e}")
        else:
            if not is_in_theta(theta1):
                failures.append(
                    f"derived theta1 with kappa1={theta1.kappa} is not in the class"
                )
    kernel = tuple(kernel_of_I_plus(spec.alpha_G)) if spec.alpha_G.group == group.G else ()
    if spec.omega2.group != group:
        failures.append("omega2 lives on a different ambient group")
    else:
        w = spec.omega2
        # the first atom off the finite part or outside K is reported; with
        # alpha_G on another group every atom is outside K
        finite = (w.sigma == 0.0) & (w.shift == 0.0)
        if spec.alpha_G.group == group.G:
            in_k = in_kernel_of_I_plus(spec.alpha_G, w.g)
        else:
            in_k = np.zeros(len(w.c), dtype=bool)
        bad = np.flatnonzero(~(finite & in_k))
        if len(bad) and not finite[bad[0]]:
            failures.append("omega2 must be supported on the finite part")
        elif len(bad):
            coords = tuple(w.g[bad[0]].tolist())
            failures.append(f"omega2 atom at g={coords} is outside K = Ker(I + alpha_G)")
        if abs(w.total_mass() - 1.0) > MASS_TOL:
            failures.append("omega2 total mass is not 1")
        elif len(w.c) and is_distribution(w).is_no:
            failures.append("omega2 is not a distribution")
    if not (-1.0 <= spec.vartheta_d <= 1.0):
        failures.append("vartheta_d must lie in [-1, 1]")
    x2 = spec.x2 if spec.x2 is not None else group.zero_point()
    if x2.group != group:
        failures.append("x2 lives on a different ambient group")
    if failures:
        raise InfeasibleSpec(failures)

    alpha = XAutomorphism(group, spec.a, spec.alpha_G)
    x1 = -alpha(x2)
    vt = order_two_measure(group, spec.vartheta_d)
    omega1 = spec.omega2.convolve(vt)
    mu2 = theta_to_measure(t2, group).convolve(spec.omega2).shifted(x2)
    mu1 = theta_to_measure(theta1, group).convolve(omega1).shifted(x1)
    return GeneratedInstance(
        mu1, mu2, alpha, theta1, t2, omega1, spec.omega2, spec.vartheta_d, x1, x2, kernel
    )


@dataclass(frozen=True)
class Decomposition:
    """Canonical factorization recovered from a valid equation instance.

    branch a_not_minus_one: mu_j = gamma_j-measure * omega_j * E_shift_j
    with omega_j on Z(2) x K and |gamma_j.kappa| at the extremal bound.
    branch a_minus_one: mu_j = omega_j * E_shift_j with omega_j on
    R x Z(2) x K and gamma, kappa_raw and rho absent; real translations
    stay in omega_j, so the real part of each shift is 0.  In both, one of
    the omegas equals the other convolved with a Z(2) distribution of
    odd-character value vartheta_d (direction in vartheta_direction).
    residual is the gate's joint-law residual: the l1 norm of the
    coefficients of law(L1, L2) - law(L1, -L2), an upper bound on the
    symmetry identity's deviation over the whole dual.
    reconstruction_error is the largest over j of the sum over (sigma,
    shift, g) keys of max(|even gap|, |odd gap|) between rebuilt and mu_j,
    a bound on their characteristic functions' gap over the whole dual.
    """

    branch: str
    gamma: tuple[ThetaParams, ThetaParams] | None
    omega: tuple[AtomicSignedMeasure, AtomicSignedMeasure]
    shift: tuple[XPoint, XPoint]
    vartheta_direction: str
    vartheta_d: float
    vartheta: AtomicSignedMeasure
    kernel: tuple[GroupElement, ...]
    kappa_raw: tuple[float, float] | None
    rho: tuple[float, float] | None
    residual: float
    reconstruction_error: float
    flags: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    vartheta_alternatives: tuple[tuple[str, float], ...] = ()

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "gamma": None if self.gamma is None else [p.to_json() for p in self.gamma],
            "omega": [w.to_json() for w in self.omega],
            "shift": [x.to_json() for x in self.shift],
            "vartheta": {
                "direction": self.vartheta_direction,
                "d": self.vartheta_d,
                "alternatives": [list(alt) for alt in self.vartheta_alternatives],
            },
            "kernel": [list(k.coords) for k in self.kernel],
            "kappa_raw": None if self.kappa_raw is None else list(self.kappa_raw),
            "rho": None if self.rho is None else list(self.rho),
            "residual": self.residual,
            "reconstruction_error": self.reconstruction_error,
            "flags": list(self.flags),
            "notes": list(self.notes),
        }


def _sums(keys, c: np.ndarray) -> dict:
    """Sum of c per key, keys in first-appearance order, each sum taken in
    row order from 0.0."""
    out: dict = {}
    for key, w in zip(keys, c.tolist()):
        out[key] = out.get(key, 0.0) + w
    return out


def _coset_representative(
    mu: AtomicSignedMeasure, alpha_G: GroupAutomorphism, kernel: np.ndarray, label: str
) -> GroupElement:
    """All finite coordinates must fall in one coset of K = Ker(I +
    alpha_G), the rows of kernel; return its lex-min.

    Row-major index order is lexicographic order, so the lex-min is the
    point of g[0] + K with the least index."""
    if not len(mu.c):
        raise DecompositionError(f"{label} has no atoms")
    if not in_kernel_of_I_plus(alpha_G, mu.g - mu.g[0]).all():
        raise DecompositionError(f"{label} support spans more than one coset of K")
    G = mu.group.G
    coset = (mu.g[0] + kernel) % np.array(G.cyclic_orders)
    return G.element(coset[np.argmin(G.index_of(coset))])


def _factor(
    reduced: Sequence[AtomicSignedMeasure], a: float
) -> tuple[tuple, tuple, tuple, tuple]:
    """Split each reduced mu into an extremal gamma factor and omega on Z(2) x K.

    Read off mu's coefficient table (_parity_sums), a sum present when
    outside the NONNEG_TOL band, whatever tol: the even sums must sit on one
    real atom (sigma, m), the odd ones on at most one (sigma', m'), where
    the same atom is the degenerate member with extremal bound rho = 1.  A
    mu without odd sums (vartheta_d, kappa or omega's odd weights 0) fits
    any (sigma', m') and takes its partner's through the cross constraints.
    The gamma factor takes kappa = sign * rho, sign that of kappa_raw, the
    odd sum over all keys; omega keeps the even sum e_g and odd sum o_g *
    sign / rho per g.  Returns the pairs of gammas, omegas, kappa_raw and
    rho; the gammas must satisfy the cross constraints within KEY_TOL.
    """
    group = reduced[0].group
    tables, profiles = [], []
    for label, mu_red in zip(("mu1", "mu2"), reduced):
        keys, first, sums = _parity_sums(mu_red)
        even, odd = sums.T
        # a real atom is the pair of cluster labels of (sigma, shift); each
        # key's first row gives its values
        atoms = [tuple(row) for row in keys[:, :2].tolist()]
        real = list(zip(mu_red.sigma[first].tolist(), mu_red.shift[first].tolist()))
        on_even = {x for x, e in zip(atoms, even) if abs(e) > NONNEG_TOL}
        on_odd = {x for x, o in zip(atoms, odd) if abs(o) > NONNEG_TOL}
        if len(on_even) != 1 or len(on_odd) > 1:
            raise DecompositionError(
                f"{label}: even coefficients sit on {len(on_even)} real atoms "
                f"(need 1) and odd ones on {len(on_odd)} (need at most 1)"
            )
        tables.append((label, mu_red.g[first].tolist(), even, odd))
        # [sigma, m] and, if mu has odd sums, [sigma', m']
        profiles.append([x for on in (on_even, on_odd) if on for x in real[atoms.index(*on)]])
    # a mu without odd sums fits any (sigma', m'): it takes its partner's
    # through the cross constraints, or is degenerate like it
    for own, other, scale in ((profiles[0], profiles[1], -a), (profiles[1], profiles[0], -1 / a)):
        if len(own) == 2:
            own += own[:2] if other[2:] in ([], other[:2]) else [scale * x for x in other[2:]]
    factors = []
    for (label, coords, even, odd), (sigma, m, sigma_p, m_p) in zip(tables, profiles):
        if (sigma_p, m_p) == (sigma, m):
            rho = 1.0
        else:
            if not (0.0 < sigma_p < sigma):
                raise DecompositionError(
                    f"{label}: exponential profiles (sigma={sigma}, "
                    f"sigma'={sigma_p}) violate the class ordering"
                )
            rho = two_term_bound(sigma, m, sigma_p, m_p)
            if rho == 0.0:  # the bound underflows: no odd coefficient fits under it
                raise DecompositionError(f"{label}: the extremal bound underflows to 0")
        kappa_raw = float(odd.sum())
        sign = 1.0 if kappa_raw >= 0.0 else -1.0
        # omega's odd sums are mu's over gamma's kappa = sign * rho, so
        # gamma * omega has mu's coefficients
        odd_w = odd * (sign / rho)
        omega = AtomicSignedMeasure.from_terms(
            group,
            [
                (w, 0.0, 0.0, n, g)
                for n, col in enumerate((even + odd_w, even - odd_w))
                for w, g in zip(col / 2.0, coords)
            ],
        )
        verdict = is_distribution(omega)
        if verdict.is_no:
            raise DecompositionError(
                f"{label}: renormalized omega factor is not a distribution "
                f"(min {verdict.min_value:.3e})"
            )
        gamma = ThetaParams(sigma, sigma_p, m, m_p, rho * sign)
        factors.append((gamma, omega, kappa_raw, rho))
    (g1, g2), omegas, kappas, rhos = zip(*factors)
    if not check_cross_constraints(g1, g2, a, tol=KEY_TOL):
        raise DecompositionError(
            f"recovered exponential parameters violate the cross constraints for a = {a}"
        )
    return (g1, g2), omegas, kappas, rhos


def decompose(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
    tol: float = 1e-9,
) -> Decomposition:
    """Recover the canonical factorization from a valid equation instance.

    One pipeline for both branches.  Gate: the joint-law residual of the
    symmetry equation must be at most tol (finite and >= 0, else
    ValueError).  Each mu is reduced to the canonical K-coset
    representative of its finite support.  The factor step is the only
    branch-specific part: for a != -1 it reads the two-Gaussian factor off
    each reduced mu's even and odd coefficient sums per (sigma, shift, g)
    key, at its extremal coefficient, with the rest in omega (_factor);
    for a = -1 there is no gamma factor and omega_j is the reduced mu_j.
    Then the omegas are aligned by a K-translation and linked by an
    order-2 measure (delta_relation), and the reconstruction is checked
    against mu1 and mu2, all on the same coefficient tables and within tol
    (the factor step tells present sums by the fixed NONNEG_TOL band).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    group = mu1.group
    if mu2.group != group or alpha.group != group:
        raise DecompositionError("measures and automorphism must share one group")
    for label, mu in (("mu1", mu1), ("mu2", mu2)):
        if abs(mu.total_mass() - 1.0) > MASS_TOL:
            raise DecompositionError(f"{label} total mass is not 1")
        if is_distribution(mu).is_no:
            raise DecompositionError(f"{label} is not a distribution")
    report = joint_law_report(mu1, mu2, alpha)
    if report.residual > tol:
        raise DecompositionError(
            f"equation residual {report.residual:.3e} exceeds tolerance {tol:.1e}; "
            "the symmetry hypothesis fails"
        )
    K = kernel_coords(alpha.alpha_G)
    reps = [
        _coset_representative(mu, alpha.alpha_G, K, label)
        for mu, label in ((mu1, "mu1"), (mu2, "mu2"))
    ]
    reduced = [mu.shifted(XPoint(group, 0.0, 0, -rep)) for mu, rep in zip((mu1, mu2), reps)]

    flags: list[str] = []
    notes: list[str] = []
    if abs(alpha.a + 1.0) < MINUS_ONE_TOL:
        branch = BRANCH_MINUS_ONE
        gamma = kappa_raw = rho = None
        omega1, omega2 = reduced
        notes.append(
            "a = -1 branch: no gamma factor; real translations stay in omega_j, "
            "so the real part of each shift is 0"
        )
    else:
        branch = BRANCH_GENERIC
        gamma, (omega1, omega2), kappa_raw, rho = _factor(reduced, alpha.a)

    # the omegas' coset representatives can differ by a K-translation dk;
    # one that works moves a point of omega1 onto omega2's heaviest point of
    # G and matches its mass within tol
    mass1, mass2 = (_sums(map(tuple, w.g.tolist()), w.c) for w in (omega1, omega2))
    heavy = max(mass2, key=lambda g: abs(mass2[g]))
    G = group.G
    fits = [
        G.element(heavy) - G.element(g) for g, c in mass1.items() if abs(c - mass2[heavy]) <= tol
    ]
    for dk in sorted(fits, key=lambda dk: not dk.is_zero):
        rel = delta_relation(omega1, omega2, tol, dk)
        if rel.holds:
            break
    else:
        raise DecompositionError(
            "no K-translation links the two omega factors by an order-2 convolution"
        )
    if not dk.is_zero:
        omega1 = omega1.shifted(XPoint(group, 0.0, 0, dk))
        flags.append("k_alignment_applied")
    if rel.branch == "tau1_eq_tau2_conv_delta":
        direction, other = OMEGA1_FROM_OMEGA2, OMEGA2_FROM_OMEGA1
    else:
        direction, other = OMEGA2_FROM_OMEGA1, OMEGA1_FROM_OMEGA2
    flags.extend(rel.flags)

    shift = (XPoint(group, 0.0, 0, reps[0] - dk), XPoint(group, 0.0, 0, reps[1]))
    omega = (omega1, omega2)
    rec_err = 0.0
    for j, mu in enumerate((mu1, mu2)):
        rec = omega[j] if gamma is None else theta_to_measure(gamma[j], group).convolve(omega[j])
        sums = _parity_sums(rec.shifted(shift[j]), mu)[2]
        rec_err = max(rec_err, float(np.abs(sums[:, :2] - sums[:, 2:]).max(axis=1).sum()))
    if rec_err > tol:
        raise DecompositionError(f"reconstruction error {rec_err:.3e} exceeds tolerance")
    return Decomposition(
        branch=branch,
        gamma=gamma,
        omega=omega,
        shift=shift,
        vartheta_direction=direction,
        vartheta_d=rel.d,
        vartheta=rel.delta,
        kernel=tuple(G.elements_at(K)),
        kappa_raw=kappa_raw,
        rho=rho,
        residual=report.residual,
        reconstruction_error=rec_err,
        flags=tuple(flags),
        notes=tuple(notes),
        vartheta_alternatives=((other, rel.d),) if "both_branches_fit" in rel.flags else (),
    )


def tau_from_coefficients(
    group: AmbientGroup,
    coeffs: Mapping[tuple[int, ...] | GroupElement, tuple[float, float]],
) -> AtomicSignedMeasure:
    """Finite-part measure sum of a_g E_(m=0,g) + b_g E_(m=1,g)."""
    terms = []
    for g, (a_w, b_w) in coeffs.items():
        terms.append((a_w, 0.0, 0.0, 0, g))
        terms.append((b_w, 0.0, 0.0, 1, g))
    return AtomicSignedMeasure.from_terms(group, terms)


def lambda_tau_criterion(
    sigma: float,
    m: float,
    sigma_p: float,
    m_p: float,
    coeffs: Mapping[tuple[int, ...] | GroupElement, tuple[float, float]],
) -> bool:
    """Positivity of the signed two-Gaussian combination convolved with tau.

    tau has weights (a_g, b_g) on the two parity cosets over each g; the
    convolution is a distribution exactly when every imbalance ratio
    |a - b| / (a + b) stays within the two-term density bound.
    """
    if not (0.0 < sigma_p < sigma):
        raise ValueError("need 0 < sigma_p < sigma")
    total = 0.0
    for g, (a_w, b_w) in coeffs.items():
        if a_w < 0.0 or b_w < 0.0:
            raise ValueError(f"negative coefficient at g={g}")
        total += a_w + b_w
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"coefficients sum to {total}, expected 1")
    bound = two_term_bound(sigma, m, sigma_p, m_p)
    for a_w, b_w in coeffs.values():
        if a_w + b_w <= 0.0:
            continue
        if abs(a_w - b_w) > bound * (a_w + b_w):
            return False
    return True


def _min_char_modulus(omega: AtomicSignedMeasure) -> float:
    """Minimum of |char(omega)| at s = 0 over the finite dual Z(2) x H."""
    return float(np.abs(char_values(omega, 0.0)).min())


def factor_exchange(
    gamma: ThetaParams,
    omega: AtomicSignedMeasure,
    pi: PiMeasure,
    check_nonvanishing: bool = True,
) -> tuple[ThetaParams, AtomicSignedMeasure]:
    """Move an order-2 factor between the two-Gaussian part and omega.

    Returns (gamma * pi, omega * pi^-1); the convolution product of the
    pair is unchanged.  The exchanged gamma may leave the admissible class;
    callers decide whether that matters.
    """
    if not (0.0 < gamma.sigma_p < gamma.sigma):
        raise ValueError("gamma must have 0 < sigma' < sigma")
    group = omega.group
    if check_nonvanishing and _min_char_modulus(omega) < VANISH_TOL:
        raise ValueError("omega characteristic function vanishes at a dual point")
    gamma_new = ThetaParams(
        gamma.sigma, gamma.sigma_p, gamma.m, gamma.m_p, gamma.kappa * pi.c
    )
    omega_new = omega.convolve(pi.invert().to_measure(group))
    return gamma_new, omega_new


@dataclass(frozen=True)
class RigidityResult:
    rigid: bool
    witness: PiMeasure | None
    rho: float
    kappa: float
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "rigid": self.rigid,
            "witness_c": None if self.witness is None else self.witness.c,
            "rho": self.rho,
            "kappa": self.kappa,
            "flags": list(self.flags),
        }


def _parity_pairs(omega: AtomicSignedMeasure) -> dict[tuple[int, ...], tuple[float, float]]:
    if not omega.is_finite_supported:
        raise ValueError("omega must be supported on the finite part")
    mass = _sums(zip(omega.m.tolist(), map(tuple, omega.g.tolist())), omega.c)
    return {g: (mass.get((0, g), 0.0), mass.get((1, g), 0.0)) for _, g in mass}


def rigidity_decision(gamma: ThetaParams, omega: AtomicSignedMeasure) -> RigidityResult:
    """Decide whether the (gamma, omega) factorization admits any exchange.

    Rigid exactly when |kappa| sits at the extremal bound AND some finite
    coset pair has one parity weight zero and the other positive; otherwise
    a concrete nondegenerate exchange factor is returned.  A vanishing
    omega characteristic value is reported as a flag, not an error, so the
    decision stays available at such boundary inputs.
    """
    if not (0.0 < gamma.sigma_p < gamma.sigma):
        raise ValueError("gamma must have 0 < sigma' < sigma")
    if gamma.kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    if is_distribution(omega).is_no:
        raise ValueError("omega must be a distribution")
    if abs(omega.total_mass() - 1.0) > MASS_TOL:
        raise ValueError("omega total mass is not 1")
    pairs = _parity_pairs(omega)
    rho = rho_extremal(gamma)
    kappa = gamma.kappa
    flags: list[str] = []
    if _min_char_modulus(omega) < VANISH_TOL:
        flags.append("vanishing_characteristic_function")

    extremal = abs(abs(kappa) - rho) <= NONNEG_TOL * rho
    zero_pattern = any(min(p) <= 0.0 and max(p) > NONNEG_TOL for p in pairs.values())
    if extremal and zero_pattern:
        return RigidityResult(True, None, rho, kappa, tuple(flags))

    if not extremal:
        # |kappa| < rho: any |c| in (1, rho/|kappa|] scales kappa toward the
        # extremal value while pi^-1 stays a genuine distribution; the
        # midpoint keeps both factors strictly inside despite roundoff
        c = math.copysign((1.0 + rho / abs(kappa)) / 2.0, kappa)
        witness = PiMeasure(c)
    else:
        # extremal but every pair has both weights positive: a factor with
        # c strictly between the worst imbalance and 1 keeps both parts valid
        q = max(
            (abs(a_w - b_w) / (a_w + b_w) for a_w, b_w in pairs.values() if a_w + b_w > 0.0),
            default=0.0,
        )
        witness = PiMeasure((1.0 + q) / 2.0)
    gamma_new, omega_new = factor_exchange(gamma, omega, witness, check_nonvanishing=False)
    if not is_in_theta(gamma_new) or is_distribution(omega_new).is_no:
        raise AssertionError(
            "internal witness validation failed; flexible decision unsound"
        )
    return RigidityResult(False, witness, rho, kappa, tuple(flags))
