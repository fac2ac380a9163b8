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
from .finite_abelian import GroupAutomorphism, GroupElement, kernel_of_I_plus, pairing
from .measures import (
    AtomicSignedMeasure,
    char_values,
    is_distribution,
    order_two_measure,
    two_term_bound,
)
from .symmetry import (
    VANISH_TOL,
    char_sup_distance,
    delta_relation,
    equation_residual_report,
)
from .theta import (
    PiMeasure,
    ThetaParams,
    ThetaShapeError,
    is_in_theta,
    measure_to_theta,
    rho_extremal,
    theta_to_measure,
)

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

# total mass must be 1 within MASS_TOL; in decompose, an exponential profile
# of the R x Z(2) marginal with weight at most WEIGHT_TOL counts as absent
MASS_TOL = 1e-9
WEIGHT_TOL = 1e-12


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


def cross_constraint_residuals(
    theta1: ThetaParams, theta2: ThetaParams, a: float
) -> tuple[float, float, float, float]:
    """Residuals of sigma1 + a*sigma2, sigma'1 + a*sigma'2, and the shifts."""
    return (
        abs(theta1.sigma + a * theta2.sigma),
        abs(theta1.sigma_p + a * theta2.sigma_p),
        abs(theta1.m + a * theta2.m),
        abs(theta1.m_p + a * theta2.m_p),
    )


def check_cross_constraints(
    theta1: ThetaParams, theta2: ThetaParams, a: float, tol: float = 1e-10
) -> bool:
    return max(cross_constraint_residuals(theta1, theta2, a)) <= tol


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
    preserves class membership whenever theta2 is a member.
    """
    if kappa1 is None:
        rho2 = _extremal_or_one(theta2)
        trial = ThetaParams(
            -a * theta2.sigma, -a * theta2.sigma_p, -a * theta2.m, -a * theta2.m_p, 1.0
        )
        rho1 = _extremal_or_one(trial)
        kappa1 = math.copysign(rho1 * abs(theta2.kappa) / rho2, theta2.kappa)
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
        kset = {k.coords for k in kernel}
        for term in spec.omega2.terms:
            if term.atom.sigma != 0.0 or term.atom.shift != 0.0:
                failures.append("omega2 must be supported on the finite part")
                break
            if term.g.coords not in kset:
                failures.append(
                    f"omega2 atom at g={term.g.coords} is outside K = Ker(I + alpha_G)"
                )
                break
        if abs(spec.omega2.total_mass() - 1.0) > 1e-12:
            failures.append("omega2 total mass is not 1")
        elif spec.omega2.terms and is_distribution(spec.omega2).is_no:
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
    R x Z(2) x K, gamma, kappa_raw and rho absent, and the real part of
    shift_1 the first-moment gap between the two reduced measures (0 on an
    exact instance).  In both, one of the omegas equals the other convolved
    with a Z(2) distribution of odd-character value vartheta_d (direction
    in vartheta_direction).
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


def _coset_representative(
    mu: AtomicSignedMeasure, kernel: Sequence[GroupElement], label: str
) -> GroupElement:
    """All finite coordinates must fall in one K-coset; return its lex-min."""
    if not mu.terms:
        raise DecompositionError(f"{label} has no atoms")
    kset = {k.coords for k in kernel}
    base = mu.terms[0].g
    for term in mu.terms:
        if (term.g - base).coords not in kset:
            raise DecompositionError(
                f"{label} support spans more than one coset of K"
            )
    return min((base + k for k in kernel), key=lambda g: g.coords)


def _real_profile(mu: AtomicSignedMeasure, label: str) -> ThetaParams:
    """The two exponential profiles of mu's R x Z(2) marginal, kappa raw.

    The profiles are the characteristic function at the trivial character
    for n = 0 and n = 1; each must be a single exponential, the even one of
    unit mass.
    """
    zero = mu.group.G.zero()
    marginal = AtomicSignedMeasure.from_terms(
        mu.group, [(t.c, t.atom.sigma, t.atom.shift, t.m, zero) for t in mu.terms]
    )
    try:
        return measure_to_theta(marginal, tol=WEIGHT_TOL)
    except ThetaShapeError as exc:
        raise DecompositionError(f"{label}: {exc}") from exc


def _finite_marginal(mu: AtomicSignedMeasure) -> AtomicSignedMeasure:
    """Pushforward onto Z(2) x G: coefficients summed per finite coset."""
    return AtomicSignedMeasure.from_terms(
        mu.group, [(t.c, 0.0, 0.0, t.m, t.g) for t in mu.terms]
    )


def _kernel_alignment(
    omega1: AtomicSignedMeasure,
    omega2: AtomicSignedMeasure,
    kernel: Sequence[GroupElement],
    tol: float,
) -> GroupElement:
    """Find dk in K with char(omega1 * E_dk) matching char(omega2) on n = 0.

    The coset representatives are chosen per measure, so the two omegas can
    disagree by a K-translation; the even dual slice determines it.
    """
    G = omega1.group.G
    coords = G.all_coords()
    even = np.zeros(G.order, dtype=np.int64)
    c1 = char_values(omega1, 0.0, even, coords)[0]
    c2 = char_values(omega2, 0.0, even, coords)[0]
    if min(np.abs(c1).min(), np.abs(c2).min()) < VANISH_TOL:
        raise DecompositionError(
            "vanishing characteristic function on the even dual slice; "
            "cannot align the K-supported factors"
        )
    # mismatch of each k in K: max over h of |(k, h) - c2(h)/c1(h)|
    err = np.abs(pairing(G, [k.coords for k in kernel], coords) - c2 / c1).max(axis=1)
    best = int(np.argmin(err))
    if err[best] > math.sqrt(tol):
        raise DecompositionError(
            "no K-translation aligns the two omega factors "
            f"(best mismatch {err[best]:.3e})"
        )
    return kernel[best]


def _factor(
    reduced: Sequence[AtomicSignedMeasure], a: float, tol: float
) -> tuple[tuple, tuple, tuple, tuple]:
    """Split each reduced mu into an extremal gamma factor and omega on Z(2) x K.

    Returns the pairs of gammas, omegas, raw odd-slice coefficients and
    extremal bounds; the gammas must satisfy the cross constraints for a.
    """
    group = reduced[0].group
    gammas: list[ThetaParams] = []
    omegas: list[AtomicSignedMeasure] = []
    kappas: list[float] = []
    rhos: list[float] = []
    for label, mu_red in zip(("mu1", "mu2"), reduced):
        raw = _real_profile(mu_red, label)
        degenerate = (raw.sigma_p, raw.m_p) == (raw.sigma, raw.m)
        if degenerate:
            rho = 1.0
        else:
            if not (0.0 < raw.sigma_p < raw.sigma):
                raise DecompositionError(
                    f"{label}: exponential profiles (sigma={raw.sigma}, "
                    f"sigma'={raw.sigma_p}) violate the class ordering"
                )
            rho = two_term_bound(raw.sigma, raw.m, raw.sigma_p, raw.m_p)
        if abs(raw.kappa) > rho * (1.0 + 1e-9):
            raise DecompositionError(
                f"{label}: odd-slice coefficient {raw.kappa:.6g} exceeds the "
                f"extremal bound {rho:.6g}; no distribution factorization exists"
            )
        sign = 1.0 if raw.kappa >= 0.0 else -1.0
        # extremal normalization: the gamma factor takes kappa = rho * sign
        # and the leftover scalar sign/rho moves into omega as an order-2
        # signed factor, keeping the product exactly equal to mu
        pi = PiMeasure(sign / rho)
        omega = _finite_marginal(mu_red).convolve(pi.to_measure(group))
        verdict = is_distribution(omega)
        if verdict.is_no:
            raise DecompositionError(
                f"{label}: renormalized omega factor is not a distribution "
                f"(min {verdict.min_value:.3e})"
            )
        gammas.append(ThetaParams(raw.sigma, raw.sigma_p, raw.m, raw.m_p, rho * sign))
        omegas.append(omega)
        kappas.append(raw.kappa)
        rhos.append(rho)
    if not check_cross_constraints(gammas[0], gammas[1], a, tol=math.sqrt(tol)):
        raise DecompositionError(
            f"recovered exponential parameters violate the cross constraints for a = {a}"
        )
    return tuple(gammas), tuple(omegas), tuple(kappas), tuple(rhos)


def decompose(
    mu1: AtomicSignedMeasure,
    mu2: AtomicSignedMeasure,
    alpha: XAutomorphism,
    tol: float = 1e-9,
) -> Decomposition:
    """Recover the canonical factorization from a valid equation instance.

    One pipeline for both branches.  Gate: the grid residual of the
    symmetry equation must be at most tol.  Each mu is reduced to the
    canonical K-coset representative of its finite support.  The factor
    step is the only branch-specific part: for a != -1 it reads the
    exponential profiles, renormalizes the two-Gaussian factor to its
    extremal coefficient (pushing the remainder into omega through an
    order-2 signed factor) and checks the cross constraints; for a = -1
    there is no gamma factor, omega_j is the reduced mu_j, and the real
    shift is aligned by first moments.  Then the omegas are aligned by a
    K-translation, linked by an order-2 measure, and the reconstruction is
    checked against mu1 and mu2.
    """
    group = mu1.group
    if mu2.group != group or alpha.group != group:
        raise DecompositionError("measures and automorphism must share one group")
    for label, mu in (("mu1", mu1), ("mu2", mu2)):
        if abs(mu.total_mass() - 1.0) > MASS_TOL:
            raise DecompositionError(f"{label} total mass is not 1")
        if is_distribution(mu).is_no:
            raise DecompositionError(f"{label} is not a distribution")
    report = equation_residual_report(mu1, mu2, alpha)
    if report.residual > tol:
        raise DecompositionError(
            f"equation residual {report.residual:.3e} exceeds tolerance {tol:.1e}; "
            "the symmetry hypothesis fails"
        )
    kernel = tuple(kernel_of_I_plus(alpha.alpha_G))
    reps = [_coset_representative(mu, kernel, label) for mu, label in ((mu1, "mu1"), (mu2, "mu2"))]
    reduced = [mu.shifted(XPoint(group, 0.0, 0, -rep)) for mu, rep in zip((mu1, mu2), reps)]

    flags: list[str] = []
    notes: list[str] = []
    t_fix = 0.0
    if abs(alpha.a + 1.0) < 1e-12:
        branch = BRANCH_MINUS_ONE
        gamma = kappa_raw = rho = None
        omega1, omega2 = reduced
        # conditional symmetry gives E[L2] = 0, so mu1 and mu2 share their
        # mean when a = -1; K- and order-2 shifts leave the real coordinate
        # alone, so any gap in first moments is a real translation
        m1, m2 = (sum(t.c * t.atom.shift for t in w.terms) for w in reduced)
        if abs(m2 - m1) > tol:
            t_fix = m2 - m1
            omega1 = omega1.shifted(XPoint(group, t_fix, 0, group.G.zero()))
            flags.append("t_shift_aligned")
        notes.append(
            "a = -1 branch: shifts are full ambient points (real and finite "
            "coordinates), not finite elements only"
        )
    else:
        branch = BRANCH_GENERIC
        gamma, (omega1, omega2), kappa_raw, rho = _factor(reduced, alpha.a, tol)

    dk = _kernel_alignment(omega1, omega2, kernel, tol)
    if not dk.is_zero:
        omega1 = omega1.shifted(XPoint(group, 0.0, 0, dk))
        flags.append("k_alignment_applied")
    try:
        rel = delta_relation(omega1, omega2, tol=max(tol, 1e-11))
    except ValueError as exc:
        raise DecompositionError(
            f"cannot link the two omega factors by an order-2 convolution: {exc}"
        ) from exc
    if not rel.holds:
        raise DecompositionError(
            "the two omega factors are not linked by an order-2 convolution"
        )
    if rel.branch == "tau1_eq_tau2_conv_delta":
        direction, other = OMEGA1_FROM_OMEGA2, OMEGA2_FROM_OMEGA1
    else:
        direction, other = OMEGA2_FROM_OMEGA1, OMEGA1_FROM_OMEGA2
    flags.extend(rel.flags)

    # 0.0 - t_fix keeps an unshifted real coordinate at +0.0
    shift = (XPoint(group, 0.0 - t_fix, 0, reps[0] - dk), XPoint(group, 0.0, 0, reps[1]))
    omega = (omega1, omega2)
    rec_err = 0.0
    for j, mu in enumerate((mu1, mu2)):
        rec = omega[j] if gamma is None else theta_to_measure(gamma[j], group).convolve(omega[j])
        rec_err = max(rec_err, char_sup_distance(rec.shifted(shift[j]), mu))
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
        kernel=kernel,
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


def _parity_pairs(
    omega: AtomicSignedMeasure,
) -> dict[tuple[int, ...], tuple[float, float]]:
    pairs: dict[tuple[int, ...], list[float]] = {}
    for t in omega.terms:
        if t.atom.sigma != 0.0 or t.atom.shift != 0.0:
            raise ValueError("omega must be supported on the finite part")
        slot = pairs.setdefault(t.g.coords, [0.0, 0.0])
        slot[t.m % 2] += t.c
    return {g: (a_w, b_w) for g, (a_w, b_w) in pairs.items()}


def rigidity_decision(
    gamma: ThetaParams, omega: AtomicSignedMeasure, rel_tol: float = 1e-12
) -> RigidityResult:
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

    extremal = abs(abs(kappa) - rho) <= rel_tol * rho
    zero_pattern = any(min(p) <= 1e-15 and max(p) > 1e-12 for p in pairs.values())
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
