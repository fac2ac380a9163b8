"""The admissible class of two-exponential distributions on R x Z(2).

A parameter tuple p = (sigma, sigma_p, m, m_p, kappa) describes the
function

    phi(s, 0) = exp(-sigma*s**2   + i*m*s)
    phi(s, 1) = kappa * exp(-sigma_p*s**2 + i*m_p*s)

phi is the characteristic function of a distribution iff either

  * 0 < sigma_p < sigma and 0 < |kappa| <= rho_extremal(p), where
    rho_extremal is the sharp two-Gaussian bound, or
  * sigma = sigma_p, m = m_p and |kappa| <= 1.

The corresponding measure splits over the Z(2) coordinate as
(gamma + kappa*gamma_p)/2 on m = 0 and (gamma - kappa*gamma_p)/2 on m = 1.

Two-point measures on Z(2) with a nonzero character value c at n = 1 form
a group under convolution; PiMeasure tracks them by that value.  For
|c| <= 1 the measure ((1+c)/2) E_0 + ((1-c)/2) E_p is a distribution, and
for every c exactly one of the measure and its convolution inverse is a
distribution unless |c| = 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .ambient import AmbientGroup
from .measures import NONNEG_TOL, AtomicSignedMeasure, order_two_measure, two_term_bound

__all__ = [
    "ThetaParams",
    "PiMeasure",
    "is_in_theta",
    "theta_verdict",
    "rho_extremal",
    "theta_to_measure",
    "measure_to_theta",
    "lambda_signed",
    "ThetaShapeError",
]


class ThetaShapeError(ValueError):
    """The measure is not of the two-exponential shape."""


@dataclass(frozen=True)
class ThetaParams:
    sigma: float
    sigma_p: float
    m: float
    m_p: float
    kappa: float

    def __post_init__(self) -> None:
        for name in ("sigma", "sigma_p", "m", "m_p", "kappa"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.sigma < 0 or self.sigma_p < 0:
            raise ValueError("sigma and sigma_p must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ThetaParams":
        return cls(data["sigma"], data["sigma_p"], data["m"], data["m_p"], data["kappa"])


def rho_extremal(p: ThetaParams) -> float:
    """The sharp bound on |kappa| in the strict case 0 < sigma_p < sigma."""
    return two_term_bound(p.sigma, p.m, p.sigma_p, p.m_p)


def is_in_theta(p: ThetaParams) -> bool:
    """Exact membership test for the admissible class."""
    if 0.0 < p.sigma_p < p.sigma:
        return 0.0 < abs(p.kappa) <= rho_extremal(p)
    if p.sigma == p.sigma_p and p.m == p.m_p:
        return abs(p.kappa) <= 1.0
    return False


def theta_verdict(p: ThetaParams, tol: float = NONNEG_TOL) -> str:
    """Membership with a +-tol grace band: "inside" | "boundary" | "outside"."""
    ak = abs(p.kappa)
    if 0.0 < p.sigma_p < p.sigma:
        margin = rho_extremal(p) - ak
        if margin < -tol:
            return "outside"
        if margin <= tol or ak <= tol:
            return "boundary"
        return "inside"
    if p.sigma == p.sigma_p and p.m == p.m_p:
        margin = 1.0 - ak
        if margin < -tol:
            return "outside"
        if margin <= tol:
            return "boundary"
        return "inside"
    return "outside"


def theta_to_measure(p: ThetaParams, group: AmbientGroup) -> AtomicSignedMeasure:
    """The signed measure with characteristic function phi, on g = 0."""
    zero = group.G.zero()
    half_k = 0.5 * p.kappa
    return AtomicSignedMeasure.from_terms(
        group,
        [
            (0.5, p.sigma, p.m, 0, zero),
            (half_k, p.sigma_p, p.m_p, 0, zero),
            (0.5, p.sigma, p.m, 1, zero),
            (-half_k, p.sigma_p, p.m_p, 1, zero),
        ],
    )


def measure_to_theta(mu: AtomicSignedMeasure, tol: float = 1e-9) -> ThetaParams:
    """Recover parameters from a measure supported on R x Z(2) x {0}.

    The restricted characteristic function must be one exponential of
    weight 1 on dual parity 0 and at most one on parity 1; none there is
    the kappa = 0 member (sigma, sigma, m, m, 0).
    """
    if mu.g.any():
        raise ThetaShapeError("measure is not supported on the trivial finite coset")
    by_parity: list[dict[tuple[float, float], float]] = [{}, {}]
    rows = zip(mu.c.tolist(), mu.sigma.tolist(), mu.shift.tolist(), mu.m.tolist())
    for c, sigma, shift, m in rows:
        key = (sigma, shift)
        by_parity[0][key] = by_parity[0].get(key, 0.0) + c
        by_parity[1][key] = by_parity[1].get(key, 0.0) + c * (1.0 if m == 0 else -1.0)
    surviving = [
        [(k, w) for k, w in ps.items() if abs(w) > tol] for ps in by_parity
    ]
    if len(surviving[0]) != 1:
        raise ThetaShapeError(
            f"dual parity 0 carries {len(surviving[0])} exponentials, need exactly 1"
        )
    if len(surviving[1]) > 1:
        raise ThetaShapeError(
            f"dual parity 1 carries {len(surviving[1])} exponentials, need at most 1"
        )
    (sigma, m), w0 = surviving[0][0]
    if abs(w0 - 1.0) > tol:
        raise ThetaShapeError(f"parity-0 exponential has weight {w0}, need 1")
    (sigma_p, m_p), kappa = surviving[1][0] if surviving[1] else ((sigma, m), 0.0)
    return ThetaParams(sigma, sigma_p, m, m_p, kappa)


def lambda_signed(
    group: AmbientGroup, sigma: float, m: float, sigma_p: float, m_p: float
) -> AtomicSignedMeasure:
    """The kappa = 1 signed combination used by the convolution criterion.

    (gamma + gamma_p)/2 on the m = 0 coset plus (gamma - gamma_p)/2 shifted
    by the order-2 point.  Requires 0 < sigma_p < sigma.
    """
    if not (0.0 < sigma_p < sigma):
        raise ValueError(f"need 0 < sigma_p < sigma, got {sigma}, {sigma_p}")
    return theta_to_measure(ThetaParams(sigma, sigma_p, m, m_p, 1.0), group)


@dataclass(frozen=True)
class PiMeasure:
    """Two-point measure on Z(2) with character value c at n = 1."""

    c: float

    def __post_init__(self) -> None:
        if self.c == 0.0:
            raise ValueError("character value c must be nonzero")
        object.__setattr__(self, "c", float(self.c))

    @property
    def is_distribution(self) -> bool:
        return abs(self.c) <= 1.0

    def invert(self) -> "PiMeasure":
        return PiMeasure(1.0 / self.c)

    def __mul__(self, other: "PiMeasure") -> "PiMeasure":
        """Convolution, which multiplies character values."""
        return PiMeasure(self.c * other.c)

    def weights(self) -> tuple[float, float]:
        return ((1.0 + self.c) / 2.0, (1.0 - self.c) / 2.0)

    def to_measure(self, group: AmbientGroup) -> AtomicSignedMeasure:
        return order_two_measure(group, self.c)

    def to_json(self) -> dict:
        return {"c": self.c}

    @classmethod
    def from_json(cls, data: dict) -> "PiMeasure":
        return cls(float(data["c"]))
