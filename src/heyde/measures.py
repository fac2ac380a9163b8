"""Atomic signed measures on X = R x Z(2) x G.

A measure is a finite sum of terms c * rho_(sigma, shift) (x) E_(m, g):
a real coefficient times a Gaussian-or-point factor on R times a point
mass on the finite coordinates.  The real factor with sigma > 0 has
density

    rho_(sigma, shift)(t) = exp(-(t - shift)**2 / (4*sigma)) / (2*sqrt(pi*sigma))

and characteristic function exp(-sigma*s**2 + i*shift*s); sigma = 0 is the
point mass at the shift.  The variance of the sigma-Gaussian is 2*sigma.
Convolution is termwise: coefficients multiply, sigmas and shifts add, and
finite coordinates add.  Canonical form merges terms whose (sigma, shift,
m, g) keys match exactly and drops coefficients within 1e-14 of zero.
char_values is the one evaluator of characteristic functions; every other
evaluation in the package is a call to it or to the pairing kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ambient import AmbientGroup, XPoint, YPoint
from .finite_abelian import GroupElement, pairing

__all__ = [
    "RealAtom",
    "Term",
    "AtomicSignedMeasure",
    "DistributionVerdict",
    "dirac",
    "order_two_measure",
    "convolve",
    "char_values",
    "char_fn",
    "density_profile",
    "two_term_bound",
    "is_distribution",
    "sample",
    "sample_arrays",
    "support_in_annihilator",
    "max_modulus_check",
    "measures_close",
]

# canonical form drops coefficients of modulus at most DROP_TOL; a density,
# point mass or class margin within NONNEG_TOL below 0 counts as the
# nonnegativity boundary, not as negative, and a derived coefficient sum
# within NONNEG_TOL of 0 as absent
DROP_TOL = 1e-14
NONNEG_TOL = 1e-12


@dataclass(frozen=True)
class RealAtom:
    """Gaussian factor on R (point mass when sigma = 0)."""

    sigma: float
    shift: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "shift", float(self.shift))

    def density(self, t):
        """Continuous density; only defined for sigma > 0."""
        if self.sigma == 0:
            raise ValueError("point atom has no continuous density")
        return np.exp(-((t - self.shift) ** 2) / (4.0 * self.sigma)) / (
            2.0 * math.sqrt(math.pi * self.sigma)
        )


@dataclass(frozen=True)
class Term:
    c: float
    atom: RealAtom
    m: int
    g: GroupElement

    def key(self) -> tuple:
        return (self.atom.sigma, self.atom.shift, self.m, self.g.coords)


@dataclass(frozen=True)
class AtomicSignedMeasure:
    group: AmbientGroup
    terms: tuple[Term, ...]

    @classmethod
    def from_terms(
        cls,
        group: AmbientGroup,
        terms: Iterable[tuple[float, float, float, int, Sequence[int] | GroupElement]],
    ) -> "AtomicSignedMeasure":
        """Build from (c, sigma, shift, m, g) tuples, canonicalizing: equal
        atoms merge, and merged coefficients of modulus at most DROP_TOL go.

        NaN or infinite c, sigma or shift raise ValueError.
        """
        merged: dict[tuple, float] = {}
        for c, sigma, shift, m, g in terms:
            c, sigma, shift = float(c), float(sigma), float(shift)
            if not (math.isfinite(c) and math.isfinite(sigma) and math.isfinite(shift)):
                raise ValueError(f"non-finite term: c={c}, sigma={sigma}, shift={shift}")
            gg = g if isinstance(g, GroupElement) else group.G.element(g)
            if gg.group != group.G:
                raise ValueError("finite coordinate belongs to a different group")
            key = (sigma, shift, int(m) % 2, gg.coords)
            merged[key] = merged.get(key, 0.0) + c
        out = []
        for (sigma, shift, m, coords), c in merged.items():
            if abs(c) <= DROP_TOL:
                continue
            out.append(Term(c, RealAtom(sigma, shift), m, group.G.element(coords)))
        out.sort(key=Term.key)
        return cls(group, tuple(out))

    def _rebuild(self, terms) -> "AtomicSignedMeasure":
        return AtomicSignedMeasure.from_terms(
            self.group, ((t.c, t.atom.sigma, t.atom.shift, t.m, t.g) for t in terms)
        )

    def __add__(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        if other.group != self.group:
            raise ValueError("measures live on different groups")
        return self._rebuild(self.terms + other.terms)

    def __mul__(self, c: float) -> "AtomicSignedMeasure":
        return AtomicSignedMeasure.from_terms(
            self.group, ((t.c * c, t.atom.sigma, t.atom.shift, t.m, t.g) for t in self.terms)
        )

    __rmul__ = __mul__

    def convolve(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        return convolve(self, other)

    def total_mass(self) -> float:
        return sum(t.c for t in self.terms)

    def cosets(self) -> dict[tuple[int, tuple[int, ...]], list[Term]]:
        """Terms grouped by finite coordinates (m, g)."""
        out: dict[tuple[int, tuple[int, ...]], list[Term]] = {}
        for t in self.terms:
            out.setdefault((t.m, t.g.coords), []).append(t)
        return out

    def shifted(self, x: XPoint) -> "AtomicSignedMeasure":
        """Convolution with the point mass at x."""
        return convolve(self, dirac(x))

    @property
    def is_finite_supported(self) -> bool:
        """True iff all atoms sit at t = 0, i.e. support inside Z(2) x G."""
        return all(t.atom.sigma == 0.0 and t.atom.shift == 0.0 for t in self.terms)

    @property
    def has_continuous_part(self) -> bool:
        return any(t.atom.sigma > 0.0 for t in self.terms)

    def finite_masses(self) -> dict[tuple[int, tuple[int, ...]], float]:
        """Mass per finite coset, ignoring where it sits on R."""
        out: dict[tuple[int, tuple[int, ...]], float] = {}
        for t in self.terms:
            key = (t.m, t.g.coords)
            out[key] = out.get(key, 0.0) + t.c
        return out

    def to_json(self) -> dict:
        return {
            "terms": [
                {"c": t.c, "sigma": t.atom.sigma, "shift": t.atom.shift, "m": t.m, "g": list(t.g.coords)}
                for t in self.terms
            ]
        }

    @classmethod
    def from_json(cls, group: AmbientGroup, data: dict) -> "AtomicSignedMeasure":
        return cls.from_terms(
            group,
            ((d["c"], d["sigma"], d["shift"], d["m"], d["g"]) for d in data["terms"]),
        )


def dirac(x: XPoint) -> AtomicSignedMeasure:
    return AtomicSignedMeasure.from_terms(x.group, [(1.0, 0.0, x.t, x.m, x.g)])


def convolve(mu: AtomicSignedMeasure, nu: AtomicSignedMeasure) -> AtomicSignedMeasure:
    if mu.group != nu.group:
        raise ValueError("measures live on different groups")
    raw = []
    for t1 in mu.terms:
        for t2 in nu.terms:
            raw.append(
                (
                    t1.c * t2.c,
                    t1.atom.sigma + t2.atom.sigma,
                    t1.atom.shift + t2.atom.shift,
                    (t1.m + t2.m) % 2,
                    t1.g + t2.g,
                )
            )
    return AtomicSignedMeasure.from_terms(mu.group, raw)


def order_two_measure(group: AmbientGroup, d: float) -> AtomicSignedMeasure:
    """((1 + d)/2) E_0 + ((1 - d)/2) E_p with p the order-2 point.

    Its characteristic function is 1 at n = 0 and d at n = 1; any real d is
    accepted, and the measure is a distribution exactly when |d| <= 1.
    """
    zero = group.G.zero()
    return AtomicSignedMeasure.from_terms(
        group, [((1.0 + d) / 2.0, 0.0, 0.0, 0, zero), ((1.0 - d) / 2.0, 0.0, 0.0, 1, zero)]
    )


def char_values(mu: AtomicSignedMeasure, s, n=None, h=None) -> np.ndarray:
    """Characteristic function of mu at P values s by Q finite duals (n, h).

    s may be real or complex; n has shape (Q,) and h shape (Q, rank), and
    both default to the whole finite dual Z(2) x H, n-major in index order.
    Terms are grouped by real atom u, so the (P, Q) result is E @ T with
    E[p, u] = exp(-sigma_u s_p**2 + i shift_u s_p) and T[u, q] the atom's
    finite weights paired with (n_q, h_q) by the pairing kernel, which runs
    once per distinct finite slot (m, g).
    """
    G = mu.group.G
    if n is None:
        n = np.repeat([0, 1], G.order)
        h = np.tile(G.all_coords(), (2, 1))
    s = np.atleast_1d(s)
    atoms: dict[tuple[float, float], int] = {}
    slots: dict[tuple[int, tuple[int, ...]], int] = {}
    rows = [atoms.setdefault((t.atom.sigma, t.atom.shift), len(atoms)) for t in mu.terms]
    cols = [slots.setdefault((t.m, t.g.coords), len(slots)) for t in mu.terms]
    weights = np.zeros((len(atoms), len(slots)))
    weights[rows, cols] = [t.c for t in mu.terms]  # canonical terms: no repeats
    finite = pairing(G, [g for _, g in slots], h, [m for m, _ in slots], np.atleast_1d(n))
    table = weights @ finite
    sigmas = np.array([key[0] for key in atoms])
    shifts = np.array([key[1] for key in atoms])
    E = np.exp(-np.multiply.outer(s * s, sigmas) + 1j * np.multiply.outer(s, shifts))
    return E @ table


def char_fn(mu: AtomicSignedMeasure, y: YPoint) -> complex:
    """Characteristic function of mu at the dual point y."""
    if y.group != mu.group:
        raise ValueError("dual point belongs to a different group")
    return complex(char_values(mu, y.s, [y.n], [y.h.coords])[0, 0])


def density_profile(
    mu: AtomicSignedMeasure, m: int, g, t
) -> tuple[np.ndarray | float, list[tuple[float, float]]]:
    """Continuous density on the coset (m, g) at t, plus its point masses.

    Returns (density values, [(location, mass), ...]) where the list covers
    the sigma = 0 atoms of the coset.
    """
    gg = g if isinstance(g, GroupElement) else mu.group.G.element(g)
    key = (int(m) % 2, gg.coords)
    dens = np.zeros_like(np.asarray(t, dtype=float))
    points: list[tuple[float, float]] = []
    for term in mu.cosets().get(key, []):
        if term.atom.sigma == 0.0:
            points.append((term.atom.shift, term.c))
        else:
            dens = dens + term.c * term.atom.density(np.asarray(t, dtype=float))
    if np.isscalar(t):
        return float(dens), points
    return dens, points


def two_term_bound(sigma: float, shift: float, sigma_p: float, shift_p: float) -> float:
    """Largest kappa with rho_(sigma,shift) - kappa*rho_(sigma_p,shift_p) >= 0.

    Requires 0 < sigma_p < sigma.  The value is
    sqrt(sigma_p/sigma) * exp(-(shift - shift_p)**2 / (4*(sigma - sigma_p))).
    """
    if not (0.0 < sigma_p < sigma):
        raise ValueError(f"need 0 < sigma_p < sigma, got sigma={sigma}, sigma_p={sigma_p}")
    return math.sqrt(sigma_p / sigma) * math.exp(
        -((shift - shift_p) ** 2) / (4.0 * (sigma - sigma_p))
    )


@dataclass(frozen=True)
class DistributionVerdict:
    kind: str  # "yes" | "no" | "boundary"
    witness: tuple[int, tuple[int, ...], float] | None = None
    min_value: float | None = None

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"


def _golden_min(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    return t, f(t)


def _coset_continuous_min(cont: list[Term], tol: float) -> tuple[float, float]:
    """(argmin, min value) of the coset's continuous density, numerically.

    Grid plus golden-section refinement; the tail sign is settled by the
    extreme-shift coefficients among the largest-sigma atoms, which dominate
    as t -> +-inf.
    """
    sig_max = max(t.atom.sigma for t in cont)
    tail = [t for t in cont if t.atom.sigma == sig_max]
    right = max(tail, key=lambda t: t.atom.shift)
    left = min(tail, key=lambda t: t.atom.shift)
    shifts = [t.atom.shift for t in cont]
    lo = min(shifts) - 10.0 * math.sqrt(sig_max)
    hi = max(shifts) + 10.0 * math.sqrt(sig_max)

    def dens(t):
        return sum(term.c * term.atom.density(t) for term in cont)

    for term, direction in ((right, +1.0), (left, -1.0)):
        if term.c < 0.0:
            # density goes negative far out on this side; locate a witness
            base = hi if direction > 0 else lo
            step = direction * math.sqrt(sig_max)
            for k in (10.0, 20.0, 40.0, 80.0, 160.0):
                t_far = base + k * step
                v = dens(t_far)
                if v < -tol:
                    return t_far, v

    grid = np.linspace(lo, hi, 4096)
    vals = np.zeros_like(grid)
    for term in cont:
        vals += term.c * term.atom.density(grid)
    j = int(np.argmin(vals))
    a = grid[max(j - 1, 0)]
    b = grid[min(j + 1, len(grid) - 1)]
    t_min, v_min = _golden_min(lambda t: dens(t), a, b)
    if vals[j] < v_min:
        t_min, v_min = grid[j], float(vals[j])
    return t_min, v_min


def is_distribution(mu: AtomicSignedMeasure, tol: float = NONNEG_TOL) -> DistributionVerdict:
    """Decide nonnegativity of the measure, coset by coset.

    Point masses must be >= 0; each coset's continuous density must be
    >= -tol everywhere.  Cosets whose continuous part is exactly one
    positive and one negative Gaussian are settled by the analytic
    two_term_bound; everything else falls to a grid oracle.  Verdicts whose
    worst value lies within +-tol of zero come back as "boundary".
    """
    boundary_seen = False
    worst = math.inf
    for (m, coords), terms in sorted(mu.cosets().items()):
        for t in terms:
            if t.atom.sigma == 0.0:
                if t.c < -tol:
                    return DistributionVerdict("no", (m, coords, t.atom.shift), t.c)
                if t.c < 0.0:
                    boundary_seen = True
                    worst = min(worst, t.c)
        cont = [t for t in terms if t.atom.sigma > 0.0]
        if not cont:
            continue
        pos = [t for t in cont if t.c > 0.0]
        neg = [t for t in cont if t.c < 0.0]
        if not neg:
            continue
        if not pos:
            t0 = max(neg, key=lambda t: abs(t.c))
            return DistributionVerdict("no", (m, coords, t0.atom.shift), t0.c)
        if len(cont) == 2:
            p, q = pos[0], neg[0]
            if q.atom.sigma >= p.atom.sigma:
                # the negative Gaussian dominates at least one tail
                sig = q.atom.sigma
                off = 1.0 if q.atom.shift >= p.atom.shift else -1.0
                t_far = q.atom.shift + off * 12.0 * math.sqrt(sig)
                val = p.c * p.atom.density(t_far) + q.c * q.atom.density(t_far)
                k = 12.0
                while val >= -tol and k < 2000.0:
                    k *= 2.0
                    t_far = q.atom.shift + off * k * math.sqrt(sig)
                    val = p.c * p.atom.density(t_far) + q.c * q.atom.density(t_far)
                return DistributionVerdict("no", (m, coords, t_far), val)
            bound = two_term_bound(p.atom.sigma, p.atom.shift, q.atom.sigma, q.atom.shift)
            t_star = (p.atom.sigma * q.atom.shift - q.atom.sigma * p.atom.shift) / (
                p.atom.sigma - q.atom.sigma
            )
            # density at the ratio minimizer: rho_q(t*) * (c_pos*bound - |c_neg|)
            val = q.atom.density(t_star) * (p.c * bound - abs(q.c))
            if val < -tol:
                return DistributionVerdict("no", (m, coords, t_star), val)
            if val <= tol:
                boundary_seen = True
                worst = min(worst, val)
            continue
        t_min, v_min = _coset_continuous_min(cont, tol)
        if v_min < -tol:
            return DistributionVerdict("no", (m, coords, t_min), v_min)
        if v_min <= tol:
            boundary_seen = True
            worst = min(worst, v_min)
    if boundary_seen:
        return DistributionVerdict("boundary", None, worst)
    return DistributionVerdict("yes", None, None)


def _check_samplable(mu: AtomicSignedMeasure) -> None:
    """Raise ValueError unless mu is a distribution of nonzero mass."""
    verdict = is_distribution(mu)
    if not verdict.is_yes:
        raise ValueError(f"cannot sample: is_distribution verdict is {verdict.kind}")
    if mu.total_mass() <= DROP_TOL:
        raise ValueError("cannot sample a zero-mass measure")


def sample_arrays(
    mu: AtomicSignedMeasure, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count i.i.d. draws as arrays (t, m, g coordinates).

    The measure must pass is_distribution; coset probabilities are coset
    masses over the total.  Continuous cosets are drawn by rejection under
    the positive-part mixture inflated by 1.1.
    """
    _check_samplable(mu)
    cosets = sorted(mu.cosets().items())
    masses = np.array([max(sum(t.c for t in terms), 0.0) for _, terms in cosets])
    probs = masses / masses.sum()
    counts = rng.multinomial(count, probs)

    # the blocked layout holds one small coset index per draw; m and g are
    # expanded from per-coset tables after the permutation
    t_out = np.empty(count, dtype=float)
    c_out = np.empty(count, dtype=np.min_scalar_type(len(cosets)))
    pos0 = 0
    for k, ((_, terms), need) in enumerate(zip(cosets, counts)):
        if need == 0:
            continue
        sl = slice(pos0, pos0 + need)
        pos0 += need
        c_out[sl] = k
        points = [(t.atom.shift, t.c) for t in terms if t.atom.sigma == 0.0]
        cont = [t for t in terms if t.atom.sigma > 0.0]
        p_mass = sum(max(c, 0.0) for _, c in points)
        c_mass = sum(t.c for t in cont)
        coset_mass = p_mass + c_mass
        n_point = rng.binomial(need, p_mass / coset_mass) if cont and points else (
            need if points else 0
        )
        ts = t_out[sl]
        if n_point:
            locs = np.array([loc for loc, _ in points])
            ws = np.array([max(c, 0.0) for _, c in points])
            idx = rng.choice(len(points), size=n_point, p=ws / ws.sum())
            ts[:n_point] = locs[idx]
        if n_point < need:
            _rejection_sample(cont, rng, ts[n_point:])
    perm = rng.permutation(count)
    t = np.take(t_out, perm)
    del t_out
    coset = np.take(c_out, perm)
    del c_out, perm
    m_table = np.array([m for (m, _), _ in cosets], dtype=np.int8)
    g_table = np.array([coords for (_, coords), _ in cosets], dtype=np.int64)
    # np.take gathers the (count, rank) rows several times faster than
    # fancy indexing, with the same result
    return t, np.take(m_table, coset), np.take(g_table, coset, axis=0)


# proposals are scored in blocks whose buffers stay in cache
_BLOCK = 1 << 16


def _rejection_sample(cont: list[Term], rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with draws from the coset's continuous part, by rejection
    under its positive-part mixture inflated by 1.1.  A proposal is accepted
    with probability p = (continuous mass) / (1.1 * positive mass), so a
    round of (need + 4 sqrt(need) + 8) / p proposals, at most 10^6, almost
    always suffices; components are drawn only for two or more positive
    terms.  After 10^4 * (len(out) + 1) proposals it raises RuntimeError.
    """
    need = len(out)
    pos = [t for t in cont if t.c > 0.0]
    w = np.array([t.c for t in pos])
    w_probs = w / w.sum()
    accept_rate = sum(t.c for t in cont) / (1.1 * w.sum())
    scales = np.sqrt(2.0 * np.array([t.atom.sigma for t in pos]))
    shifts = np.array([t.atom.shift for t in pos])
    # each term's density in RealAtom.density's order of operations, so that
    # every acceptance decision is the same bit for bit
    consts = [
        (t.c, t.atom.shift, -4.0 * t.atom.sigma, 2.0 * math.sqrt(math.pi * t.atom.sigma))
        for t in cont
    ]
    got = 0
    proposed = 0
    cap = 10_000 * (need + 1)
    while got < need:
        if proposed >= cap:
            raise RuntimeError("rejection sampling exceeded the retry cap")
        left = need - got
        n_prop = math.ceil(
            min((left + 4.0 * math.sqrt(left) + 8.0) / accept_rate, 1_000_000, cap - proposed)
        )
        proposed += n_prop
        # the draws per round, in this order and of these sizes: the samples
        # at a seed depend on it
        comp = rng.choice(len(pos), size=n_prop, p=w_probs) if len(pos) > 1 else None
        t = rng.standard_normal(n_prop)
        u = rng.random(n_prop)
        accept = np.empty(min(n_prop, _BLOCK), dtype=bool)
        d, dens, env = (np.empty(min(n_prop, _BLOCK)) for _ in range(3))
        for lo in range(0, n_prop, _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            tb, ub = t[blk], u[blk]
            cb = 0 if comp is None else comp[blk]
            tb *= scales[cb]
            tb += shifts[cb]
            ab, db, densb, envb = (a[: len(tb)] for a in (accept, d, dens, env))
            densb.fill(0.0)
            envb.fill(0.0)
            for c, shift, neg_4sigma, norm in consts:
                np.subtract(tb, shift, out=db)
                np.square(db, out=db)
                np.divide(db, neg_4sigma, out=db)
                np.exp(db, out=db)
                np.divide(db, norm, out=db)
                db *= c
                densb += db
                if c > 0.0:
                    envb += db
            ub *= 1.1
            ub *= envb
            np.less(ub, densb, out=ab)
            # accepted proposals go to out in proposal order; the rest of
            # the round's draws are already made, so the stream is the same
            k = int(np.count_nonzero(ab))
            if k >= need - got:
                out[got:] = np.compress(ab, tb)[: need - got]
                got = need
                break
            np.compress(ab, tb, out=out[got : got + k])
            got += k


def sample(mu: AtomicSignedMeasure, seed: int, count: int) -> list[XPoint]:
    """count i.i.d. draws from the distribution, deterministic under seed."""
    rng = np.random.default_rng(seed)
    t, m, g = sample_arrays(mu, rng, count)
    G = mu.group.G
    return [
        XPoint(mu.group, float(t[i]), int(m[i]), G.element(g[i])) for i in range(count)
    ]


def _subgroup_sample(generators: Sequence[YPoint], multiples: int) -> list[YPoint]:
    out: list[YPoint] = []
    for gen in generators:
        y = gen
        for _ in range(multiples):
            out.append(y)
            y = y + gen
    for i, g1 in enumerate(generators):
        for g2 in generators[i + 1 :]:
            out.append(g1 + g2)
    return out


def support_in_annihilator(
    mu: AtomicSignedMeasure,
    generators: Sequence[YPoint],
    tol: float = 1e-9,
    multiples: int = 16,
) -> bool:
    """True iff the characteristic function is 1 on the generated subgroup.

    Checked within tol on integer-combination samples of the generators.
    For a signed measure the value 1 does not put every atom in the
    annihilator: atoms can cancel.
    """
    points = _subgroup_sample(generators, multiples)
    s = np.array([y.s for y in points])
    n = [y.n for y in points]
    h = [y.h.coords for y in points]
    ok = bool(np.all(np.abs(np.diagonal(char_values(mu, s, n, h)) - 1.0) <= tol))
    return ok


def max_modulus_check(
    mu: AtomicSignedMeasure,
    r: float,
    h,
    n: int,
    boundary_samples: int = 256,
    tol: float = 1e-9,
) -> bool:
    """Check max over |s| = r of |char(s, n, h)| <= max of |char(s, 0, 0)| + tol.

    Each term extends to an entire function of s, so the disk maximum sits on
    the boundary circle, sampled at boundary_samples angles.
    """
    hh = h if not isinstance(h, (list, tuple)) else mu.group.G.character(h)
    theta = np.linspace(0.0, 2.0 * np.pi, boundary_samples, endpoint=False)
    s_vals = r * np.exp(1j * theta)
    zero = mu.group.G.zero().coords
    vals = np.abs(char_values(mu, s_vals, [int(n) % 2, 0], [hh.coords, zero]))
    return float(vals[:, 0].max()) <= float(vals[:, 1].max()) + tol


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
