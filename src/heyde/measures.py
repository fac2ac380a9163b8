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
m, g) keys match exactly, drops coefficients within 1e-14 of zero and
sorts the rest by key.  A measure stores its canonical terms as read-only
columns; this module alone reads that layout or the Term view of it.
char_values is the one evaluator of characteristic functions; every other
evaluation in the package is a call to it or to the pairing kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    "max_modulus_check",
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


@dataclass(frozen=True)
class Term:
    c: float
    atom: RealAtom
    m: int
    g: GroupElement


@dataclass(frozen=True, eq=False)
class AtomicSignedMeasure:
    """A measure in canonical form, stored as read-only columns, one row
    per term in canonical order: c, sigma, shift (float64), m (int64) and
    g (int64, shape (U, rank)).  terms is the same content as Term objects.
    """

    group: AmbientGroup
    c: np.ndarray
    sigma: np.ndarray
    shift: np.ndarray
    m: np.ndarray
    g: np.ndarray

    @classmethod
    def from_terms(
        cls,
        group: AmbientGroup,
        terms: Iterable[tuple[float, float, float, int, Sequence[int] | GroupElement]],
    ) -> "AtomicSignedMeasure":
        """Build from (c, sigma, shift, m, g) tuples, canonicalizing: equal
        atoms merge, and merged coefficients of modulus at most DROP_TOL go.

        NaN or infinite c, sigma or shift, sigma < 0 and g of another group
        raise ValueError.
        """
        G = group.G

        def rows():
            for c, sigma, shift, m, g in terms:
                yield float(c), float(sigma), float(shift), int(m) % 2, _coords(G, g)

        return _canonical(group, rows())

    def _rows(self):
        """(c, sigma, shift, m, coords) per term, as Python scalars."""
        return zip(
            self.c.tolist(),
            self.sigma.tolist(),
            self.shift.tolist(),
            self.m.tolist(),
            map(tuple, self.g.tolist()),
        )

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """The canonical terms as Term objects, built on first access."""
        G = self.group.G
        return tuple(
            Term(c, RealAtom(sigma, shift), m, GroupElement(G, coords))
            for c, sigma, shift, m, coords in self._rows()
        )

    @cached_property
    def _cosets(self) -> tuple[tuple[tuple[int, tuple[int, ...]], tuple], ...]:
        """Each finite coset (m, g) in sorted order, with its (c, sigma,
        shift) rows as Python floats in canonical order; grouped on first
        access."""
        out: dict[tuple[int, tuple[int, ...]], list] = {}
        for c, sigma, shift, m, coords in self._rows():
            out.setdefault((m, coords), []).append((c, sigma, shift))
        return tuple((key, tuple(rows)) for key, rows in sorted(out.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomicSignedMeasure):
            return NotImplemented
        return self.group == other.group and all(
            np.array_equal(a, b)
            for a, b in zip(
                (self.c, self.sigma, self.shift, self.m, self.g),
                (other.c, other.sigma, other.shift, other.m, other.g),
            )
        )

    def __hash__(self) -> int:
        return hash((self.group, tuple(self.c.tolist())))

    def __add__(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        if other.group != self.group:
            raise ValueError("measures live on different groups")
        return _canonical(self.group, [*self._rows(), *other._rows()])

    def __mul__(self, c: float) -> "AtomicSignedMeasure":
        return _canonical(self.group, ((w * c, *rest) for w, *rest in self._rows()))

    __rmul__ = __mul__

    def convolve(self, other: "AtomicSignedMeasure") -> "AtomicSignedMeasure":
        return convolve(self, other)

    def total_mass(self) -> float:
        return sum(self.c.tolist())

    def shifted(self, x: XPoint) -> "AtomicSignedMeasure":
        """Convolution with the point mass at x, the same bytes as
        convolve(self, dirac(x)).

        With x.t == 0 the translation moves only (m, g), so it maps
        canonical keys one to one and no term merges or drops: the columns
        take convolve's float ops (c * 1.0 is c; sigma + 0.0 and shift + t
        turn -0.0 into 0.0 as it does), m and g are translated, and one
        lexsort restores the key order.  Any other t goes through convolve,
        since rounding in shift + t can merge keys.
        """
        t = float(x.t)
        if t != 0.0:
            return convolve(self, dirac(x))
        G = self.group.G
        coords = _coords(x.group.G, x.g)
        if x.group != self.group:
            raise ValueError("measures live on different groups")
        sigma = self.sigma + 0.0
        shift = self.shift + t
        m = (self.m + int(x.m) % 2) % 2
        g = (self.g + np.array(coords, dtype=np.int64)) % np.array(G.cyclic_orders)
        order = np.lexsort((*g.T[::-1], m, shift, sigma))
        return _frozen(self.group, self.c[order], sigma[order], shift[order], m[order], g[order])

    @property
    def is_finite_supported(self) -> bool:
        """True iff all atoms sit at t = 0, i.e. support inside Z(2) x G."""
        return not (self.sigma.any() or self.shift.any())

    @property
    def has_continuous_part(self) -> bool:
        return bool((self.sigma > 0.0).any())

    def to_json(self) -> dict:
        return {
            "terms": [
                {"c": c, "sigma": sigma, "shift": shift, "m": m, "g": list(coords)}
                for c, sigma, shift, m, coords in self._rows()
            ]
        }

    @classmethod
    def from_json(cls, group: AmbientGroup, data: dict) -> "AtomicSignedMeasure":
        return cls.from_terms(
            group,
            ((d["c"], d["sigma"], d["shift"], d["m"], d["g"]) for d in data["terms"]),
        )


def _canonical(group: AmbientGroup, rows) -> AtomicSignedMeasure:
    """The canonical measure of (c, sigma, shift, m, coords) rows of Python
    scalars, m in {0, 1} and coords reduced.

    Rows with equal (sigma, shift, m, coords) keys merge: a dict sums their
    coefficients in row order from 0.0 (0.0 and -0.0 keys are one key, the
    first seen kept).  Sums of modulus at most DROP_TOL go, and the rest
    are sorted by key.  NaN or infinite values and sigma < 0 raise
    ValueError.
    """
    merged: dict[tuple, float] = {}
    for c, sigma, shift, m, coords in rows:
        if not (math.isfinite(c) and math.isfinite(sigma) and math.isfinite(shift)):
            raise ValueError(f"non-finite term: c={c}, sigma={sigma}, shift={shift}")
        if sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        key = (sigma, shift, m, coords)
        merged[key] = merged.get(key, 0.0) + c
    kept = sorted(item for item in merged.items() if abs(item[1]) > DROP_TOL)
    keys = [key for key, _ in kept]
    return _frozen(
        group,
        np.array([c for _, c in kept], dtype=float),
        np.array([key[0] for key in keys], dtype=float),
        np.array([key[1] for key in keys], dtype=float),
        np.array([key[2] for key in keys], dtype=np.int64),
        np.array([key[3] for key in keys], dtype=np.int64).reshape(len(keys), group.G.rank),
    )


def _frozen(group: AmbientGroup, *columns: np.ndarray) -> AtomicSignedMeasure:
    """The measure of canonical columns, made read-only."""
    for column in columns:
        column.flags.writeable = False
    return AtomicSignedMeasure(group, *columns)


def _coords(G, g) -> tuple[int, ...]:
    """Reduced coordinates of g, a GroupElement of G or a coordinate sequence."""
    gg = g if isinstance(g, GroupElement) else G.element(g)
    if gg.group != G:
        raise ValueError("finite coordinate belongs to a different group")
    return gg.coords


def dirac(x: XPoint) -> AtomicSignedMeasure:
    return AtomicSignedMeasure.from_terms(x.group, [(1.0, 0.0, x.t, x.m, x.g)])


def convolve(mu: AtomicSignedMeasure, nu: AtomicSignedMeasure) -> AtomicSignedMeasure:
    """Termwise product, rows mu-major: coefficients multiply, sigmas,
    shifts and finite coordinates add."""
    if mu.group != nu.group:
        raise ValueError("measures live on different groups")
    G = mu.group.G
    # an overflowing product or sum is refused by the canonicalizer
    with np.errstate(over="ignore"):
        c = np.multiply.outer(mu.c, nu.c)
        sigma = np.add.outer(mu.sigma, nu.sigma)
        shift = np.add.outer(mu.shift, nu.shift)
    m = np.add.outer(mu.m, nu.m) % 2
    g = (mu.g[:, None, :] + nu.g[None, :, :]) % np.array(G.cyclic_orders)
    rows = zip(
        c.ravel().tolist(),
        sigma.ravel().tolist(),
        shift.ravel().tolist(),
        m.ravel().tolist(),
        map(tuple, g.reshape(-1, G.rank).tolist()),
    )
    return _canonical(mu.group, rows)


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
    rows = [atoms.setdefault(key, len(atoms)) for key in zip(mu.sigma.tolist(), mu.shift.tolist())]
    cols = [
        slots.setdefault(key, len(slots))
        for key in zip(mu.m.tolist(), map(tuple, mu.g.tolist()))
    ]
    weights = np.zeros((len(atoms), len(slots)))
    weights[rows, cols] = mu.c  # canonical terms: no repeats
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


def _density(sigma: float, shift: float, t):
    """rho_(sigma, shift) at t for sigma > 0, in one fixed order of
    operations, so that every caller gets the same bits."""
    return np.exp(-((t - shift) ** 2) / (4.0 * sigma)) / (2.0 * math.sqrt(math.pi * sigma))


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
    for c, sigma, shift in dict(mu._cosets).get(key, ()):
        if sigma == 0.0:
            points.append((shift, c))
        else:
            dens = dens + c * _density(sigma, shift, np.asarray(t, dtype=float))
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


def _coset_continuous_min(
    cont: list[tuple[float, float, float]], tol: float
) -> tuple[float, float]:
    """(argmin, min value) of the continuous density of a coset's (c,
    sigma, shift) rows, numerically.

    Grid plus golden-section refinement; the tail sign is settled by the
    extreme-shift coefficients among the largest-sigma atoms, which dominate
    as t -> +-inf.
    """
    sig_max = max(sigma for _, sigma, _ in cont)
    tail = [row for row in cont if row[1] == sig_max]
    right = max(tail, key=lambda row: row[2])
    left = min(tail, key=lambda row: row[2])
    shifts = [shift for _, _, shift in cont]
    lo = min(shifts) - 10.0 * math.sqrt(sig_max)
    hi = max(shifts) + 10.0 * math.sqrt(sig_max)

    def dens(t):
        return sum(c * _density(sigma, shift, t) for c, sigma, shift in cont)

    for (c, _, _), direction in ((right, +1.0), (left, -1.0)):
        if c < 0.0:
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
    for c, sigma, shift in cont:
        vals += c * _density(sigma, shift, grid)
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
    for (m, coords), rows in mu._cosets:
        for c, sigma, shift in rows:
            if sigma == 0.0:
                if c < -tol:
                    return DistributionVerdict("no", (m, coords, shift), c)
                if c < 0.0:
                    boundary_seen = True
                    worst = min(worst, c)
        cont = [row for row in rows if row[1] > 0.0]
        if not cont:
            continue
        pos = [row for row in cont if row[0] > 0.0]
        neg = [row for row in cont if row[0] < 0.0]
        if not neg:
            continue
        if not pos:
            c0, _, shift0 = max(neg, key=lambda row: abs(row[0]))
            return DistributionVerdict("no", (m, coords, shift0), c0)
        if len(cont) == 2:
            (cp, sp, tp), (cq, sq, tq) = pos[0], neg[0]

            def two_term_density(t):
                return cp * _density(sp, tp, t) + cq * _density(sq, tq, t)

            if sq >= sp:
                # the negative Gaussian dominates at least one tail
                off = 1.0 if tq >= tp else -1.0
                t_far = tq + off * 12.0 * math.sqrt(sq)
                val = two_term_density(t_far)
                k = 12.0
                while val >= -tol and k < 2000.0:
                    k *= 2.0
                    t_far = tq + off * k * math.sqrt(sq)
                    val = two_term_density(t_far)
                return DistributionVerdict("no", (m, coords, t_far), val)
            bound = two_term_bound(sp, tp, sq, tq)
            t_star = (sp * tq - sq * tp) / (sp - sq)
            # density at the ratio minimizer: rho_q(t*) * (c_pos*bound - |c_neg|)
            val = _density(sq, tq, t_star) * (cp * bound - abs(cq))
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


# draws are made and proposals scored in blocks whose buffers stay in cache
_BLOCK = 1 << 16


def _choices(p: np.ndarray, rng: np.random.Generator, n: int):
    """n indices drawn with probabilities p, as (slice, indices) blocks of
    at most _BLOCK, the uniforms and the indices in buffers that the next
    block reuses.  They read and return what rng.choice(len(p), size=n,
    p=p) does: n uniforms, each mapped to cdf.searchsorted(u, "right"), the
    number of cdf entries at or below it.  Since u < 1 = cdf[-1], that is a
    count over cdf[:-1], found by a branchless binary search: cdf[:-1]
    padded with +inf to 2^k - 1 entries, then k passes of take, compare and
    add, 2^k >= len(p)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    width = 1 << (len(p) - 1).bit_length()
    edges = np.full(width - 1, np.inf)
    edges[: len(p) - 1] = cdf[:-1]
    size = min(n, _BLOCK)
    u, val = np.empty(size), np.empty(size)
    idx, add = np.zeros(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    up = np.empty(size, dtype=bool)
    for lo in range(0, n, _BLOCK):
        ub, ib, upb, valb, addb = (a[: min(_BLOCK, n - lo)] for a in (u, idx, up, val, add))
        rng.random(out=ub)
        step = width >> 1
        if step:
            np.greater_equal(ub, edges[step - 1], out=upb)
            np.multiply(upb, step, out=ib)
        while step > 1:
            step >>= 1
            # every index is in range, and "clip" writes out unbuffered
            np.take(edges[step - 1 :], ib, out=valb, mode="clip")
            np.greater_equal(ub, valb, out=upb)
            np.multiply(upb, step, out=addb)
            ib += addb
        yield slice(lo, lo + len(ub)), ib


def _coset_probs(cosets: Sequence) -> np.ndarray:
    """Each coset's probability: its mass (negative read as 0) over the total."""
    masses = np.array([max(sum(c for c, _, _ in rows), 0.0) for _, rows in cosets])
    return masses / masses.sum()


def _draw_blocks(cosets: Sequence, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The t coordinates of counts[k] i.i.d. draws from coset k of
    cosets, in one block per coset in coset order.  A coset splits its
    draws between point masses and the continuous part by one binomial,
    picks the points by weight and draws the rest by _rejection_sample."""
    t = np.empty(int(counts.sum()), dtype=float)
    stop = 0
    for (_, rows), need in zip(cosets, counts.tolist()):
        if need == 0:
            continue
        ts = t[stop : stop + need]
        stop += need
        points = [(shift, c) for c, sigma, shift in rows if sigma == 0.0]
        cont = [row for row in rows if row[1] > 0.0]
        p_mass = sum(max(c, 0.0) for _, c in points)
        c_mass = sum(c for c, _, _ in cont)
        coset_mass = p_mass + c_mass
        n_point = rng.binomial(need, p_mass / coset_mass) if cont and points else (
            need if points else 0
        )
        if n_point:
            locs = np.array([loc for loc, _ in points])
            ws = np.array([max(c, 0.0) for _, c in points])
            for blk, idx in _choices(ws / ws.sum(), rng, n_point):
                ts[blk] = locs[idx]
        if n_point < need:
            _rejection_sample(cont, rng, ts[n_point:])
    return t


def sample_arrays(
    mu: AtomicSignedMeasure, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count i.i.d. draws as arrays (t, m, g coordinates).

    The measure must pass is_distribution; coset probabilities are coset
    masses over the total.  A continuous coset is drawn directly from its
    mixture when it has no negative term, and otherwise by rejection under
    its positive-part mixture (see _rejection_sample).
    """
    _check_samplable(mu)
    cosets = mu._cosets
    counts = rng.multinomial(count, _coset_probs(cosets))
    # the blocked layout holds one small coset index per draw; m and g are
    # expanded from per-coset tables after the permutation
    t_out = _draw_blocks(cosets, counts, rng)
    c_out = np.repeat(np.arange(len(cosets), dtype=np.min_scalar_type(len(cosets))), counts)
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


def _rejection_sample(
    cont: Sequence[tuple[float, float, float]], rng: np.random.Generator, out: np.ndarray
) -> None:
    """Fill out with draws from a coset's continuous part, its (c, sigma,
    shift) rows.  A coset with no negative term is its positive mixture,
    drawn directly: len(out) component uniforms (only with two or more
    terms), then len(out) normals, the stream of rng.choice(p=...) and
    standard_normal.

    Any other is drawn by rejection under its positive-part mixture, which
    its density never exceeds: a proposal t is accepted when u * env(t) <
    dens(t), env the positive-part density, with probability p =
    (continuous mass) / (positive mass), so a round of (need + 4 sqrt(need)
    + 8) / p proposals, at most 10^6, almost always suffices.  After 10^4 *
    (len(out) + 1) proposals it raises RuntimeError.  A round of n
    proposals reads n component uniforms, n normals and n acceptance
    uniforms, in that order, the uniforms drawn _BLOCK at a time; a round
    that fills out early still draws its remaining uniforms, so rng ends
    where whole-round choice, standard_normal and random calls leave it.

    Memory beyond out: 1 byte per draw drawn directly, or 9 bytes per
    proposal of the first rejection round, plus O(_BLOCK).
    """
    need = len(out)
    w, sigmas, shifts = (np.array(col) for col in zip(*(row for row in cont if row[0] > 0.0)))
    scales = np.sqrt(2.0 * sigmas)

    def propose(t):
        # len(t) component picks (two or more terms), then len(t) normals
        # into t, scaled and shifted block by block in place
        comp = None
        if len(w) > 1:
            comp = np.empty(len(t), dtype=np.min_scalar_type(len(w) - 1))
            for blk, idx in _choices(w / w.sum(), rng, len(t)):
                comp[blk] = idx
        rng.standard_normal(out=t)
        for lo in range(0, len(t), _BLOCK):
            tb = t[lo : lo + _BLOCK]
            cb = 0 if comp is None else comp[lo : lo + _BLOCK]
            tb *= scales[cb]
            tb += shifts[cb]

    if not any(c < 0.0 for c, _, _ in cont):
        propose(out)
        return
    accept_rate = sum(c for c, _, _ in cont) / w.sum()
    # each term's density in _density's order of operations, so that every
    # acceptance decision is the same bit for bit
    consts = [
        (c, shift, -4.0 * sigma, 2.0 * math.sqrt(math.pi * sigma)) for c, sigma, shift in cont
    ]
    got = 0
    proposed = 0
    cap = 10_000 * (need + 1)
    normals = None
    while got < need:
        if proposed >= cap:
            raise RuntimeError("rejection sampling exceeded the retry cap")
        left = need - got
        n_prop = math.ceil(
            min((left + 4.0 * math.sqrt(left) + 8.0) / accept_rate, 1_000_000, cap - proposed)
        )
        proposed += n_prop
        if normals is None:
            # the first round is the largest: its buffers serve every round
            normals = np.empty(n_prop)
            u, d, dens, env = (np.empty(min(n_prop, _BLOCK)) for _ in range(4))
            accept = np.empty(len(u), dtype=bool)
        # the draws per round, in this order and of these sizes: the samples
        # at a seed depend on it
        t = normals[:n_prop]
        propose(t)
        for lo in range(0, n_prop, _BLOCK):
            tb = t[lo : lo + _BLOCK]
            ub, ab, db, densb, envb = (a[: len(tb)] for a in (u, accept, d, dens, env))
            rng.random(out=ub)
            if got == need:
                continue  # the round is filled; its uniforms are still drawn
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
            ub *= envb
            np.less(ub, densb, out=ab)
            # accepted proposals go to out in proposal order
            k = int(np.count_nonzero(ab))
            if k >= need - got:
                out[got:] = np.compress(ab, tb)[: need - got]
                got = need
            else:
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
