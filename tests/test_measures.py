import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from heyde import (
    AmbientGroup,
    AtomicSignedMeasure,
    FiniteAbelianGroup,
    char_fn,
    convolve,
    density_profile,
    dirac,
    is_distribution,
    max_modulus_check,
    sample,
    sample_arrays,
    two_term_bound,
)
from heyde.finite_abelian import GroupElement
from heyde.measures import _BLOCK, DROP_TOL, _choices, _density, _rejection_sample
from conftest import coset_density_min_oracle, distribution_oracle, measures_close


@pytest.fixture
def x9():
    return AmbientGroup(FiniteAbelianGroup((9,)))


def random_measure(group, rng, n_terms=4, signed=False):
    terms = []
    for _ in range(n_terms):
        c = rng.uniform(0.1, 1.0) * (rng.choice([-1, 1]) if signed else 1.0)
        sigma = rng.choice([0.0, rng.uniform(0.2, 2.0)])
        shift = rng.uniform(-1.5, 1.5)
        m = int(rng.integers(0, 2))
        g = tuple(int(v) for v in rng.integers(0, group.G.cyclic_orders))
        terms.append((c, float(sigma), float(shift), m, g))
    mu = AtomicSignedMeasure.from_terms(group, terms)
    if not signed:
        total = mu.total_mass()
        mu = AtomicSignedMeasure.from_terms(
            group, [(t.c / total, t.atom.sigma, t.atom.shift, t.m, t.g) for t in mu.terms]
        )
    return mu


class TestConstruction:
    def test_merges_duplicate_atoms(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.25, 1.0, 0.0, 0, (3,)), (0.5, 1.0, 0.0, 0, (3,))]
        )
        assert len(mu.terms) == 1
        assert mu.terms[0].c == 0.75

    def test_drops_cancelled_terms(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.4, 1.0, 0.0, 1, (0,)), (-0.4, 1.0, 0.0, 1, (0,))]
        )
        assert mu.terms == ()

    def test_total_mass_and_flags(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.7, 1.0, 0.0, 0, (0,)), (0.3, 0.0, 0.0, 1, (3,))]
        )
        assert mu.total_mass() == pytest.approx(1.0)
        assert mu.has_continuous_part
        assert not mu.is_finite_supported
        finite_only = AtomicSignedMeasure.from_terms(x9, [(1.0, 0.0, 0.0, 0, (0,))])
        assert finite_only.is_finite_supported

    def test_json_roundtrip(self, x9):
        rng = np.random.default_rng(3)
        mu = random_measure(x9, rng, signed=True)
        back = AtomicSignedMeasure.from_json(x9, mu.to_json())
        assert measures_close(mu, back, tol=0.0)


def reference_canonical(group, terms):
    """Canonical (c, sigma, shift, m, coords) rows by the dict merge a
    tuple of Term objects was built with: coefficients summed per key in
    input order from 0.0, sums within DROP_TOL dropped, the rest sorted by
    (sigma, shift, m, coords)."""
    merged = {}
    for c, sigma, shift, m, g in terms:
        gg = g if isinstance(g, GroupElement) else group.G.element(g)
        key = (float(sigma), float(shift), int(m) % 2, gg.coords)
        merged[key] = merged.get(key, 0.0) + float(c)
    kept = [(key, c) for key, c in merged.items() if abs(c) > DROP_TOL]
    kept.sort(key=lambda item: item[0])
    return [(c, sigma, shift, m, coords) for (sigma, shift, m, coords), c in kept]


def exact_rows(rows):
    """Rows with floats as hex strings, so that 0.0 and -0.0 differ."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def column_rows(mu):
    return list(
        zip(
            mu.c.tolist(),
            mu.sigma.tolist(),
            mu.shift.tolist(),
            mu.m.tolist(),
            map(tuple, mu.g.tolist()),
        )
    )


# values that repeat keys, cancel to within DROP_TOL (0.1 + 0.2 - 0.3) and
# carry both signs of zero
RAW_TERM = hs.tuples(
    hs.sampled_from([0.1, 0.2, -0.3, 0.5, -0.5, 1e-15, 2.0 / 3.0, -1.25]),
    hs.sampled_from([0.0, -0.0, 0.5, 1.5]),
    hs.sampled_from([0.0, -0.0, 0.7, -1.25, 0.1 + 0.2]),
    hs.integers(-3, 4),
    # (1, 2), (4, 7) and (-2, -3) are one element of Z(3) x Z(5)
    hs.sampled_from([(0, 0), (1, 2), (4, 7), (-2, -3)]),
    hs.booleans(),
)
# one key three times, summing to about 5.6e-17, and a key under both zeros
CANCELLING = [
    (0.1, 0.5, 0.7, 0, (1, 2), False),
    (0.2, 0.5, 0.7, 2, (4, 7), True),
    (-0.3, 0.5, 0.7, -2, (-2, -3), False),
    (0.5, 0.0, -0.0, 1, (0, 0), False),
    (2.0 / 3.0, 0.0, 0.0, 3, (0, 0), True),
]


class TestCanonicalForm:
    X = AmbientGroup(FiniteAbelianGroup((3, 5)))

    def raw(self, drawn):
        # g as a GroupElement or as a raw, unreduced sequence
        return [
            (c, s, t, m, self.X.G.element(g) if as_element else g)
            for c, s, t, m, g, as_element in drawn
        ]

    @given(hs.lists(RAW_TERM, max_size=12), hs.lists(RAW_TERM, max_size=6))
    @example(CANCELLING, CANCELLING[3:])
    @settings(max_examples=150, deadline=None)
    def test_builders_match_the_dict_merge_reference(self, first, second):
        X = self.X
        mu = AtomicSignedMeasure.from_terms(X, self.raw(first))
        nu = AtomicSignedMeasure.from_terms(X, self.raw(second))
        assert exact_rows(column_rows(mu)) == exact_rows(reference_canonical(X, self.raw(first)))
        assert exact_rows(
            (t.c, t.atom.sigma, t.atom.shift, t.m, t.g.coords) for t in mu.terms
        ) == exact_rows(column_rows(mu))
        # convolve, + and * against the same reference on Term arithmetic,
        # convolution rows mu-major
        products = [
            (
                a.c * b.c,
                a.atom.sigma + b.atom.sigma,
                a.atom.shift + b.atom.shift,
                a.m + b.m,
                a.g + b.g,
            )
            for a, b in itertools.product(mu.terms, nu.terms)
        ]
        sums = [(t.c, t.atom.sigma, t.atom.shift, t.m, t.g) for t in mu.terms + nu.terms]
        scaled = [(t.c * -0.3, t.atom.sigma, t.atom.shift, t.m, t.g) for t in mu.terms]
        for built, terms in (
            (convolve(mu, nu), products),
            (mu + nu, sums),
            (mu * -0.3, scaled),
        ):
            assert exact_rows(column_rows(built)) == exact_rows(reference_canonical(X, terms))

    def test_equality_compares_group_and_content(self, x9):
        rows = [(0.25, 1.0, -0.0, 0, (1,)), (0.75, 0.0, 0.5, 1, (2,))]
        mu = AtomicSignedMeasure.from_terms(x9, rows)
        same = AtomicSignedMeasure.from_terms(x9, rows[::-1])
        assert mu == same and hash(mu) == hash(same)
        # -0.0 and 0.0 shifts are equal keys
        assert mu == AtomicSignedMeasure.from_terms(x9, [(0.25, 1.0, 0.0, 0, (1,)), rows[1]])
        assert mu != AtomicSignedMeasure.from_terms(x9, [(0.25, 1.0, 0.0, 0, (1,))])
        assert mu != AtomicSignedMeasure.from_terms(x9, [(0.5, 1.0, 0.0, 0, (1,)), rows[1]])
        other = AmbientGroup(FiniteAbelianGroup((7,)))
        assert mu != AtomicSignedMeasure.from_terms(other, rows)

    def test_columns_are_read_only(self, x9):
        mu = AtomicSignedMeasure.from_terms(x9, [(1.0, 0.5, 0.25, 1, (4,))])
        for column in (mu.c, mu.sigma, mu.shift, mu.m):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(ValueError):
            mu.g[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mu.c = np.zeros(1)

    def test_bad_terms_are_refused(self, x9):
        for term in [
            (math.nan, 1.0, 0.0, 0, (0,)),
            (1.0, math.inf, 0.0, 0, (0,)),
            (1.0, 1.0, -math.inf, 0, (0,)),
        ]:
            with pytest.raises(ValueError, match="non-finite"):
                AtomicSignedMeasure.from_terms(x9, [term])
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            AtomicSignedMeasure.from_terms(x9, [(1.0, -0.5, 0.0, 0, (0,))])
        foreign = FiniteAbelianGroup((3,)).element((1,))
        with pytest.raises(ValueError, match="different group"):
            AtomicSignedMeasure.from_terms(x9, [(1.0, 0.0, 0.0, 0, foreign)])
        # an overflowing convolution is refused without a numpy warning
        far = dirac(x9.point(1e308, 0, (0,)))
        with pytest.raises(ValueError, match="non-finite"):
            convolve(far, far)


class TestConvolution:
    def test_gaussian_parameters_add(self, x9):
        a = AtomicSignedMeasure.from_terms(x9, [(1.0, 1.0, 0.0, 0, (0,))])
        b = AtomicSignedMeasure.from_terms(x9, [(1.0, 2.0, 3.0, 0, (0,))])
        out = convolve(a, b)
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.atom.sigma, t.atom.shift, t.m, t.g.coords) == (3.0, 3.0, 0, (0,))

    def test_finite_slots_add(self, x9):
        a = dirac(x9.point(0.5, 1, (4,)))
        b = dirac(x9.point(-0.2, 1, (7,)))
        out = convolve(a, b)
        t = out.terms[0]
        assert (t.atom.shift, t.m, t.g.coords) == (0.3, 0, (2,))

    def test_char_multiplicative_under_convolve(self, x9):
        rng = np.random.default_rng(11)
        mu = random_measure(x9, rng, signed=True)
        nu = random_measure(x9, rng, signed=True)
        conv = convolve(mu, nu)
        for _ in range(12):
            y = x9.dual_point(
                rng.normal(), int(rng.integers(0, 2)), (int(rng.integers(0, 9)),)
            )
            assert char_fn(conv, y) == pytest.approx(
                char_fn(mu, y) * char_fn(nu, y), abs=1e-13
            )

    def test_method_and_function_agree(self, x9):
        rng = np.random.default_rng(5)
        mu, nu = random_measure(x9, rng), random_measure(x9, rng)
        assert measures_close(convolve(mu, nu), mu.convolve(nu), tol=0.0)

    def test_shifted_equals_dirac_convolution(self, x9):
        rng = np.random.default_rng(8)
        mu = random_measure(x9, rng)
        x = x9.point(0.7, 1, (2,))
        assert measures_close(mu.shifted(x), convolve(mu, dirac(x)), tol=1e-15)


class TestDensity:
    def test_standard_peak_value(self, x9):
        mu = AtomicSignedMeasure.from_terms(x9, [(1.0, 1.0, 0.0, 0, (0,))])
        val, points = density_profile(mu, 0, (0,), 0.0)
        assert points == []
        assert val == pytest.approx(0.28209479177387814, abs=1e-16)

    def test_density_integrates_to_coefficient(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.6, 1.3, 0.4, 1, (2,)), (0.4, 0.5, -1.0, 1, (2,))]
        )
        t = np.linspace(-40, 40, 200001)
        vals, _ = density_profile(mu, 1, (2,), t)
        assert np.trapezoid(vals, t) == pytest.approx(1.0, abs=1e-9)

    def test_density_second_moment_is_twice_sigma(self, x9):
        mu = AtomicSignedMeasure.from_terms(x9, [(1.0, 1.0, 0.0, 0, (0,))])
        t = np.linspace(-40, 40, 200001)
        vals, _ = density_profile(mu, 0, (0,), t)
        assert np.trapezoid(t * t * vals, t) == pytest.approx(2.0, abs=1e-8)

    def test_point_masses_reported(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.5, 0.0, 1.25, 0, (0,)), (0.5, 1.0, 0.0, 0, (0,))]
        )
        _, points = density_profile(mu, 0, (0,), 0.0)
        assert points == [(1.25, 0.5)]


class TestTwoTermBound:
    def test_frozen_equal_centers(self):
        assert two_term_bound(1.0, 0.0, 0.5, 0.0) == pytest.approx(
            0.7071067811865476, abs=1e-16
        )

    def test_frozen_shifted_centers(self):
        assert two_term_bound(1.0, 0.0, 0.5, math.sqrt(2.0)) == pytest.approx(
            0.2601300475114445, abs=1e-15
        )

    def test_matches_density_ratio_minimum(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(17)
        for _ in range(10):
            sigma = rng.uniform(0.5, 3.0)
            sigma_p = rng.uniform(0.05, 0.95) * sigma
            m = rng.uniform(-1.0, 1.0)
            m_p = rng.uniform(-1.0, 1.0)

            # log of density ratio is a convex quadratic, so plain Brent
            # finds its global minimum
            def log_ratio(t):
                log_num = -((t - m) ** 2) / (4 * sigma) - 0.5 * math.log(
                    4 * math.pi * sigma
                )
                log_den = -((t - m_p) ** 2) / (4 * sigma_p) - 0.5 * math.log(
                    4 * math.pi * sigma_p
                )
                return log_num - log_den

            res = minimize_scalar(log_ratio, options={"xtol": 1e-12})
            assert two_term_bound(sigma, m, sigma_p, m_p) == pytest.approx(
                math.exp(float(res.fun)), rel=1e-9
            )

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            two_term_bound(0.5, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            two_term_bound(1.0, 0.0, 0.0, 0.0)


class TestIsDistribution:
    def build_pair(self, x9, kappa):
        return AtomicSignedMeasure.from_terms(
            x9,
            [
                (0.5, 1.0, 0.0, 0, (0,)),
                (0.5 * kappa, 0.5, 0.0, 0, (0,)),
                (0.5, 1.0, 0.0, 1, (0,)),
                (-0.5 * kappa, 0.5, 0.0, 1, (0,)),
            ],
        )

    def test_boundary_discrimination(self, x9):
        assert is_distribution(self.build_pair(x9, 0.7071067)).kind == "yes"
        assert is_distribution(self.build_pair(x9, 0.7071069)).kind == "no"

    def test_no_verdict_reports_witness(self, x9):
        v = is_distribution(self.build_pair(x9, 0.75))
        assert v.kind == "no"
        m, coords, t = v.witness
        val, _ = density_profile(self.build_pair(x9, 0.75), m, coords, t)
        assert val < 0

    def test_negative_point_mass(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(1.1, 0.0, 0.0, 0, (0,)), (-0.1, 0.0, 1.0, 0, (3,))]
        )
        assert is_distribution(mu).kind == "no"

    def test_agrees_with_grid_oracle(self, x9):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(30):
            mu = random_measure(x9, rng, n_terms=5, signed=True)
            verdict = is_distribution(mu)
            if verdict.kind == "boundary":
                continue
            assert (verdict.kind == "yes") == distribution_oracle(mu), mu
            checked += 1
        assert checked >= 25

    def test_oracle_helper_detects_interior_dip(self, x9):
        # two bumps with a negative well between them
        mu = AtomicSignedMeasure.from_terms(
            x9,
            [
                (0.6, 0.2, -2.0, 0, (0,)),
                (0.6, 0.2, 2.0, 0, (0,)),
                (-0.2, 1.0, 0.0, 0, (0,)),
            ],
        )
        assert coset_density_min_oracle(mu, 0, (0,)) < -1e-4
        assert is_distribution(mu).kind == "no"


class TestSampling:
    def test_variance_and_mean(self, x9):
        mu = AtomicSignedMeasure.from_terms(x9, [(1.0, 1.0, 0.5, 0, (0,))])
        t, m, g = sample_arrays(mu, np.random.default_rng(0), 1_000_000)
        assert np.var(t) == pytest.approx(2.0, rel=0.01)
        assert np.mean(t) == pytest.approx(0.5, abs=0.01)
        assert not m.any()

    def test_finite_marginal_frequencies(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9,
            [(0.5, 1.0, 0.0, 0, (0,)), (0.3, 0.0, 0.0, 1, (3,)), (0.2, 0.5, 0.0, 1, (6,))],
        )
        n = 400_000
        t, m, g = sample_arrays(mu, np.random.default_rng(1), n)
        f0 = np.mean((m == 0))
        f3 = np.mean((m == 1) & (g[:, 0] == 3))
        band = 4.0 / math.sqrt(n)
        assert abs(f0 - 0.5) < band
        assert abs(f3 - 0.3) < band

    def test_kolmogorov_smirnov_against_exact_cdf(self, x9):
        from scipy.stats import norm

        sigma, shift = 0.8, -0.3
        mu = AtomicSignedMeasure.from_terms(x9, [(1.0, sigma, shift, 0, (0,))])
        n = 100_000
        t, _, _ = sample_arrays(mu, np.random.default_rng(2), n)
        ts = np.sort(t)
        cdf = norm.cdf(ts, loc=shift, scale=math.sqrt(2 * sigma))
        ks = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
        assert ks < 2.0 / math.sqrt(n)

    def test_deterministic_under_seed(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(0.5, 1.0, 0.0, 0, (0,)), (0.5, 0.0, 0.7, 1, (4,))]
        )
        pts_a = sample(mu, seed=42, count=200)
        pts_b = sample(mu, seed=42, count=200)
        assert pts_a == pts_b
        pts_c = sample(mu, seed=43, count=200)
        assert pts_a != pts_c

    # sha256 prefixes of the (t, m, g) bytes at fixed seeds: a change to any
    # RNG call, its order or its size, or to one acceptance decision of the
    # rejection step, changes them
    @pytest.mark.parametrize(
        "orders, terms, seed, digests",
        [
            pytest.param(
                (9,),
                [
                    (0.5, 1.0, 0.0, 0, (0,)),
                    (0.25, 0.5, 0.3, 0, (0,)),
                    (0.5, 1.0, 0.0, 1, (2,)),
                    (-0.25, 0.5, 0.0, 1, (2,)),
                ],
                3,
                ("0f622db6e9db908b", "b4ecd5eb6e764b38", "26fe013b236ef00f"),
                id="negative_continuous",
            ),
            pytest.param(
                (9,),
                [
                    (0.2, 0.0, 0.0, 0, (0,)),
                    (0.3, 0.0, -1.5, 0, (0,)),
                    (0.1, 0.0, 0.7, 1, (4,)),
                    (0.4, 0.0, 2.0, 1, (8,)),
                ],
                5,
                ("f1652a4a727ee2ee", "49fd550ea61d4c17", "110f5f8740b9c6de"),
                id="all_point_masses",
            ),
            pytest.param(
                (3, 5),
                [
                    (0.3, 0.0, 0.5, 1, (1, 2)),
                    (0.1, 0.0, -0.5, 1, (1, 2)),
                    (0.25, 0.8, 0.0, 1, (1, 2)),
                    (-0.05, 0.3, 0.1, 1, (1, 2)),
                    (0.4, 1.2, -0.4, 0, (2, 4)),
                ],
                7,
                ("5148d5cbb2ca73c6", "96142b0038d4a572", "11c0f4bb6fbda840"),
                id="mixed_coset_z3z5",
            ),
        ],
    )
    def test_draws_are_pinned(self, orders, terms, seed, digests):
        mu = AtomicSignedMeasure.from_terms(AmbientGroup(FiniteAbelianGroup(orders)), terms)
        t, m, g = sample_arrays(mu, np.random.default_rng(seed), 20_000)
        assert (t.dtype, m.dtype, g.dtype) == (np.float64, np.int8, np.int64)
        assert g.shape == (20_000, len(orders))
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (t, m, g)) == digests

    def test_sample_rejects_signed_measure(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(1.2, 1.0, 0.0, 0, (0,)), (-0.2, 0.0, 0.0, 0, (0,))]
        )
        with pytest.raises(ValueError):
            sample(mu, seed=0, count=10)

    def test_empirical_char_matches_exact(self, x9):
        rng = np.random.default_rng(4)
        mu = random_measure(x9, rng, n_terms=3)
        t, m, g = sample_arrays(mu, np.random.default_rng(5), 200_000)
        y = x9.dual_point(0.4, 1, (2,))
        phase = (
            np.exp(1j * t * y.s)
            * np.where(m % 2 == 1, -1.0, 1.0) ** (y.n)
            * np.exp(2j * math.pi * (g[:, 0] * y.h.coords[0] % 9) / 9.0)
        )
        emp = np.mean(phase)
        assert abs(emp - char_fn(mu, y)) < 0.01


class RecordingRng:
    """A numpy Generator that records the size of every draw, given as
    size or as the length of out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            size = kwargs.get("size", args[0] if args else None)
            self.calls.append((name, len(kwargs["out"]) if "out" in kwargs else size))
            return method(*args, **kwargs)

        return recorded


# signed continuous cosets: (c, sigma, shift) terms, each a distribution
SIGNED_COSETS = {
    "one_positive": [(1.0, 1.0, 0.0), (-0.25, 0.5, 0.0)],
    "two_positive": [(0.6, 1.0, -0.5), (0.5, 1.0, 1.0), (-0.1, 0.2, 0.0)],
}


class TestRejectionSample:
    """_rejection_sample proposes (need + 4 sqrt(need) + 8) / p per round,
    p the coset's acceptance rate, and draws components only when there are
    two or more positive terms."""

    def coset(self, x9, terms):
        mu = AtomicSignedMeasure.from_terms(x9, [(c, s, t, 0, (0,)) for c, s, t in terms])
        assert is_distribution(mu).is_yes
        return list(zip(mu.c.tolist(), mu.sigma.tolist(), mu.shift.tolist()))

    @pytest.mark.parametrize("name", sorted(SIGNED_COSETS))
    def test_kolmogorov_smirnov_against_exact_coset_cdf(self, x9, name):
        from scipy.stats import kstest, norm

        terms = SIGNED_COSETS[name]
        out = np.empty(50_000)
        _rejection_sample(self.coset(x9, terms), np.random.default_rng(12), out)
        mass = sum(c for c, _, _ in terms)

        def cdf(t):
            return sum(c * norm.cdf(t, loc=m, scale=math.sqrt(2 * s)) for c, s, m in terms) / mass

        assert kstest(out, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("name", sorted(SIGNED_COSETS))
    @pytest.mark.parametrize("need", [1, 37, 20_000])
    def test_one_round_fills_a_coset_accepting_above_half(self, x9, name, need):
        terms = self.coset(x9, SIGNED_COSETS[name])
        pos_mass = sum(c for c, _, _ in terms if c > 0.0)
        rate = sum(c for c, _, _ in terms) / (1.1 * pos_mass)
        assert rate > 0.5
        rng = RecordingRng(3)
        out = np.full(need, np.nan)
        _rejection_sample(terms, rng, out)
        assert not np.isnan(out).any()
        # one round of n_prop proposals: n_prop normals and n_prop
        # acceptance uniforms, plus n_prop component uniforms drawn ahead of
        # the normals with two or more positive terms
        n_prop = math.ceil((need + 4.0 * math.sqrt(need) + 8.0) / rate)
        methods = [method for method, _ in rng.calls]
        assert set(methods) == {"random", "standard_normal"}
        assert methods.count("standard_normal") == 1
        ahead = sum(size for _, size in rng.calls[: methods.index("standard_normal")])
        assert ahead == (0 if name == "one_positive" else n_prop)
        drawn = {m: sum(size for method, size in rng.calls if method == m) for m in set(methods)}
        assert drawn == {"standard_normal": n_prop, "random": n_prop + ahead}

    def test_stuck_coset_still_hits_the_retry_cap(self, x9):
        # a valid density of mass about 1e-6 under a positive part of mass 1
        s = 1.0 - 1e-7
        terms = self.coset(x9, [(1.0, 1.0, 0.0), (-(math.sqrt(s) - 1e-6), s, 0.0)])
        rng = RecordingRng(2)
        with pytest.raises(RuntimeError, match="retry cap"):
            _rejection_sample(terms, rng, np.empty(3))
        proposals = sum(size for method, size in rng.calls if method == "standard_normal")
        assert proposals == 10_000 * (3 + 1)


def whole_round_reference(cont, rng, need):
    """The rejection sampler with each round drawn whole: rng.choice for the
    components (two or more positive terms), then standard_normal and
    random, n_prop each.  Returns the draws and the number of rounds."""
    w, sigmas, shifts = (np.array(col) for col in zip(*(row for row in cont if row[0] > 0.0)))
    rate = sum(c for c, _, _ in cont) / (1.1 * w.sum())
    kept, got, rounds = [], 0, 0
    while got < need:
        left = need - got
        n_prop = math.ceil(min((left + 4.0 * math.sqrt(left) + 8.0) / rate, 1_000_000))
        rounds += 1
        comp = rng.choice(len(w), size=n_prop, p=w / w.sum()) if len(w) > 1 else 0
        t = rng.standard_normal(n_prop) * np.sqrt(2.0 * sigmas)[comp] + shifts[comp]
        u = rng.random(n_prop)
        dens = sum(c * _density(sigma, shift, t) for c, sigma, shift in cont)
        env = sum(c * _density(sigma, shift, t) for c, sigma, shift in cont if c > 0.0)
        accepted = t[u * 1.1 * env < dens][:left]
        kept.append(accepted)
        got += len(accepted)
    return np.concatenate(kept), rounds


# cosets for the stream test: 1, 2 and 3 positive terms, one that accepts
# about 0.15 of its proposals, so that a round capped at 10^6 proposals
# leaves 3 * _BLOCK + 17 draws short, and two with no negative term, which
# the sampler does not score
STREAM_COSETS = {
    **SIGNED_COSETS,
    "three_positive": [(0.5, 1.0, -0.3), (0.3, 0.8, 0.2), (0.3, 1.0, 0.4), (-0.1, 0.3, 0.0)],
    "low_acceptance": [(1.0, 1.0, 0.0), (-0.835, 0.75, 0.0)],
    "one_positive_unsigned": [(1.0, 0.7, 0.3)],
    "two_positive_unsigned": [(0.6, 1.0, -0.5), (0.4, 0.3, 1.2)],
}


class TestBlockDrawnStream:
    """_rejection_sample draws its uniforms block by block, yet reads the
    stream of whole-round draws: the same draws, and the generator left
    where whole rounds leave it."""

    @pytest.mark.parametrize(
        "name",
        [
            "one_positive",
            "two_positive",
            "three_positive",
            "one_positive_unsigned",
            "two_positive_unsigned",
        ],
    )
    @pytest.mark.parametrize("need", [1, _BLOCK, 3 * _BLOCK + 17])
    def test_matches_whole_round_draws(self, x9, name, need):
        terms = TestRejectionSample().coset(x9, STREAM_COSETS[name])
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        out = np.empty(need)
        _rejection_sample(terms, rng, out)
        expected, _ = whole_round_reference(terms, twin, need)
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == twin.random()

    def test_a_coset_of_several_rounds(self, x9):
        terms = TestRejectionSample().coset(x9, STREAM_COSETS["low_acceptance"])
        rng, twin = np.random.default_rng(22), np.random.default_rng(22)
        out = np.empty(3 * _BLOCK + 17)
        _rejection_sample(terms, rng, out)
        expected, rounds = whole_round_reference(terms, twin, len(out))
        assert rounds > 1
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == twin.random()

    def test_a_round_filled_before_its_last_block(self, x9):
        # a round of 2 * _BLOCK + 1 or + 2 proposals: its first two blocks
        # almost surely fill out, and its last uniforms are still drawn
        terms = TestRejectionSample().coset(x9, STREAM_COSETS["one_positive"])
        rate = sum(c for c, _, _ in terms) / (1.1 * sum(c for c, _, _ in terms if c > 0.0))
        need = next(
            k for k in range(1, 2 * _BLOCK)
            if math.ceil((k + 4.0 * math.sqrt(k) + 8.0) / rate) > 2 * _BLOCK
        )
        rng, twin = np.random.default_rng(23), np.random.default_rng(23)
        out = np.empty(need)
        _rejection_sample(terms, rng, out)
        expected, _ = whole_round_reference(terms, twin, need)
        assert out.tobytes() == expected.tobytes()
        assert rng.random() == twin.random()


class FixedRng:
    """Serves the given uniforms in order, over and over, to
    random(out=...), and zeros to standard_normal(out=...)."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.at = 0

    def random(self, out):
        out[:] = self.uniforms[(self.at + np.arange(len(out))) % len(self.uniforms)]
        self.at += len(out)

    def standard_normal(self, out):
        out.fill(0.0)


def uniform_scaled_to(target):
    """The largest float u < 1 with fl(u * 1.1) == target."""
    u = np.nextafter(target / 1.1, 2.0)
    while u * 1.1 > target:
        u = np.nextafter(u, 0.0)
    assert u * 1.1 == target and u < 1.0
    return float(u)


class TestUnscoredAcceptance:
    """With no negative term the sampler accepts when fl(u * 1.1) < 1 in
    place of fl(u * 1.1) * env < dens, dens == env; the two agree for every
    env above the smallest normal float, 2^-1022."""

    def test_the_two_tests_agree_on_edge_floats(self):
        rng = np.random.default_rng(41)
        below = uniform_scaled_to(1.0 - 2.0**-53)
        at_one = uniform_scaled_to(1.0)
        u = np.concatenate(([0.0, below, at_one, np.nextafter(at_one, 2.0)], rng.random(200)))
        v = u * 1.1
        assert (v[1], v[2]) == (1.0 - 2.0**-53, 1.0)
        tiny = np.finfo(float).tiny  # 2^-1022
        env = np.concatenate(
            (
                2.0 ** np.arange(-1021, 1024, dtype=float),
                (1.0 + rng.random(2000)) * 2.0 ** rng.integers(-1022, 1023, 2000),
                [np.nextafter(tiny, 1.0), np.finfo(float).max],
            )
        )
        assert (env > tiny).all() and np.isfinite(env).all()
        with np.errstate(over="ignore"):
            scored = np.multiply.outer(v, env) < env
        assert (scored == (v < 1.0)[:, None]).all()
        # at 2^-1022 itself the product rounds in the subnormal range: the
        # one normal env where scoring rejects what the unscored test takes
        assert not (v[1] * tiny < tiny)

    @pytest.mark.parametrize("target, accepted", [(1.0 - 2.0**-53, True), (1.0, False)])
    def test_the_sampler_accepts_below_one_only(self, x9, target, accepted):
        # every proposal sits at the mode, every uniform scales to target
        terms = TestRejectionSample().coset(x9, [(1.0, 0.5, 0.25)])
        out = np.full(3, np.nan)
        rng = FixedRng([uniform_scaled_to(target)])
        if accepted:
            _rejection_sample(terms, rng, out)
            assert out.tolist() == [0.25] * 3
        else:
            with pytest.raises(RuntimeError, match="retry cap"):
                _rejection_sample(terms, rng, out)


class TestChoices:
    """_choices reads and returns what rng.choice does, block by block."""

    @pytest.mark.parametrize(
        "p",
        [
            [1.0],
            np.random.default_rng(2).random(2),
            # zero-weight plateaus, leading and trailing
            [0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0],
            np.random.default_rng(3).random(300),
        ],
        ids=["1", "2", "plateaus", "300"],
    )
    def test_reads_the_stream_of_choice(self, p):
        p = np.asarray(p, dtype=float)
        p /= p.sum()
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        n = _BLOCK + 17
        got = np.empty(n, dtype=np.int64)
        for blk, idx in _choices(p, rng, n, np.empty(_BLOCK)):
            got[blk] = idx
        assert got.tolist() == twin.choice(len(p), size=n, p=p).tolist()
        assert rng.random() == twin.random()


class TestSupportAndModulus:
    def test_max_modulus_on_distribution(self, x9):
        rng = np.random.default_rng(31)
        mu = random_measure(x9, rng, n_terms=4)
        for r in (1.0, 2.0):
            for n, h in [(0, (1,)), (1, (0,)), (1, (5,))]:
                assert max_modulus_check(mu, r, x9.G.character(h), n)

    def test_max_modulus_flags_signed_example(self, x9):
        mu = AtomicSignedMeasure.from_terms(
            x9, [(-0.9, 0.0, 0.0, 0, (0,)), (1.0, 0.0, 0.0, 1, (0,))]
        )
        # trivial slice is 0.1 while the parity slice reaches 1.9
        assert not max_modulus_check(mu, 1.0, x9.G.trivial_character(), 1)
