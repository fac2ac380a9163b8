import math

import numpy as np
import pytest

from heyde import (
    AmbientGroup,
    FiniteAbelianGroup,
    PiMeasure,
    ThetaParams,
    ThetaShapeError,
    char_fn,
    convolve,
    dirac,
    is_distribution,
    is_in_theta,
    lambda_signed,
    measure_to_theta,
    rho_extremal,
    theta_to_measure,
    theta_verdict,
    two_term_bound,
)
from conftest import distribution_oracle, measures_close


@pytest.fixture
def x3():
    return AmbientGroup(FiniteAbelianGroup((3,)))


class TestMembership:
    def test_strict_inside(self):
        assert is_in_theta(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3))
        assert is_in_theta(ThetaParams(1.0, 0.5, 0.2, -0.4, -0.1))

    def test_strict_boundary_is_member(self):
        p = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.0)
        rho = two_term_bound(1.0, 0.0, 0.5, 0.0)
        assert is_in_theta(ThetaParams(1.0, 0.5, 0.0, 0.0, rho))
        assert is_in_theta(ThetaParams(1.0, 0.5, 0.0, 0.0, -rho))
        assert not is_in_theta(ThetaParams(1.0, 0.5, 0.0, 0.0, rho * (1 + 1e-12)))

    def test_kappa_zero_excluded_in_strict_case(self):
        assert not is_in_theta(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.0))

    def test_degenerate_branch(self):
        assert is_in_theta(ThetaParams(1.0, 1.0, 0.3, 0.3, 1.0))
        assert is_in_theta(ThetaParams(0.0, 0.0, 0.1, 0.1, -0.4))
        assert is_in_theta(ThetaParams(2.0, 2.0, 0.0, 0.0, 0.0))
        assert not is_in_theta(ThetaParams(1.0, 1.0, 0.3, 0.3, 1.0 + 1e-12))
        assert not is_in_theta(ThetaParams(1.0, 1.0, 0.3, 0.4, 0.5))

    def test_bad_shapes_excluded(self):
        assert not is_in_theta(ThetaParams(0.5, 1.0, 0.0, 0.0, 0.3))
        assert not is_in_theta(ThetaParams(1.0, 0.0, 0.0, 0.0, 0.3))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ThetaParams(-1.0, 0.5, 0.0, 0.0, 0.3)

    def test_verdict_bands(self):
        rho = two_term_bound(1.0, 0.0, 0.5, 0.0)
        assert theta_verdict(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.5)) == "inside"
        assert theta_verdict(ThetaParams(1.0, 0.5, 0.0, 0.0, rho)) == "boundary"
        assert (
            theta_verdict(ThetaParams(1.0, 0.5, 0.0, 0.0, rho + 1e-15), tol=1e-12)
            == "boundary"
        )
        assert theta_verdict(ThetaParams(1.0, 0.5, 0.0, 0.0, rho + 1e-6)) == "outside"
        assert theta_verdict(ThetaParams(1.0, 0.5, 0.0, 0.0, 1e-14)) == "boundary"
        assert theta_verdict(ThetaParams(1.0, 1.0, 0.0, 0.0, 0.3)) == "inside"
        assert theta_verdict(ThetaParams(1.0, 1.0, 0.0, 0.1, 0.3)) == "outside"

    def test_rho_extremal_frozen(self):
        assert rho_extremal(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.1)) == pytest.approx(
            0.7071067811865476, abs=1e-16
        )


class TestMeasureBridge:
    def test_char_slices(self, x3):
        p = ThetaParams(1.2, 0.4, 0.3, -0.2, -0.35)
        mu = theta_to_measure(p, x3)
        for s in (-1.7, 0.0, 0.8, 2.4):
            expect0 = math.e ** (-p.sigma * s * s) * complex(
                math.cos(p.m * s), math.sin(p.m * s)
            )
            expect1 = p.kappa * math.e ** (-p.sigma_p * s * s) * complex(
                math.cos(p.m_p * s), math.sin(p.m_p * s)
            )
            assert char_fn(mu, x3.dual_point(s, 0, (0,))) == pytest.approx(
                expect0, abs=1e-14
            )
            assert char_fn(mu, x3.dual_point(s, 1, (0,))) == pytest.approx(
                expect1, abs=1e-14
            )

    def test_mass_one(self, x3):
        mu = theta_to_measure(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3), x3)
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-15)

    def test_roundtrip_exact(self, x3):
        p = ThetaParams(1.5, 0.25, -0.7, 0.1, 0.2)
        assert measure_to_theta(theta_to_measure(p, x3)) == p

    def test_roundtrip_degenerate(self, x3):
        p = ThetaParams(1.0, 1.0, 0.4, 0.4, -0.8)
        q = measure_to_theta(theta_to_measure(p, x3))
        mu, nu = theta_to_measure(p, x3), theta_to_measure(q, x3)
        assert measures_close(mu, nu, tol=1e-15)

    def test_roundtrip_kappa_zero(self, x3):
        # the parity-1 slice is empty; it reads as the kappa = 0 member
        p = ThetaParams(1.0, 1.0, 0.2, 0.2, 0.0)
        assert is_in_theta(p)
        assert measure_to_theta(theta_to_measure(p, x3)) == p

    def test_shape_error_off_zero_slot(self, x3):
        mu = theta_to_measure(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3), x3)
        shifted = mu.shifted(x3.point(0.0, 0, (1,)))
        with pytest.raises(ThetaShapeError):
            measure_to_theta(shifted)

    def test_shape_error_three_scales(self, x3):
        from heyde import AtomicSignedMeasure

        mu = AtomicSignedMeasure.from_terms(
            x3,
            [
                (0.4, 1.0, 0.0, 0, (0,)),
                (0.3, 0.5, 0.0, 0, (0,)),
                (0.3, 0.25, 0.0, 1, (0,)),
            ],
        )
        with pytest.raises(ThetaShapeError):
            measure_to_theta(mu)

    def test_membership_matches_distribution_verdict(self, x3):
        rng = np.random.default_rng(29)
        agreements = 0
        for _ in range(40):
            sigma = rng.uniform(0.4, 2.0)
            sigma_p = rng.uniform(0.1, 0.9) * sigma
            m, m_p = rng.uniform(-1, 1, size=2)
            rho = two_term_bound(sigma, m, sigma_p, m_p)
            kappa = rng.choice([-1, 1]) * rho * rng.uniform(0.1, 1.9)
            if abs(abs(kappa) - rho) < 1e-6 * rho:
                continue
            p = ThetaParams(sigma, sigma_p, m, m_p, kappa)
            verdict = is_distribution(theta_to_measure(p, x3))
            assert (verdict.kind == "yes") == is_in_theta(p)
            assert (verdict.kind == "yes") == distribution_oracle(
                theta_to_measure(p, x3)
            )
            agreements += 1
        assert agreements >= 30


class TestLambdaSigned:
    def test_char_slices(self, x3):
        lam = lambda_signed(x3, 1.0, 0.3, 0.5, -0.2)
        for s in (-2.0, 0.4, 1.1):
            assert char_fn(lam, x3.dual_point(s, 0, (0,))) == pytest.approx(
                math.exp(-s * s) * complex(math.cos(0.3 * s), math.sin(0.3 * s)),
                abs=1e-14,
            )
            assert char_fn(lam, x3.dual_point(s, 1, (0,))) == pytest.approx(
                math.exp(-0.5 * s * s) * complex(math.cos(-0.2 * s), math.sin(-0.2 * s)),
                abs=1e-14,
            )

    def test_total_mass_one_but_signed(self, x3):
        lam = lambda_signed(x3, 1.0, 0.0, 0.5, 0.0)
        assert lam.total_mass() == pytest.approx(1.0, abs=1e-15)
        assert is_distribution(lam).kind == "no"


class TestPiMeasure:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            PiMeasure(0.0)

    def test_weights_frozen(self):
        assert PiMeasure(0.5).weights() == (0.75, 0.25)
        assert PiMeasure(2.0).invert().to_measure is not None
        assert PiMeasure(2.0).invert().weights() == (0.75, 0.25)
        assert PiMeasure(2.0).weights() == (1.5, -0.5)

    def test_group_law(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            c1 = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 2)
            c2 = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 2)
            assert (PiMeasure(c1) * PiMeasure(c2)).c == pytest.approx(
                c1 * c2, rel=1e-15
            )

    def test_to_measure_convolution_matches_product(self, x3):
        a, b = PiMeasure(0.6), PiMeasure(-1.7)
        conv = convolve(a.to_measure(x3), b.to_measure(x3))
        prod = (a * b).to_measure(x3)
        assert measures_close(conv, prod, tol=1e-15)

    def test_inverse_convolves_to_identity(self, x3):
        pi = PiMeasure(0.37)
        conv = convolve(pi.to_measure(x3), pi.invert().to_measure(x3))
        assert measures_close(conv, dirac(x3.zero_point()), tol=1e-15)

    def test_char_value_on_parity_slot(self, x3):
        pi = PiMeasure(-0.8)
        mu = pi.to_measure(x3)
        assert char_fn(mu, x3.dual_point(0.0, 1, (0,))) == pytest.approx(-0.8)
        assert char_fn(mu, x3.dual_point(0.0, 0, (0,))) == pytest.approx(1.0)

    def test_exactly_one_of_pair_is_distribution(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            c = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 3)
            if abs(abs(c) - 1.0) < 1e-9:
                continue
            assert PiMeasure(c).is_distribution != PiMeasure(1.0 / c).is_distribution

    def test_unit_boundary_both_distributions(self):
        assert PiMeasure(1.0).is_distribution
        assert PiMeasure(-1.0).is_distribution
        assert PiMeasure(-1.0).invert().is_distribution
