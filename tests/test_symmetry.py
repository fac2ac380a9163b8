import math

import numpy as np
import pytest

from heyde import (
    AmbientGroup,
    AtomicSignedMeasure,
    FiniteAbelianGroup,
    PiMeasure,
    SGrid,
    XAutomorphism,
    char_fn,
    char_sup_distance,
    convolve,
    default_s_scale,
    delta_relation,
    dirac,
    equation_residual,
    equation_residual_report,
    finite_exact_check,
    kernel_of_I_plus,
    mc_symmetry_test,
    negation_automorphism,
    ratio_probe_scale,
    scalar_automorphism,
)
from conftest import perturb_coefficient, standard_instance


@pytest.fixture
def x3():
    return AmbientGroup(FiniteAbelianGroup((3,)))


def neg_alpha(X, a=-1.0):
    return XAutomorphism(X, a, negation_automorphism(X.G))


class TestResidual:
    def test_aligned_diracs_satisfy_equation(self, x3):
        A = neg_alpha(x3, -2.0)
        x2 = x3.point(0.7, 1, (2,))
        mu1 = dirac(-A(x2))
        mu2 = dirac(x2)
        assert equation_residual(mu1, mu2, A) < 1e-12

    def test_misaligned_diracs_fail(self, x3):
        A = neg_alpha(x3, -2.0)
        mu1 = dirac(x3.point(0.3, 0, (0,)))
        mu2 = dirac(x3.point(0.7, 1, (2,)))
        assert equation_residual(mu1, mu2, A) > 1e-2

    def test_generated_instance_near_zero(self):
        inst = standard_instance()
        assert equation_residual(inst.mu1, inst.mu2, inst.alpha) < 1e-12

    def test_shift_invariance(self, x3):
        inst = standard_instance()
        X = inst.mu1.group
        A = inst.alpha
        w = X.point(-0.9, 1, (1,))
        mu1 = inst.mu1.shifted(-A(w))
        mu2 = inst.mu2.shifted(w)
        assert equation_residual(mu1, mu2, A) < 1e-12

    def test_perturbation_detected(self):
        inst = standard_instance()
        mu2 = perturb_coefficient(inst.mu2)
        assert equation_residual(inst.mu1, mu2, inst.alpha) > 1e-3

    def test_report_fields_and_scalar_agree(self):
        inst = standard_instance()
        grid = SGrid(smax=2.0, points=9)
        rep = equation_residual_report(inst.mu1, inst.mu2, inst.alpha, grid)
        assert rep.smax == 2.0 and rep.points == 9
        assert rep.residual == equation_residual(inst.mu1, inst.mu2, inst.alpha, grid)

    def test_iid_negation_always_symmetric(self, x3):
        # with the full sign flip both sides coincide for identical factors
        A = neg_alpha(x3)
        mu = AtomicSignedMeasure.from_terms(
            x3, [(0.6, 1.0, 0.4, 0, (1,)), (0.4, 0.5, -0.2, 1, (2,))]
        )
        assert equation_residual(mu, mu, A) < 1e-14

    def test_group_mismatch_rejected(self, x3):
        other = AmbientGroup(FiniteAbelianGroup((5,)))
        mu = dirac(other.zero_point())
        with pytest.raises(ValueError):
            equation_residual(mu, dirac(x3.zero_point()), neg_alpha(x3))


class TestScales:
    def test_default_scale_tracks_smallest_sigma(self, x3):
        wide = AtomicSignedMeasure.from_terms(x3, [(1.0, 4.0, 0.0, 0, (0,))])
        narrow = AtomicSignedMeasure.from_terms(x3, [(1.0, 0.25, 0.0, 0, (0,))])
        assert default_s_scale(narrow) == pytest.approx(4 * default_s_scale(wide))
        assert default_s_scale(narrow, wide) == pytest.approx(default_s_scale(narrow))

    def test_ratio_scale_tracks_largest_sigma(self, x3):
        a = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        b = AtomicSignedMeasure.from_terms(x3, [(1.0, 9.0, 0.0, 0, (0,))])
        assert ratio_probe_scale(a, b) == pytest.approx(ratio_probe_scale(b))
        assert ratio_probe_scale(a) == pytest.approx(3.0)

    def test_finite_only_defaults(self, x3):
        mu = dirac(x3.zero_point())
        assert default_s_scale(mu) == 10.0
        assert ratio_probe_scale(mu) == 10.0


class TestMonteCarlo:
    def test_identical_factors_pass(self, x3):
        A = neg_alpha(x3)
        mu = AtomicSignedMeasure.from_terms(
            x3, [(0.5, 1.0, 0.0, 0, (0,)), (0.3, 0.0, 0.5, 1, (1,)), (0.2, 0.5, 0.0, 0, (2,))]
        )
        rep = mc_symmetry_test(mu, mu, A, n_samples=60_000, seed=7)
        assert rep.passed
        assert rep.threshold == pytest.approx(4.0 / math.sqrt(60_000))

    def test_generated_instance_passes(self):
        inst = standard_instance()
        rep = mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, n_samples=80_000, seed=3)
        assert rep.passed

    def test_mismatched_scales_fail(self, x3):
        A = neg_alpha(x3)
        mu1 = AtomicSignedMeasure.from_terms(x3, [(1.0, 0.5, 0.0, 0, (0,))])
        mu2 = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.5, 0.0, 0, (0,))])
        rep = mc_symmetry_test(mu1, mu2, A, n_samples=50_000, seed=11)
        assert not rep.passed
        assert rep.statistic > 10 * rep.threshold

    def test_perturbed_instance_fails(self):
        inst = standard_instance()
        mu2 = perturb_coefficient(inst.mu2)
        rep = mc_symmetry_test(inst.mu1, mu2, inst.alpha, n_samples=200_000, seed=5)
        assert not rep.passed

    def test_deterministic_given_seed(self):
        inst = standard_instance()
        a = mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, n_samples=20_000, seed=9)
        b = mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, n_samples=20_000, seed=9)
        assert a.statistic == b.statistic

    def test_custom_probes(self, x3):
        A = neg_alpha(x3)
        mu = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        probes = [
            (x3.dual_point(0.5, 0, (0,)), x3.dual_point(0.25, 1, (1,))),
            (x3.dual_point(0.0, 1, (2,)), x3.dual_point(0.75, 0, (0,))),
        ]
        rep = mc_symmetry_test(mu, mu, A, n_samples=30_000, probes=probes, seed=1)
        assert rep.probe_count == 2
        assert rep.passed

    def test_rejects_signed_measure(self, x3):
        A = neg_alpha(x3)
        bad = AtomicSignedMeasure.from_terms(
            x3, [(1.2, 1.0, 0.0, 0, (0,)), (-0.2, 0.0, 0.0, 0, (0,))]
        )
        with pytest.raises(ValueError):
            mc_symmetry_test(bad, bad, A, n_samples=1000)


class TestFiniteExactCheck:
    def build_kernel_law(self, orders, k_scalar, weights, seed=0):
        G = FiniteAbelianGroup(orders)
        X = AmbientGroup(G)
        al = scalar_automorphism(G, k_scalar)
        K = kernel_of_I_plus(al)
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(2 * len(K)))
        terms = [
            (float(w[i]), 0.0, 0.0, i % 2, K[i % len(K)])
            for i in range(2 * len(K))
        ]
        return X, al, AtomicSignedMeasure.from_terms(X, terms)

    def test_equal_laws_on_kernel_exact(self):
        X, al, w = self.build_kernel_law((9,), 2, None, seed=13)
        assert finite_exact_check(w, w, al) < 1e-14

    def test_parity_twist_still_exact(self):
        X, al, w = self.build_kernel_law((9,), 2, None, seed=14)
        w2 = convolve(w, PiMeasure(0.3).to_measure(X))
        assert finite_exact_check(w, w2, al) < 1e-14

    def test_kernel_translation_breaks_it(self):
        X, al, w = self.build_kernel_law((9,), 2, None, seed=15)
        w2 = w.shifted(X.point(0.0, 0, (3,)))
        assert finite_exact_check(w, w2, al) > 1e-3

    def test_support_off_kernel_breaks_it(self):
        G = FiniteAbelianGroup((9,))
        X = AmbientGroup(G)
        al = scalar_automorphism(G, 2)
        w = AtomicSignedMeasure.from_terms(
            X, [(0.5, 0.0, 0.0, 0, (0,)), (0.5, 0.0, 0.0, 0, (1,))]
        )
        assert finite_exact_check(w, w, al) > 1e-3

    def test_rejects_continuous_measure(self, x3):
        mu = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        with pytest.raises(ValueError):
            finite_exact_check(mu, mu, negation_automorphism(x3.G))

    def test_agrees_with_residual_at_zero_frequency(self):
        X, al, w = self.build_kernel_law((9,), 2, None, seed=16)
        w2 = w.shifted(X.point(0.0, 1, (3,)))
        exact = finite_exact_check(w, w2, al)
        A = XAutomorphism(X, -1.0, al)
        grid = equation_residual(w, w2, A, SGrid(smax=0.0, points=2))
        assert exact == pytest.approx(grid, abs=1e-12)


class TestDeltaRelation:
    def base_tau(self, x3, seed=19, sigma=None):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(4))
        terms = [
            (float(w[0]), 0.0, 0.0, 0, (0,)),
            (float(w[1]), 0.0, 0.0, 1, (0,)),
            (float(w[2]), 0.0, 0.0, 0, (1,)),
            (float(w[3]), 0.0, 0.0, 1, (1,)),
        ]
        mu = AtomicSignedMeasure.from_terms(x3, terms)
        if sigma is not None:
            mu = convolve(
                mu, AtomicSignedMeasure.from_terms(x3, [(1.0, sigma, 0.0, 0, (0,))])
            )
        return mu

    def test_forward_branch_frozen_d(self, x3):
        tau2 = self.base_tau(x3)
        tau1 = convolve(tau2, PiMeasure(0.4).to_measure(x3))
        rel = delta_relation(tau1, tau2)
        assert rel.holds
        assert rel.branch == "tau1_eq_tau2_conv_delta"
        assert rel.d == pytest.approx(0.4, abs=1e-12)

    def test_reverse_branch(self, x3):
        tau1 = self.base_tau(x3, seed=21)
        tau2 = convolve(tau1, PiMeasure(-0.6).to_measure(x3))
        rel = delta_relation(tau1, tau2)
        assert rel.branch == "tau2_eq_tau1_conv_delta"
        assert rel.d == pytest.approx(-0.6, abs=1e-12)

    def test_delta_measure_reconstructs(self, x3):
        tau2 = self.base_tau(x3, seed=22)
        tau1 = convolve(tau2, PiMeasure(0.25).to_measure(x3))
        rel = delta_relation(tau1, tau2)
        assert char_sup_distance(convolve(tau2, rel.delta), tau1) < 1e-12

    def test_unrelated_gives_neither(self, x3):
        tau1 = self.base_tau(x3, seed=23)
        tau2 = self.base_tau(x3, seed=24)
        rel = delta_relation(tau1, tau2)
        assert rel.branch == "neither"
        assert not rel.holds

    def test_unit_tie_flagged(self, x3):
        tau2 = self.base_tau(x3, seed=25)
        tau1 = convolve(tau2, PiMeasure(-1.0).to_measure(x3))
        rel = delta_relation(tau1, tau2)
        assert rel.holds
        assert abs(rel.d) == pytest.approx(1.0, abs=1e-12)
        assert "both_branches_fit" in rel.flags

    def test_vanishing_char_raises(self, x3):
        tau2 = AtomicSignedMeasure.from_terms(
            x3, [(0.5, 0.0, 0.0, 0, (0,)), (0.5, 0.0, 0.0, 1, (0,))]
        )
        with pytest.raises(ValueError):
            delta_relation(tau2, tau2)

    def test_continuous_parts_supported(self, x3):
        tau2 = self.base_tau(x3, seed=26, sigma=0.8)
        tau1 = convolve(tau2, PiMeasure(0.55).to_measure(x3))
        rel = delta_relation(tau1, tau2)
        assert rel.holds
        assert rel.d == pytest.approx(0.55, abs=1e-9)


class TestCharSupDistance:
    def test_zero_for_equal(self, x3):
        mu = self.random_mu(x3, 31)
        assert char_sup_distance(mu, mu) == 0.0

    def test_detects_difference(self, x3):
        assert char_sup_distance(self.random_mu(x3, 32), self.random_mu(x3, 33)) > 1e-3

    def test_matches_manual_sup(self, x3):
        mu, nu = self.random_mu(x3, 34), self.random_mu(x3, 35)
        s_values = np.linspace(-2, 2, 11)
        manual = max(
            abs(
                char_fn(mu, x3.dual_point(float(s), n, (h,)))
                - char_fn(nu, x3.dual_point(float(s), n, (h,)))
            )
            for s in s_values
            for n in (0, 1)
            for h in range(3)
        )
        assert char_sup_distance(mu, nu, s_values=s_values) == pytest.approx(
            manual, abs=1e-14
        )

    @staticmethod
    def random_mu(x3, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(3))
        return AtomicSignedMeasure.from_terms(
            x3,
            [
                (float(w[0]), float(rng.uniform(0.3, 1.5)), 0.0, 0, (0,)),
                (float(w[1]), 0.0, float(rng.uniform(-1, 1)), 1, (1,)),
                (float(w[2]), 0.0, 0.0, 0, (2,)),
            ],
        )
