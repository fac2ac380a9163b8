import math

import numpy as np
import pytest

from heyde import (
    AmbientGroup,
    AtomicSignedMeasure,
    DecompositionError,
    FiniteAbelianGroup,
    InfeasibleSpec,
    InstanceSpec,
    PiMeasure,
    ThetaParams,
    XAutomorphism,
    XPoint,
    char_fn,
    char_sup_distance,
    check_cross_constraints,
    convolve,
    cross_constraint_residuals,
    decompose,
    derive_partner_params,
    dirac,
    equation_residual,
    factor_exchange,
    generate_instance,
    is_distribution,
    is_in_theta,
    lambda_signed,
    lambda_tau_criterion,
    measures_close,
    negation_automorphism,
    rho_extremal,
    rigidity_decision,
    scalar_automorphism,
    tau_from_coefficients,
    theta_to_measure,
    two_term_bound,
)
from heyde.structure import (
    BRANCH_GENERIC,
    BRANCH_MINUS_ONE,
    OMEGA1_FROM_OMEGA2,
    OMEGA2_FROM_OMEGA1,
)
from conftest import (
    distribution_oracle,
    expected_recovered_d,
    perturb_coefficient,
    rigidity_sweep_oracle,
    standard_instance,
)


@pytest.fixture
def x3():
    return AmbientGroup(FiniteAbelianGroup((3,)))


def recovered_forward_d(dec):
    """Normalize the reported relation to the omega1 = omega2 * pi(d) form."""
    if dec.vartheta_direction == OMEGA1_FROM_OMEGA2:
        return dec.vartheta_d
    return 1.0 / dec.vartheta_d


class TestCrossConstraints:
    def test_frozen_example(self):
        t1 = ThetaParams(2.0, 1.0, 0.0, 0.0, 0.1)
        t2 = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.1)
        assert cross_constraint_residuals(t1, t2, -2.0) == (0.0, 0.0, 0.0, 0.0)
        assert check_cross_constraints(t1, t2, -2.0)

    def test_positive_a_with_scale_conflicts(self):
        t = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.1)
        assert not check_cross_constraints(t, t, 1.0)

    def test_all_zero_parameters_pass_any_a(self):
        t = ThetaParams(0.0, 0.0, 0.0, 0.0, 0.5)
        for a in (-3.0, -1.0, 0.5, 2.0):
            assert check_cross_constraints(t, t, a)

    def test_center_relations(self):
        t2 = ThetaParams(1.0, 0.5, 0.3, -0.2, 0.1)
        t1 = derive_partner_params(t2, -2.0)
        assert cross_constraint_residuals(t1, t2, -2.0) == pytest.approx(
            (0.0,) * 4, abs=1e-15
        )
        assert (t1.sigma, t1.sigma_p) == (2.0, 1.0)
        assert (t1.m, t1.m_p) == (-0.6 * -1.0, 0.4 * -1.0)

    def test_tolerance_band(self):
        t1 = ThetaParams(2.0, 1.0, 0.0, 0.0, 0.1)
        t2 = ThetaParams(1.0 + 1e-8, 0.5, 0.0, 0.0, 0.1)
        assert not check_cross_constraints(t1, t2, -2.0, tol=1e-10)
        assert check_cross_constraints(t1, t2, -2.0, tol=1e-6)


class TestDerivePartner:
    def test_default_kappa_sign_follows_source(self):
        t2 = ThetaParams(1.0, 0.5, 0.0, 0.0, -0.3)
        t1 = derive_partner_params(t2, -2.0)
        assert t1.kappa < 0
        assert abs(t1.kappa) == pytest.approx(
            rho_extremal(t1) * abs(t2.kappa) / rho_extremal(t2)
        )
        assert is_in_theta(t1)

    def test_explicit_kappa_honored(self):
        t2 = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3)
        t1 = derive_partner_params(t2, -2.0, kappa1=-0.5)
        assert t1.kappa == -0.5

    def test_degenerate_source(self):
        t2 = ThetaParams(0.0, 0.0, 0.1, 0.1, 0.8)
        t1 = derive_partner_params(t2, 3.0)
        assert (t1.sigma, t1.sigma_p) == (0.0, 0.0)
        assert t1.m == pytest.approx(-0.3)
        assert is_in_theta(t1)


class TestGenerateInstance:
    def test_structure_of_output(self):
        inst = standard_instance()
        assert inst.mu1.total_mass() == pytest.approx(1.0, abs=1e-14)
        assert inst.mu2.total_mass() == pytest.approx(1.0, abs=1e-14)
        assert inst.x1 == -inst.alpha(inst.x2)
        assert is_distribution(inst.mu1).kind == "yes"
        assert is_distribution(inst.mu2).kind == "yes"

    def test_omega_link_through_vartheta(self):
        inst = standard_instance(vartheta_d=-0.35)
        X = inst.mu1.group
        expected = convolve(inst.omega2, PiMeasure(-0.35).to_measure(X))
        assert measures_close(inst.omega1, expected, tol=1e-14)

    def test_equation_holds(self):
        inst = standard_instance(
            orders=(3, 5),
            matrix=((2, 0), (0, 4)),
            a=-3.0,
            weights=(0.3, 0.3, 0.2, 0.2),
            parities=(0, 0, 1, 1),
            x2=(-0.6, 1, (1, 2)),
        )
        assert equation_residual(inst.mu1, inst.mu2, inst.alpha) < 1e-12

    def test_effective_thetas_fold_real_shift(self):
        inst = standard_instance(x2=(0.8, 0, None))
        eff1, eff2 = inst.effective_thetas()
        assert eff2.m == pytest.approx(inst.theta2.m + 0.8)
        assert eff1.m == pytest.approx(inst.theta1.m + inst.x1.t)

    def test_positive_a_requires_zero_scales(self):
        with pytest.raises(InfeasibleSpec):
            standard_instance(a=2.0, sigma=1.0, sigma_p=0.5)

    def test_positive_a_all_zero_scales_ok(self):
        inst = standard_instance(
            a=3.0, sigma=0.0, sigma_p=0.0, m=0.2, m_p=0.2, kappa=0.8
        )
        assert equation_residual(inst.mu1, inst.mu2, inst.alpha) < 1e-12

    def test_failures_are_collected(self, x3):
        omega_bad = AtomicSignedMeasure.from_terms(
            x3, [(0.45, 0.0, 0.0, 0, (0,)), (0.45, 0.0, 0.0, 1, (0,))]
        )  # mass 0.9
        spec = InstanceSpec(
            group=x3,
            a=0.0,
            alpha_G=negation_automorphism(x3.G),
            theta2=ThetaParams(1.0, 0.5, 0.0, 0.0, 0.9),  # |kappa| > rho
            omega2=omega_bad,
            vartheta_d=1.5,
        )
        with pytest.raises(InfeasibleSpec) as exc:
            generate_instance(spec)
        assert len(exc.value.failures) >= 3

    def test_off_kernel_support_rejected(self):
        G = FiniteAbelianGroup((9,))
        X = AmbientGroup(G)
        al = scalar_automorphism(G, 2)  # kernel {0,3,6}
        omega = AtomicSignedMeasure.from_terms(X, [(1.0, 0.0, 0.0, 0, (1,))])
        spec = InstanceSpec(
            group=X,
            a=-2.0,
            alpha_G=al,
            theta2=ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3),
            omega2=omega,
        )
        with pytest.raises(InfeasibleSpec):
            generate_instance(spec)


DECOMPOSE_CASES = [
    dict(),
    dict(a=-0.5, kappa=-0.25, vartheta_d=-0.7, x2=(0.0, 1, (1,))),
    dict(a=-0.5, kappa1=-0.5, vartheta_d=0.9, x2=(1.1, 0, (2,))),
    dict(
        orders=(9,),
        matrix=((2,),),
        a=-2.0,
        weights=(0.6, 0.2, 0.2),
        parities=(0, 1, 1),
        x2=(0.4, 0, (3,)),
    ),
    dict(
        orders=(3, 5),
        matrix=((2, 0), (0, 4)),
        a=-3.0,
        weights=(0.3, 0.3, 0.2, 0.2),
        parities=(0, 0, 1, 1),
        x2=(-0.6, 1, (1, 2)),
    ),
    dict(a=3.0, sigma=0.0, sigma_p=0.0, m=0.2, m_p=0.2, kappa=0.8, x2=(0.5, 1, (2,))),
    dict(sigma=1.0, sigma_p=1.0, m=0.3, m_p=0.3, kappa=-0.45, a=-2.0),
]

MINUS_ONE_CASES = [
    dict(a=-1.0),
    dict(a=-1.0, sigma=0.7, sigma_p=0.3, kappa=0.5, vartheta_d=0.7, x2=(0.3, 1, (1,))),
]


class TestDecomposeGeneric:
    @pytest.mark.parametrize("case", DECOMPOSE_CASES)
    def test_round_trip(self, case):
        inst = standard_instance(**case)
        dec = decompose(inst.mu1, inst.mu2, inst.alpha)
        assert dec.branch == BRANCH_GENERIC
        assert dec.reconstruction_error <= 1e-10

        eff = inst.effective_thetas()
        kernel_coords = {k.coords for k in dec.kernel}
        X = inst.mu1.group
        for j in range(2):
            got, want = dec.gamma[j], eff[j]
            assert got.sigma == pytest.approx(want.sigma, abs=1e-10)
            assert got.sigma_p == pytest.approx(want.sigma_p, abs=1e-10)
            assert got.m == pytest.approx(want.m, abs=1e-10)
            assert got.m_p == pytest.approx(want.m_p, abs=1e-10)
            # split normalization puts the extremal value on the gamma factor
            assert abs(got.kappa) == pytest.approx(dec.rho[j], rel=1e-9)

            om = dec.omega[j]
            assert om.is_finite_supported
            for t in om.terms:
                assert t.atom.shift == 0.0
                assert t.g.coords in kernel_coords

            rebuilt = (
                theta_to_measure(dec.gamma[j], X)
                .convolve(dec.omega[j])
                .shifted(dec.shift[j])
            )
            target = (inst.mu1, inst.mu2)[j]
            assert char_sup_distance(rebuilt, target) <= 1e-10

        # recovered pair satisfies the scale/center coupling
        assert check_cross_constraints(dec.gamma[0], dec.gamma[1], inst.alpha.a)

        d_eff = recovered_forward_d(dec)
        want_d = expected_recovered_d(inst, branch_generic=True)
        assert d_eff == pytest.approx(want_d, rel=1e-8)

    def test_vartheta_measure_char(self):
        inst = standard_instance()
        dec = decompose(inst.mu1, inst.mu2, inst.alpha)
        X = inst.mu1.group
        triv = tuple(0 for _ in X.G.cyclic_orders)
        assert char_fn(dec.vartheta, X.dual_point(0.0, 0, triv)) == pytest.approx(1.0)
        assert char_fn(dec.vartheta, X.dual_point(0.0, 1, triv)) == pytest.approx(
            dec.vartheta_d
        )

    def test_kernel_alignment_flag_appears(self):
        inst = standard_instance(
            a=3.0, sigma=0.0, sigma_p=0.0, m=0.2, m_p=0.2, kappa=0.8, x2=(0.5, 1, (2,))
        )
        dec = decompose(inst.mu1, inst.mu2, inst.alpha)
        assert dec.reconstruction_error <= 1e-10


class TestDecomposeMinusOne:
    @pytest.mark.parametrize("case", MINUS_ONE_CASES)
    def test_round_trip(self, case):
        inst = standard_instance(**case)
        dec = decompose(inst.mu1, inst.mu2, inst.alpha)
        assert dec.branch == BRANCH_MINUS_ONE
        assert dec.gamma is None
        assert dec.reconstruction_error <= 1e-10
        for j in range(2):
            rebuilt = dec.omega[j].shifted(dec.shift[j])
            target = (inst.mu1, inst.mu2)[j]
            assert char_sup_distance(rebuilt, target) <= 1e-10
        d_eff = recovered_forward_d(dec)
        want_d = expected_recovered_d(inst, branch_generic=False)
        assert d_eff == pytest.approx(want_d, rel=1e-8)
        assert any("a = -1" in n for n in dec.notes)
        # equal first moments on an exact instance: no real shift, and +0.0
        assert "t_shift_aligned" not in dec.flags
        for x in dec.shift:
            assert x.t == 0.0 and math.copysign(1.0, x.t) == 1.0


class TestDecomposeRejections:
    def test_perturbed_instance_rejected(self):
        inst = standard_instance()
        with pytest.raises(DecompositionError):
            decompose(inst.mu1, perturb_coefficient(inst.mu2), inst.alpha)

    def test_non_distribution_rejected(self, x3):
        inst = standard_instance()
        bad = AtomicSignedMeasure.from_terms(
            inst.mu2.group,
            [(t.c, t.atom.sigma, t.atom.shift, t.m, t.g) for t in inst.mu2.terms]
            + [(0.1, 0.0, 0.0, 0, inst.mu2.group.G.zero()), (-0.1, 0.0, 1.0, 0, inst.mu2.group.G.zero())],
        )
        with pytest.raises(DecompositionError):
            decompose(inst.mu1, bad, inst.alpha)

    def test_wrong_mass_rejected(self):
        inst = standard_instance()
        scaled = AtomicSignedMeasure.from_terms(
            inst.mu2.group,
            [(0.9 * t.c, t.atom.sigma, t.atom.shift, t.m, t.g) for t in inst.mu2.terms],
        )
        with pytest.raises(DecompositionError):
            decompose(inst.mu1, scaled, inst.alpha)

    def test_diagnostics_are_strings(self):
        inst = standard_instance()
        try:
            decompose(inst.mu1, perturb_coefficient(inst.mu2), inst.alpha)
        except DecompositionError as e:
            assert all(isinstance(s, str) for s in e.diagnostics)
        else:
            pytest.fail("expected DecompositionError")


# omega2 whose characteristic function vanishes on part of the dual: the
# odd slice (equal parity weights over one point) or every nontrivial h
VANISHING_OMEGA2 = {
    "odd_slice": [(0.5, 0.0, 0.0, 0, (0,)), (0.5, 0.0, 0.0, 1, (0,))],
    "uniform_on_K": [(1.0 / 3.0, 0.0, 0.0, 0, (g,)) for g in range(3)],
}


def vanishing_instance(a, omega_key):
    G = FiniteAbelianGroup((3,))
    X = AmbientGroup(G)
    spec = InstanceSpec(
        group=X,
        a=a,
        alpha_G=negation_automorphism(G),
        theta2=ThetaParams(1.0, 0.5, 0.1, -0.2, 0.3),
        omega2=AtomicSignedMeasure.from_terms(X, VANISHING_OMEGA2[omega_key]),
        vartheta_d=0.5,
        x2=X.point(0.3, 1, (1,)),
    )
    return generate_instance(spec)


class TestDecomposeVanishingOmega:
    """A valid instance whose omega characteristic function vanishes cannot
    be factored; decompose says so with a DecompositionError, never a bare
    ValueError (which the CLI would report as invalid input)."""

    @pytest.mark.parametrize("a", [-1.0, -2.0])
    @pytest.mark.parametrize("omega_key", sorted(VANISHING_OMEGA2))
    def test_raises_decomposition_error(self, a, omega_key):
        inst = vanishing_instance(a, omega_key)
        assert equation_residual(inst.mu1, inst.mu2, inst.alpha) <= 1e-12
        with pytest.raises(DecompositionError) as info:
            decompose(inst.mu1, inst.mu2, inst.alpha)
        assert info.value.diagnostics and all(isinstance(d, str) for d in info.value.diagnostics)


def real_mean(mu):
    return sum(t.c * t.atom.shift for t in mu.terms)


class TestFirstMoments:
    """Conditional symmetry forces E[L2] = 0, so mean(mu1) + a mean(mu2) = 0;
    the a = -1 branch aligns its real shift by that identity (its exact
    round trips are checked in TestDecomposeMinusOne)."""

    @pytest.mark.parametrize("case", DECOMPOSE_CASES + MINUS_ONE_CASES)
    def test_means_satisfy_the_identity(self, case):
        inst = standard_instance(**case)
        assert abs(real_mean(inst.mu1) + inst.alpha.a * real_mean(inst.mu2)) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.7, 25.0])
    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0])
    def test_loose_tol_translation_is_recovered(self, sigma, dt):
        inst = standard_instance(
            a=-1.0, sigma=sigma, sigma_p=0.4 * sigma, kappa=0.5, vartheta_d=0.7,
            x2=(0.3, 1, (1,)),
        )
        X = inst.mu1.group
        mu1 = inst.mu1.shifted(XPoint(X, dt, 0, X.G.zero()))
        tol = 1.01 * equation_residual(mu1, inst.mu2, inst.alpha)
        dec = decompose(mu1, inst.mu2, inst.alpha, tol=tol)
        assert "t_shift_aligned" in dec.flags
        assert dec.shift[0].t == pytest.approx(dt, rel=1e-9)
        assert dec.shift[1].t == 0.0
        assert dec.reconstruction_error <= 1e-10


class TestLambdaTau:
    def test_frozen_boundary_pair(self):
        coeffs = {(0,): (0.9, 0.1), (1,): (0.0, 0.0), (2,): (0.0, 0.0)}
        assert not lambda_tau_criterion(1.0, 0.0, 0.5, 0.0, coeffs)
        coeffs = {(0,): (0.85, 0.15), (1,): (0.0, 0.0), (2,): (0.0, 0.0)}
        assert lambda_tau_criterion(1.0, 0.0, 0.5, 0.0, coeffs)

    def test_matches_distribution_of_convolution(self, x3):
        rng = np.random.default_rng(57)
        checked = 0
        while checked < 30:
            w = rng.dirichlet(np.ones(6))
            coeffs = {
                (0,): (float(w[0]), float(w[1])),
                (1,): (float(w[2]), float(w[3])),
                (2,): (float(w[4]), float(w[5])),
            }
            sigma = float(rng.uniform(0.5, 2.0))
            sigma_p = float(rng.uniform(0.1, 0.9)) * sigma
            m, m_p = (float(v) for v in rng.uniform(-0.5, 0.5, size=2))
            bound = two_term_bound(sigma, m, sigma_p, m_p)
            ratios = [
                abs(a - b) / (a + b) for a, b in coeffs.values() if a + b > 0
            ]
            if any(abs(r - bound) < 1e-3 for r in ratios):
                continue
            verdict = lambda_tau_criterion(sigma, m, sigma_p, m_p, coeffs)
            lam = lambda_signed(x3, sigma, m, sigma_p, m_p)
            tau = tau_from_coefficients(x3, coeffs)
            conv = convolve(lam, tau)
            assert verdict == (is_distribution(conv).kind == "yes")
            assert verdict == distribution_oracle(conv)
            checked += 1

    def test_preconditions(self):
        good = {(0,): (1.0, 0.0)}
        with pytest.raises(ValueError):
            lambda_tau_criterion(0.5, 0.0, 1.0, 0.0, good)
        with pytest.raises(ValueError):
            lambda_tau_criterion(1.0, 0.0, 0.5, 0.0, {(0,): (1.1, -0.1)})
        with pytest.raises(ValueError):
            lambda_tau_criterion(1.0, 0.0, 0.5, 0.0, {(0,): (0.5, 0.4)})

    def test_tau_from_coefficients_layout(self, x3):
        coeffs = {(0,): (0.25, 0.25), (1,): (0.5, 0.0)}
        tau = tau_from_coefficients(x3, coeffs)
        assert tau.total_mass() == pytest.approx(1.0)
        assert tau.is_finite_supported
        masses = tau.finite_masses()
        assert masses[(0, (0,))] == pytest.approx(0.25)
        assert masses[(1, (0,))] == pytest.approx(0.25)
        assert masses[(0, (1,))] == pytest.approx(0.5)


class TestFactorExchange:
    def test_kappa_scales_and_product_invariant(self, x3):
        gamma = ThetaParams(1.0, 0.5, 0.1, -0.2, 0.3)
        omega = tau_from_coefficients(
            x3, {(0,): (0.4, 0.2), (1,): (0.2, 0.1), (2,): (0.06, 0.04)}
        )
        pi = PiMeasure(2.0)
        gamma2, omega2 = factor_exchange(gamma, omega, pi)
        assert gamma2.kappa == pytest.approx(0.6)
        before = convolve(theta_to_measure(gamma, x3), omega)
        after = convolve(theta_to_measure(gamma2, x3), omega2)
        assert char_sup_distance(before, after) < 1e-12

    def test_exchange_may_leave_class(self, x3):
        gamma = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.5)
        omega = tau_from_coefficients(x3, {(0,): (0.6, 0.4)})
        gamma2, _ = factor_exchange(gamma, omega, PiMeasure(2.0))
        assert not is_in_theta(gamma2)  # 1.0 > rho = sqrt(0.5)

    def test_vanishing_guard(self, x3):
        gamma = ThetaParams(1.0, 0.5, 0.0, 0.0, 0.3)
        omega = tau_from_coefficients(x3, {(0,): (0.5, 0.5)})  # odd slice dies
        with pytest.raises(ValueError):
            factor_exchange(gamma, omega, PiMeasure(0.5))
        gamma2, omega2 = factor_exchange(
            gamma, omega, PiMeasure(0.5), check_nonvanishing=False
        )
        assert gamma2.kappa == pytest.approx(0.15)

    def test_inverse_exchange_round_trips(self, x3):
        gamma = ThetaParams(1.0, 0.5, 0.1, -0.2, 0.3)
        omega = tau_from_coefficients(x3, {(0,): (0.4, 0.2), (1,): (0.3, 0.1)})
        pi = PiMeasure(0.7)
        gamma2, omega2 = factor_exchange(gamma, omega, pi)
        gamma3, omega3 = factor_exchange(gamma2, omega2, pi.invert())
        assert gamma3.kappa == pytest.approx(gamma.kappa, rel=1e-14)
        assert measures_close(omega3, omega, tol=1e-14)


class TestRigidity:
    def spec_omega(self, x3):
        return tau_from_coefficients(x3, {(0,): (0.5, 0.0), (1,): (0.0, 0.5)})

    def gamma_with(self, frac):
        sigma, sigma_p, m, m_p = 1.0, 0.5, 0.0, 0.0
        rho = two_term_bound(sigma, m, sigma_p, m_p)
        return ThetaParams(sigma, sigma_p, m, m_p, frac * rho)

    def test_extremal_with_zero_pattern_rigid(self, x3):
        res = rigidity_decision(self.gamma_with(1.0), self.spec_omega(x3))
        assert res.rigid
        assert res.witness is None
        assert not rigidity_sweep_oracle(
            self.gamma_with(1.0), {(0,): (0.5, 0.0), (1,): (0.0, 0.5), (2,): (0.0, 0.0)}
        )

    def test_interior_kappa_flexible(self, x3):
        res = rigidity_decision(self.gamma_with(0.9), self.spec_omega(x3))
        assert not res.rigid
        assert res.witness is not None
        gamma2, omega2 = factor_exchange(
            self.gamma_with(0.9), self.spec_omega(x3), res.witness,
            check_nonvanishing=False,
        )
        assert is_in_theta(gamma2)
        assert is_distribution(omega2).kind == "yes"
        assert rigidity_sweep_oracle(
            self.gamma_with(0.9), {(0,): (0.5, 0.0), (1,): (0.0, 0.5)}
        )

    def test_extremal_without_zero_pattern_flexible(self, x3):
        coeffs = {(0,): (0.3, 0.2), (1,): (0.2, 0.1), (2,): (0.1, 0.1)}
        omega = tau_from_coefficients(x3, coeffs)
        res = rigidity_decision(self.gamma_with(1.0), omega)
        assert not res.rigid
        gamma2, omega2 = factor_exchange(
            self.gamma_with(1.0), omega, res.witness, check_nonvanishing=False
        )
        assert is_in_theta(gamma2)
        assert is_distribution(omega2).kind == "yes"
        assert res.witness.c != 1.0
        assert rigidity_sweep_oracle(self.gamma_with(1.0), coeffs)

    def test_negative_kappa_witness_sign(self, x3):
        gamma = self.gamma_with(-0.6)
        res = rigidity_decision(gamma, self.spec_omega(x3))
        assert not res.rigid
        assert res.witness.c < 0
        gamma2, omega2 = factor_exchange(
            gamma, self.spec_omega(x3), res.witness, check_nonvanishing=False
        )
        assert is_in_theta(gamma2)
        assert is_distribution(omega2).kind == "yes"

    def test_vanishing_char_flagged_not_fatal(self, x3):
        omega = tau_from_coefficients(
            x3, {(0,): (0.25, 0.25), (1,): (0.25, 0.25)}
        )
        res = rigidity_decision(self.gamma_with(0.5), omega)
        assert "vanishing_characteristic_function" in res.flags
        assert not res.rigid

    def test_preconditions(self, x3):
        omega = self.spec_omega(x3)
        degenerate = ThetaParams(1.0, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            rigidity_decision(degenerate, omega)
        with pytest.raises(ValueError):
            rigidity_decision(ThetaParams(1.0, 0.5, 0.0, 0.0, 0.0), omega)

    def test_matches_sweep_on_random_cases(self, x3):
        rng = np.random.default_rng(61)
        done = 0
        while done < 12:
            sigma = float(rng.uniform(0.5, 2.0))
            sigma_p = float(rng.uniform(0.1, 0.9)) * sigma
            m, m_p = (float(v) for v in rng.uniform(-0.5, 0.5, size=2))
            rho = two_term_bound(sigma, m, sigma_p, m_p)
            frac = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 0.95))
            kappa = float(rng.choice([-1.0, 1.0])) * frac * rho
            w = rng.dirichlet(np.ones(6))
            if w.min() < 0.02:
                continue
            pairs = [[float(w[0]), float(w[1])], [float(w[2]), float(w[3])],
                     [float(w[4]), float(w[5])]]
            if rng.random() < 0.5:
                i = int(rng.integers(0, 3))
                pairs[i][0] += pairs[i][1]
                pairs[i][1] = 0.0
            coeffs = {(g,): tuple(pairs[g]) for g in range(3)}
            gamma = ThetaParams(sigma, sigma_p, m, m_p, kappa)
            omega = tau_from_coefficients(x3, coeffs)
            res = rigidity_decision(gamma, omega)
            assert res.rigid == (not rigidity_sweep_oracle(gamma, coeffs))
            done += 1
