import importlib.util
import math
import random
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.stats import ks_2samp

from heyde import (
    decompose,
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
    joint_law_report,
    joint_law_residual,
    kernel_of_I_plus,
    mc_symmetry_test,
    negation_automorphism,
    scalar_automorphism,
    theta_to_measure,
)
from heyde.finite_abelian import GroupAutomorphism
from heyde.measures import _BLOCK, _draw_blocks, order_two_measure, sample_arrays
from heyde.structure import InstanceSpec, generate_instance
from heyde.symmetry import (
    KEY_TOL,
    JointKey,
    JointLawReport,
    _cluster_labels,
    _cos_sin,
    _default_probe_pairs,
    _on_two_threads,
    _parity_sums,
    _probe_sums,
    _sample_pair,
)
from conftest import (
    expand_pairs,
    perturb_coefficient,
    standard_instance,
    values_by_definition,
    values_on_pairs,
)


def load_workloads():
    """bench/workloads.py by path: its instance generator and perturbation
    draw the pairs below (the file is only read)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("heyde_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


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

    def test_finite_only_defaults(self, x3):
        mu = dirac(x3.zero_point())
        assert default_s_scale(mu) == 10.0


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


def z3z5_pair():
    """A Z(3)xZ(5) pair: mu1 with a mixed point/continuous coset, mu2 with a
    negative continuous term."""
    X = AmbientGroup(FiniteAbelianGroup((3, 5)))
    mu1 = AtomicSignedMeasure.from_terms(
        X,
        [
            (0.3, 0.0, 0.5, 1, (1, 2)),
            (0.1, 0.0, -0.5, 1, (1, 2)),
            (0.25, 0.8, 0.0, 1, (1, 2)),
            (-0.05, 0.3, 0.1, 1, (1, 2)),
            (0.4, 1.2, -0.4, 0, (2, 4)),
        ],
    )
    mu2 = AtomicSignedMeasure.from_terms(
        X,
        [
            (0.5, 1.0, 0.0, 0, (0, 0)),
            (0.25, 0.5, 0.3, 0, (0, 3)),
            (0.5, 1.0, 0.0, 1, (2, 1)),
            (-0.25, 0.5, 0.0, 1, (2, 1)),
        ],
    )
    return mu1, mu2, neg_alpha(X, -2.0)


def draw_pair(mu1, mu2, n_samples, seed):
    """The grouped pairs mc_symmetry_test draws at seed."""
    return _sample_pair(mu1, mu2, seed, n_samples)


def on_one_thread(first, second):
    """_on_two_threads run on the calling thread alone, second before
    first."""
    later = second()
    return [first(), later]


def check_probe_sums(alpha, draws, probes, monkeypatch):
    """_probe_sums on two threads against the same stage on one thread, bit
    for bit, and against the statistic's definition on the pairs one row
    each, within rel 1e-12."""
    got = _probe_sums(alpha, draws, probes)
    with monkeypatch.context() as patch:
        patch.setattr("heyde.symmetry._on_two_threads", on_one_thread)
        alone = _probe_sums(alpha, draws, probes)
    assert got.tobytes() == alone.tobytes()
    want = values_on_pairs(alpha, expand_pairs(draws), probes)
    assert 2.0 / draws[0].sum() * np.abs(got) == pytest.approx(want, rel=1e-12, abs=1e-15)
    return got


def failing_measures(X):
    """Measures that sample_arrays refuses, each with its own error."""
    s = 1.0 - 1e-7
    return {
        # negative density: not a distribution
        "signed": AtomicSignedMeasure.from_terms(
            X, [(1.2, 1.0, 0.0, 0, (0,)), (-0.2, 0.0, 0.0, 0, (0,))]
        ),
        "empty": AtomicSignedMeasure.from_terms(X, []),
        # a valid density of mass 1e-6 under a positive part of mass 1:
        # rejection accepts about one proposal in 10^6
        "stuck": AtomicSignedMeasure.from_terms(
            X, [(1.0, 1.0, 0.0, 0, (0,)), (-(math.sqrt(s) - 1e-6), s, 0.0, 0, (0,))]
        ),
    }


ERRORS = {
    "signed": (ValueError, "is_distribution verdict is no"),
    "empty": (ValueError, "zero-mass"),
    "stuck": (RuntimeError, "retry cap"),
}


class TestMonteCarloThreads:
    """The two samples are drawn on two threads and probed on two; the
    results are those of one thread over the same pairs."""

    @pytest.mark.parametrize("seed", [4, 17])
    @pytest.mark.parametrize("n_samples", [1, 20_000])
    def test_matches_sequential_reference(self, seed, n_samples, monkeypatch):
        mu1, mu2, alpha = z3z5_pair()
        rep = mc_symmetry_test(mu1, mu2, alpha, n_samples, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr("heyde.symmetry._on_two_threads", on_one_thread)
            alone = mc_symmetry_test(mu1, mu2, alpha, n_samples, seed=seed)
        assert rep.statistic == alone.statistic  # bit for bit
        assert rep.worst.index == alone.worst.index
        probes = _default_probe_pairs(alpha.group, mu1, mu2)
        values = values_by_definition(mu1, mu2, alpha, n_samples, probes, seed)
        assert rep.statistic == pytest.approx(max(values), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "bad1, bad2",
        [
            (None, "signed"),
            ("signed", None),
            (None, "empty"),
            (None, "stuck"),
            # both bad: mu1's check error, else mu2's, comes before any draw
            ("empty", "signed"),
            ("signed", "stuck"),
            ("stuck", "empty"),
        ],
    )
    def test_errors_cross_the_thread(self, x3, bad1, bad2):
        good = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        bad = failing_measures(x3)
        mu1 = good if bad1 is None else bad[bad1]
        mu2 = good if bad2 is None else bad[bad2]
        before = threading.active_count()
        # both measures are checked before any draw; "stuck" passes the
        # check and fails only while drawing
        error = next((b for b in (bad1, bad2) if b in ("signed", "empty")), "stuck")
        exc_type, message = ERRORS[error]
        with pytest.raises(exc_type, match=message):
            mc_symmetry_test(mu1, mu2, neg_alpha(x3), n_samples=1, seed=2)
        assert threading.active_count() == before

    def test_runtime_warning_crosses_the_thread(self, x3, monkeypatch):
        # a numpy floating-point warning while drawing xi_2 is an error
        # under the suite's error::RuntimeWarning filter
        mu1 = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        mu2 = AtomicSignedMeasure.from_terms(x3, [(1.0, 0.5, 0.0, 0, (1,))])

        def overflowing(cosets, counts, rng):
            if cosets[0][0] == (0, (1,)):  # mu2's one coset
                np.float64(1e308) * np.float64(10.0)
            return _draw_blocks(cosets, counts, rng)

        monkeypatch.setattr("heyde.symmetry._draw_blocks", overflowing)
        before = threading.active_count()
        with pytest.raises(RuntimeWarning, match="overflow"):
            mc_symmetry_test(mu1, mu2, neg_alpha(x3), n_samples=100)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_passing_call(self, x3):
        mu = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        before = threading.active_count()
        assert mc_symmetry_test(mu, mu, neg_alpha(x3), n_samples=1000, seed=3).passed
        assert threading.active_count() == before

    def test_invalid_mu1_raises_before_the_worker_starts(self, x3, monkeypatch):
        good = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        daemon = []

        def recording(cosets, counts, rng):
            daemon.append(threading.current_thread().daemon)
            return _draw_blocks(cosets, counts, rng)

        monkeypatch.setattr("heyde.symmetry._draw_blocks", recording)
        for bad in ("signed", "empty"):
            exc_type, message = ERRORS[bad]
            with pytest.raises(exc_type, match=message):
                mc_symmetry_test(failing_measures(x3)[bad], good, neg_alpha(x3), n_samples=1)
        assert daemon == []
        mc_symmetry_test(good, good, neg_alpha(x3), n_samples=10)
        # the caller's draw and the worker's, which is a daemon thread
        assert sorted(daemon) == [False, True]


class TestProbeSumsThreads:
    """The probe stage runs on two threads, each over its own run of whole
    pieces of cells; the sums are those of the stage on one thread bit for
    bit."""

    @pytest.mark.parametrize("n_samples", [1, 2, 20_000])
    def test_bit_identical_to_one_thread(self, n_samples, monkeypatch):
        mu1, mu2, alpha = z3z5_pair()
        probes = _default_probe_pairs(alpha.group, mu1, mu2)
        check_probe_sums(alpha, draw_pair(mu1, mu2, n_samples, seed=6), probes, monkeypatch)

    def test_one_bin_leaves_one_half_empty(self, x3, monkeypatch):
        # every sample of both measures in the coset (0, 0): one cell, one
        # piece, all on one thread
        mu = AtomicSignedMeasure.from_terms(
            x3, [(0.7, 1.0, 0.0, 0, (0,)), (0.3, 0.0, 0.4, 0, (0,))]
        )
        probes = _default_probe_pairs(x3, mu, mu)
        check_probe_sums(neg_alpha(x3, -2.0), draw_pair(mu, mu, 5_000, seed=8), probes, monkeypatch)

    @pytest.mark.parametrize("in_worker", [False, True])
    def test_error_in_either_half_reaches_the_caller(self, in_worker, monkeypatch):
        mu1, mu2, alpha = z3z5_pair()
        draws = draw_pair(mu1, mu2, 20_000, seed=6)

        def failing_cos_sin(*args):
            # the trig runs only in the halves; fail in one of them
            if threading.current_thread().daemon == in_worker:
                raise FloatingPointError("cos failed")
            return _cos_sin(*args)

        monkeypatch.setattr("heyde.symmetry._cos_sin", failing_cos_sin)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="cos failed"):
            _probe_sums(alpha, draws, _default_probe_pairs(alpha.group, mu1, mu2))
        assert threading.active_count() == before

    def test_both_failing_raise_the_callers_error(self):
        def fail(message):
            def run():
                raise ValueError(message)

            return run

        before = threading.active_count()
        with pytest.raises(ValueError, match="first"):
            _on_two_threads(fail("first"), fail("second"))
        with pytest.raises(ValueError, match="second"):
            _on_two_threads(lambda: 1, fail("second"))
        assert _on_two_threads(lambda: 1, lambda: 2) == [1, 2]
        assert threading.active_count() == before


def hand_draws(cosets1, cosets2, counts, seed):
    """Grouped draws as _sample_pair lays them out, with the coset-pair
    counts given: (m, g) per coset of each side and standard normal real
    parts."""
    counts = np.array(counts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    t1, t2 = rng.standard_normal(counts.sum()), rng.standard_normal(counts.sum())

    def points(cosets):
        return np.array([m for m, _ in cosets]), np.array([g for _, g in cosets])

    return counts, (t1, *points(cosets1)), (t2, *points(cosets2))


Z3_COSETS = [(m, (g,)) for m in (0, 1) for g in range(3)]


class TestProbeSumsChunks:
    """Each cell is cut into pieces of at most _BLOCK pairs, and each
    thread packs its pieces into blocks of at most _BLOCK pairs; the sums
    do not depend on the cut, and the temporaries stay within a few
    blocks whatever the size of a cell."""

    def check(self, x3, draws, monkeypatch):
        check_probe_sums(neg_alpha(x3, -2.0), draws, _default_probe_pairs(x3), monkeypatch)

    def peak_bytes(self, x3, draws):
        """tracemalloc's peak over one run of the stage, beyond what was
        allocated before it."""
        alpha = neg_alpha(x3, -2.0)
        probes = _default_probe_pairs(x3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _probe_sums(alpha, draws, probes)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_one_bin_larger_than_a_block(self, x3, monkeypatch):
        # cells of 2 * _BLOCK + 5 and 1000 pairs: three pieces and one
        counts = [[2 * _BLOCK + 5], [1000]]
        self.check(x3, hand_draws([(0, (0,)), (0, (1,))], [(0, (0,))], counts, 1), monkeypatch)

    def test_many_bins_per_chunk(self, x3, monkeypatch):
        # 36 cells of about _BLOCK / 9 pairs: several pieces per block
        counts = np.random.default_rng(2).multinomial(4 * _BLOCK, np.full(36, 1 / 36)).reshape(6, 6)
        self.check(x3, hand_draws(Z3_COSETS, Z3_COSETS, counts, 3), monkeypatch)

    def test_chunk_edge_at_the_thread_cut(self, x3, monkeypatch):
        # 8 cells of _BLOCK / 8 pairs: the cut falls after cell 4, where the
        # low thread's one block ends although more pieces would fit
        cosets2 = [(0, (0,)), (0, (1,)), (0, (2,)), (1, (0,))]
        counts = np.full((2, 4), _BLOCK // 8)
        self.check(x3, hand_draws([(0, (0,)), (0, (1,))], cosets2, counts, 4), monkeypatch)

    def test_thread_cut_inside_a_cell(self, x3, monkeypatch):
        # cells of 1000, 3 * _BLOCK + 5 and 2000 pairs: the piece boundary
        # nearest N / 2 lies two pieces into the large cell
        cosets2 = [(0, (0,)), (0, (1,)), (1, (2,))]
        draws = hand_draws([(0, (0,))], cosets2, [[1000, 3 * _BLOCK + 5, 2000]], 6)
        seen = []

        def recording_cos_sin(x, *args):
            seen.append((threading.current_thread().daemon, len(x)))
            return _cos_sin(x, *args)

        with monkeypatch.context() as patch:
            patch.setattr("heyde.symmetry._cos_sin", recording_cos_sin)
            _probe_sums(neg_alpha(x3, -2.0), draws, _default_probe_pairs(x3))
        # the calling thread's pairs, once per side
        assert sum(k for daemon, k in seen if not daemon) == 2 * (1000 + 2 * _BLOCK)
        self.check(x3, draws, monkeypatch)

    def test_temporaries_stay_within_blocks(self, x3):
        # 36 near-equal cells over 4e5 pairs; the one-pass stage held several
        # arrays of N / 2 per thread, 43 blocks of float64 in all
        counts = np.full(36, 400_000 // 36)
        counts[: 400_000 % 36] += 1
        draws = hand_draws(Z3_COSETS, Z3_COSETS, counts.reshape(6, 6), 5)
        assert self.peak_bytes(x3, draws) < 20 * _BLOCK * 8

    def test_temporaries_stay_within_blocks_for_a_large_cell(self, x3):
        # a cell of 8 * _BLOCK + 3 pairs beside one of 1000: buffers sized
        # by the largest run of one finite part held about 40 blocks
        draws = hand_draws([(0, (0,))], [(0, (0,)), (0, (1,))], [[8 * _BLOCK + 3, 1000]], 7)
        assert self.peak_bytes(x3, draws) < 20 * _BLOCK * 8


def cos_sin_arguments():
    """Arguments of _cos_sin's accuracy test, by range."""
    rng = np.random.default_rng(31)
    n = 20_000
    odd_pi = (2.0 * rng.integers(-10**6, 10**6, n) + 1.0) * np.pi
    return {
        "normal": rng.standard_normal(n),
        "uniform_1e4": rng.uniform(-1e4, 1e4, n),
        "uniform_1e8": rng.uniform(-1e8, 1e8, n),
        # tan(x / 2) has its poles at the odd multiples of pi
        "near_odd_pi": odd_pi + rng.uniform(-1e-9, 1e-9, n),
        "odd_pi": odd_pi,
        "small_odd_pi": (2.0 * np.arange(-50, 50) + 1.0) * np.pi,
        "tiny": rng.uniform(-1.0, 1.0, n) * 1e-200,
        "zero": np.array([0.0, -0.0]),
    }


class TestCosSin:
    """_cos_sin, the probe stage's trig, against np.cos and np.sin."""

    @pytest.mark.parametrize("name", sorted(cos_sin_arguments()))
    def test_matches_numpy_trig(self, name):
        x = cos_sin_arguments()[name]
        cos, sin, scratch = x.copy(), np.empty_like(x), np.empty_like(x)
        _cos_sin(cos, sin, scratch)
        assert np.isfinite(cos).all() and np.isfinite(sin).all()
        assert np.abs(cos - np.cos(x)).max() <= 4.5e-16
        assert np.abs(sin - np.sin(x)).max() <= 4.5e-16
        nonzero = x != 0.0
        rel = np.abs(sin[nonzero] - np.sin(x[nonzero])) / np.abs(np.sin(x[nonzero]))
        assert rel.max(initial=0.0) <= 1e-15

    def test_each_element_depends_on_its_argument_alone(self):
        # the stage applies it chunk by chunk, the oracle over all pairs
        x = cos_sin_arguments()["uniform_1e4"]
        whole_cos, whole_sin = x.copy(), np.empty_like(x)
        _cos_sin(whole_cos, whole_sin, np.empty_like(x))
        for lo, hi in [(0, 1), (3, 20), (7, 9_999), (9_999, 20_000)]:
            cos, sin = x[lo:hi].copy(), np.empty(hi - lo)
            _cos_sin(cos, sin, np.empty(hi - lo))
            assert cos.tobytes() == whole_cos[lo:hi].tobytes()
            assert sin.tobytes() == whole_sin[lo:hi].tobytes()


class TestPairedDraws:
    """The pairs are drawn grouped by coset pair and probed cell by cell,
    with the law of independent draws of xi_1 and xi_2."""

    def point_pair(self, X):
        # one point mass per coset, every shift distinct; the cosets (0, 0)
        # and (1, 0) of mu1 with (0, 1) and (1, 1) of mu2 share a finite
        # part of L1 and L2
        mu1 = AtomicSignedMeasure.from_terms(
            X, [(0.3, 0.0, 0.25, 0, (0,)), (0.2, 0.0, -1.5, 1, (0,)), (0.5, 0.0, 3.0, 0, (2,))]
        )
        mu2 = AtomicSignedMeasure.from_terms(
            X, [(0.4, 0.0, 0.75, 0, (1,)), (0.35, 0.0, -2.25, 1, (1,)), (0.25, 0.0, 5.5, 1, (2,))]
        )
        return mu1, mu2

    def test_real_parts_are_the_cells_shifts(self, x3, monkeypatch):
        mu1, mu2 = self.point_pair(x3)
        alpha = neg_alpha(x3, -2.0)
        shift1 = {(m, (int(g[0]),)): t for t, m, g in zip(mu1.shift, mu1.m, mu1.g)}
        shift2 = {(m, (int(g[0]),)): t for t, m, g in zip(mu2.shift, mu2.m, mu2.g)}
        draws = draw_pair(mu1, mu2, 5_000, seed=3)
        (t1, m1, g1), (t2, m2, g2) = expand_pairs(draws)
        assert [shift1[m, (int(g[0]),)] for m, g in zip(m1, g1)] == t1.tolist()
        assert [shift2[m, (int(g[0]),)] for m, g in zip(m2, g2)] == t2.tolist()
        # s = 1 on both sides, so the trig sees T1 and then T2 of each half
        seen = []

        def recording_cos_sin(x, *args):
            seen.append((threading.current_thread().daemon, x.copy()))
            return _cos_sin(x, *args)

        monkeypatch.setattr("heyde.symmetry._cos_sin", recording_cos_sin)
        probes = [(x3.dual_point(1.0, 0, (0,)), x3.dual_point(1.0, 1, (1,)))]
        _probe_sums(alpha, draws, probes)
        halves = [[x for daemon, x in seen if daemon == worker] for worker in (False, True)]
        T1, T2 = (np.concatenate(side) for side in zip(*halves))
        # each pair's (T1, T2) in cell (k1, k2) order, from its cells' shifts
        want = [
            (shift1[a, (int(g[0]),)], shift2[b, (int(h[0]),)])
            for a, g, b, h in zip(m1, g1, m2, g2)
        ]
        assert T1.tolist() == [x + y for x, y in want]
        assert T2.tolist() == [x + -2.0 * y for x, y in want]

    def test_law_matches_independent_draws(self):
        # exact pair: statistic / threshold of the grouped draws against
        # independent sample_arrays draws probed the same way, other seeds
        inst = standard_instance(orders=(3, 5))
        mu1, mu2, alpha = inst.mu1, inst.mu2, inst.alpha
        probes = _default_probe_pairs(alpha.group, mu1, mu2)
        n, runs = 2_000, 160

        def independent(seed):
            rngs = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
            draws = [sample_arrays(mu, rng, n) for mu, rng in zip((mu1, mu2), rngs)]
            return max(values_on_pairs(alpha, draws, probes)) / (4.0 / math.sqrt(n))

        grouped = []
        for seed in range(runs):
            rep = mc_symmetry_test(mu1, mu2, alpha, n, seed=seed)
            grouped.append(rep.statistic / rep.threshold)
        reference = [independent(10_000 + seed) for seed in range(runs)]
        assert ks_2samp(grouped, reference).pvalue > 0.01

    def test_more_cells_than_pairs(self, monkeypatch):
        # 18 cosets a side, 324 cells, 40 pairs: most cells are empty
        X = AmbientGroup(FiniteAbelianGroup((9,)))
        rows = [(1.0 + k, 0.5 if k % 3 else 0.0, 0.1 * k, k % 2, (k // 2,)) for k in range(18)]
        mu = AtomicSignedMeasure.from_terms(X, rows)
        alpha = neg_alpha(X, -2.0)
        probes = _default_probe_pairs(X, mu, mu)
        draws = draw_pair(mu, mu, 40, seed=5)
        counts = draws[0]
        assert counts.shape == (18, 18) and counts.sum() == 40
        assert np.count_nonzero(counts) <= 40
        expected = check_probe_sums(alpha, draws, probes, monkeypatch)
        rep = mc_symmetry_test(mu, mu, alpha, 40, seed=5)
        assert rep.statistic == 2.0 / 40 * float(np.abs(expected).max())

    def test_two_worker_threads_per_call(self, monkeypatch):
        mu1, mu2, alpha = z3z5_pair()
        started = []

        class Counting(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counting)
        mc_symmetry_test(mu1, mu2, alpha, 20_000, seed=1)
        assert len(started) == 2


class TestMcWorst:
    def test_first_probe_within_key_tol_of_the_max(self, x3, monkeypatch):
        # probes 1, 2 and 3 tie up to their last bits; 0 is below KEY_TOL
        one = 1.0
        values = np.array(
            [one - 4 * KEY_TOL, one, np.nextafter(one, 2.0), np.nextafter(one, 0.0)]
        )
        monkeypatch.setattr(
            "heyde.symmetry._probe_sums", lambda alpha, draws, probes: values.astype(complex)
        )
        mu = AtomicSignedMeasure.from_terms(x3, [(1.0, 1.0, 0.0, 0, (0,))])
        probes = [(x3.dual_point(0.5, 0, (k % 3,)), x3.dual_point(0.5, 1, (0,))) for k in range(4)]
        rep = mc_symmetry_test(mu, mu, neg_alpha(x3), n_samples=10, probes=probes)
        assert rep.statistic == 2.0 / 10 * float(np.nextafter(one, 2.0))
        assert rep.worst.index == 1
        assert rep.worst.u == probes[1][0]


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
        # the joint-law residual is an l1 coefficient bound on the deviation
        # over the whole dual, so it is at least the s = 0 grid residual
        X, al, w = self.build_kernel_law((9,), 2, None, seed=16)
        w2 = w.shifted(X.point(0.0, 1, (3,)))
        exact = finite_exact_check(w, w2, al)
        A = XAutomorphism(X, -1.0, al)
        grid = equation_residual(w, w2, A, SGrid(smax=0.0, points=2))
        assert grid > 1e-3 and exact > 1e-3
        assert exact >= grid - 1e-12


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
        # the odd sums vanish, so every delta fits and d = 1 is reported
        tau2 = AtomicSignedMeasure.from_terms(
            x3, [(0.5, 0.0, 0.0, 0, (0,)), (0.5, 0.0, 0.0, 1, (0,))]
        )
        rel = delta_relation(tau2, tau2)
        assert rel.holds
        assert rel.d == 1.0
        assert "both_branches_fit" in rel.flags

    @pytest.mark.parametrize("sigma", [None, 0.8])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("d", [-1.0, -0.6, 0.0, 0.4, 1.0])
    def test_recovers_d(self, x3, d, reverse, sigma):
        base = self.base_tau(x3, seed=27, sigma=sigma)
        moved = convolve(base, order_two_measure(x3, d))
        tau1, tau2 = (base, moved) if reverse else (moved, base)
        rel = delta_relation(tau1, tau2)
        assert rel.d == pytest.approx(d, abs=1e-12)
        if abs(d) == 1.0:
            # either side is the other moved by delta: the first branch wins
            assert rel.branch == "tau1_eq_tau2_conv_delta"
            assert "both_branches_fit" in rel.flags
        else:
            want = "tau2_eq_tau1_conv_delta" if reverse else "tau1_eq_tau2_conv_delta"
            assert rel.branch == want and not rel.flags
        src = tau1 if reverse else tau2
        assert char_sup_distance(convolve(src, rel.delta), moved) < 1e-12

    def test_moves_tau1_by_dk(self, x3):
        tau2 = self.base_tau(x3, seed=28)
        dk = x3.G.element((1,))
        tau1 = convolve(tau2, order_two_measure(x3, 0.3)).shifted(x3.point(0.0, 0, (2,)))
        assert not delta_relation(tau1, tau2).holds
        rel = delta_relation(tau1, tau2, dk=dk)
        assert rel.branch == "tau1_eq_tau2_conv_delta"
        assert rel.d == pytest.approx(0.3, abs=1e-12)

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


class TestJointLaw:
    """The joint-law residual against the grid residual as oracle: each
    component's characteristic function has modulus <= 1, so the grid
    residual never exceeds it, and the two agree on the 1e-9 gate."""

    W = WORKLOADS
    SWEEP_GROUPS = (W.Z3, W.Z5, W.Z7, W.Z9, W.Z3Z3, W.Z3Z5, W.Z9Z5)
    SWEEP_A = (-0.5, -1.0, -2.0, -3.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hs.integers(0, 2**32 - 1),
        group=hs.sampled_from((W.Z3, W.Z5, W.Z3Z3, W.Z3Z5)),
        a=hs.sampled_from((-0.5, -1.0, -2.0, -3.0, 0.5, 2.0, 3.0)),
        point_mass=hs.booleans(),
        perturbed=hs.booleans(),
    )
    def test_bounds_the_grid_and_gives_its_verdict(self, seed, group, a, point_mass, perturbed):
        # a > 0 forces sigma = 0: both factors are point masses
        inst = self.W.draw_instance(random.Random(seed), group, a=a, point_mass=point_mass or a > 0)
        mu2 = self.W.perturb(inst.mu2) if perturbed else inst.mu2
        joint = joint_law_residual(inst.mu1, mu2, inst.alpha)
        grid = equation_residual(inst.mu1, mu2, inst.alpha)
        assert grid <= joint + 1e-12
        assert (grid <= 1e-9) == (joint <= 1e-9)
        assert (joint <= 1e-9) == (not perturbed)

    @pytest.mark.parametrize("group", SWEEP_GROUPS, ids=lambda g: "x".join(map(str, g[0])))
    def test_sweep_gate_matches_grid(self, group):
        for a in self.SWEEP_A:
            inst = self.W.draw_instance(random.Random(f"sweep:{group}:{a}"), group, a=a)
            for mu2 in (inst.mu2, self.W.perturb(inst.mu2)):
                joint = joint_law_residual(inst.mu1, mu2, inst.alpha)
                grid = equation_residual(inst.mu1, mu2, inst.alpha)
                assert (joint <= 1e-9) == (grid <= 1e-9) == (mu2 is inst.mu2), (a, joint, grid)

    @pytest.mark.parametrize("group", SWEEP_GROUPS, ids=lambda g: "x".join(map(str, g[0])))
    def test_sweep_reconstruction_error_bounds_char_distance(self, group):
        # the coefficient distance bounds the characteristic-function gap
        # over the whole dual, so also over char_sup_distance's grid
        for a in self.SWEEP_A:
            inst = self.W.draw_instance(random.Random(f"sweep:{group}:{a}"), group, a=a)
            dec = decompose(inst.mu1, inst.mu2, inst.alpha)
            X = inst.mu1.group
            for j, mu in enumerate((inst.mu1, inst.mu2)):
                rec = dec.omega[j]
                if dec.gamma is not None:
                    rec = theta_to_measure(dec.gamma[j], X).convolve(rec)
                gap = char_sup_distance(rec.shifted(dec.shift[j]), mu)
                assert dec.reconstruction_error >= gap - 1e-15, (a, j)

    def test_iid_pair_under_full_negation_is_exact(self, x3):
        # (L1, -L2) is (L1, L2) with the two factors swapped, so a component
        # with cov(L1, L2) = s_i - s_j != 0 cancels only against its swap
        A = neg_alpha(x3)
        mu = AtomicSignedMeasure.from_terms(
            x3, [(0.6, 1.0, 0.4, 0, (1,)), (0.4, 0.5, -0.2, 1, (2,))]
        )
        assert joint_law_residual(mu, mu, A) <= 1e-15
        nu = AtomicSignedMeasure.from_terms(
            x3, [(0.6, 1.0, 0.4, 0, (1,)), (0.4, 0.6, -0.2, 1, (2,))]
        )
        assert joint_law_residual(mu, nu, A) >= equation_residual(mu, nu, A) > 1e-3

    @pytest.mark.parametrize("gap, merged", [(0.4 * KEY_TOL, True), (1.5 * KEY_TOL, False)])
    def test_keys_within_key_tol_merge(self, x3, gap, merged):
        # a = -1: L2 has mean t1 - t2 and -L2 its negation, 2 * |t1 - t2| apart
        A = neg_alpha(x3)
        mu1 = dirac(x3.point(0.5 * gap, 0, (0,)))
        mu2 = dirac(x3.point(0.0, 0, (0,)))
        rep = joint_law_report(mu1, mu2, A)
        assert rep.residual == (0.0 if merged else 2.0)
        assert (rep.worst is None) == merged

    def test_key_tol_is_relative_beyond_one(self):
        x = np.array([1e6, 1e6 + 0.5e-3, 1e6 + 2.6e-3, 0.0, 0.4e-9, 0.8e-9, 2.0e-9])
        assert list(_cluster_labels(x, np.abs(x))) == [2, 2, 3, 0, 0, 0, 1]

    def test_key_tol_scales_with_the_operands(self):
        # keys near 0 summed from operands of size 1e7 keep their rounding
        x = np.array([-3e-9, 0.0, 4e-9, 1.0])
        assert list(_cluster_labels(x, np.abs(x))) == [0, 1, 2, 3]
        assert list(_cluster_labels(x, np.full(4, 1e7))) == [0, 0, 0, 1]

    @pytest.mark.parametrize(
        "a, t", [(-3.0, 1e7 + 0.1), (-3.0, 1e9 / 7), (-0.7, 1e9 / 7), (-1.0, 1e7)]
    )
    def test_large_real_shift_is_accepted(self, a, t):
        # x1 = -alpha(x2) and mean L2 = t_i + a t_j cancels to near 0 with
        # the rounding error of t, far above KEY_TOL at |t| >= 1e7
        inst = standard_instance(a=a, m=0.3, m_p=-0.15, x2=(t, 0, None))
        assert joint_law_residual(inst.mu1, inst.mu2, inst.alpha) <= 1e-9
        dec = decompose(inst.mu1, inst.mu2, inst.alpha)
        assert dec.reconstruction_error <= 1e-9

    def test_worst_names_the_unmatched_component(self, x3):
        A = neg_alpha(x3, -2.0)
        mu1 = dirac(x3.point(0.3, 0, (0,)))
        mu2 = dirac(x3.point(0.7, 1, (2,)))
        rep = joint_law_report(mu1, mu2, A)
        assert rep.residual == 2.0
        w = rep.worst
        assert abs(w.coefficient) == 1.0
        assert (w.n, w.g1) == (1, (2,))
        # L2 = 0.3 - 2 * 0.7 at g = 0 + 2 * 2, or its reflection
        assert w.mean[0] == pytest.approx(1.0)
        assert (w.mean[1], w.g2) in ((pytest.approx(-1.1), (1,)), (pytest.approx(1.1), (2,)))

    @pytest.mark.parametrize(
        "term, other",
        [
            ((1.0, 0.0, 1e308, 0, (0,)), (1.0, 0.0, 0.0, 0, (0,))),  # key spread overflows
            ((1e200, 0.0, 0.0, 0, (0,)), (1e200, 0.0, 0.0, 0, (0,))),  # c1 * c2 overflows
        ],
    )
    def test_non_finite_raises_without_warning(self, x3, term, other):
        mu1 = AtomicSignedMeasure.from_terms(x3, [term])
        mu2 = AtomicSignedMeasure.from_terms(x3, [other])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                joint_law_report(mu1, mu2, neg_alpha(x3, -2.0))

    def test_group_mismatch_rejected(self, x3):
        other = AmbientGroup(FiniteAbelianGroup((5,)))
        with pytest.raises(ValueError):
            joint_law_residual(dirac(other.zero_point()), dirac(x3.zero_point()), neg_alpha(x3))


# --------------------------------------------------------------------------
# reference keyed sums: the gate and the parity tables as they were computed
# row by row, one ten-column lexsort over the term pairs and np.add.at


def reference_cluster_labels(x, size):
    order = np.argsort(x, kind="stable")
    v = x[order]
    w = size[order]
    scale = np.maximum(1.0, np.maximum(w[:-1], w[1:]))
    labels = np.empty(len(x), dtype=np.int64)
    labels[order] = np.concatenate(([0], np.cumsum(np.diff(v) > KEY_TOL * scale)))
    return labels


def reference_sum_by_key(real, size, finite, coef):
    labels = np.column_stack([reference_cluster_labels(x, w) for x, w in zip(real.T, size.T)])
    rows = np.hstack([labels, finite])
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    sums = np.zeros((int(new.sum()),) + coef.shape[1:])
    np.add.at(sums, inverse, coef)
    return ordered[new], order[new], sums


def reference_real_keys(s1, s2, t1, t2, a):
    return np.stack(
        [
            np.add.outer(s1, s2),
            np.add.outer(s1, a * s2),
            np.add.outer(s1, a * a * s2),
            np.add.outer(t1, t2),
            np.add.outer(t1, a * t2),
        ],
        axis=-1,
    ).reshape(-1, 5)


def reference_joint_law(mu1, mu2, alpha):
    G = mu1.group.G
    orders = np.array(G.cyclic_orders, dtype=np.int64)
    a = alpha.a
    c1, s1, t1, m1, g1 = mu1.c, mu1.sigma, mu1.shift, mu1.m, mu1.g
    c2, s2, t2, m2, g2 = mu2.c, mu2.sigma, mu2.shift, mu2.m, mu2.g
    g2a = g2 @ np.array(alpha.alpha_G.matrix, dtype=np.int64).T
    n = np.add.outer(m1, m2).reshape(-1, 1) % 2
    f1 = ((g1[:, None, :] + g2[None, :, :]) % orders).reshape(-1, G.rank)
    f2 = ((g1[:, None, :] + g2a[None, :, :]) % orders).reshape(-1, G.rank)
    finite = np.concatenate([np.hstack([n, f1, f2]), np.hstack([n, f1, -f2 % orders])])
    with np.errstate(over="ignore", invalid="ignore"):
        real = reference_real_keys(s1, s2, t1, t2, a)
        real = np.concatenate([real, real * np.array([1.0, -1.0, 1.0, 1.0, -1.0])])
        size = reference_real_keys(np.abs(s1), np.abs(s2), np.abs(t1), np.abs(t2), abs(a))
        size = np.concatenate([size, size])
        coef = np.multiply.outer(c1, c2).ravel()
        coef = np.concatenate([coef, -coef])
        spread = real.max(axis=0) - real.min(axis=0)
        _, first, sums = reference_sum_by_key(real, size, finite, coef)
        residual = float(np.abs(sums).sum())
    if not np.isfinite(spread).all():
        residual = math.nan
    if not math.isfinite(residual):
        raise ValueError(f"equation residual is not finite ({residual})")
    k = int(np.argmax(np.abs(sums)))
    if sums[k] == 0.0:
        return JointLawReport(residual, None)
    row = first[k]
    worst = JointKey(
        int(finite[row, 0]),
        tuple(int(v) for v in finite[row, 1 : 1 + G.rank]),
        tuple(int(v) for v in finite[row, 1 + G.rank :]),
        (float(real[row, 3]), float(real[row, 4])),
        float(sums[k]),
    )
    return JointLawReport(residual, worst)


def reference_parity_sums(*taus, dk=None):
    c, s, t, m, g = (
        np.concatenate(column)
        for column in zip(*((tau.c, tau.sigma, tau.shift, tau.m, tau.g) for tau in taus))
    )
    if dk is not None:
        n0 = len(taus[0].c)
        g[:n0] = (g[:n0] + dk.coords) % np.array(taus[0].group.G.cyclic_orders)
    owner = np.repeat(np.eye(len(taus)), [len(tau.c) for tau in taus], axis=0)
    parity = np.column_stack([c, np.where(m == 0, c, -c)])
    coef = (owner[:, :, None] * parity[:, None, :]).reshape(len(c), -1)
    real = np.column_stack([s, t])
    return reference_sum_by_key(real, np.abs(real), g, coef)


def report_bits(report):
    """The report with every float as its hex string, so -0.0 != 0.0."""
    w = report.worst
    if w is not None:
        w = (w.n, w.g1, w.g2, tuple(v.hex() for v in w.mean), w.coefficient.hex())
    return report.residual.hex(), w


def assert_same_gate(mu1, mu2, alpha):
    assert report_bits(joint_law_report(mu1, mu2, alpha)) == report_bits(
        reference_joint_law(mu1, mu2, alpha)
    )


def assert_same_parity(*taus, dk=None):
    keys, first, sums = _parity_sums(*taus, dk=dk)
    ref_keys, ref_first, ref_sums = reference_parity_sums(*taus, dk=dk)
    assert keys.dtype == ref_keys.dtype and np.array_equal(keys, ref_keys)
    assert np.array_equal(first, ref_first)
    assert sums.shape == ref_sums.shape and sums.tobytes() == ref_sums.tobytes()


def random_signed(X, rng, atoms, terms):
    """A canonical signed measure with terms spread over few real atoms,
    whose shifts repeat, tie up to their sign of zero and sit within
    KEY_TOL of each other."""
    sigma = rng.choice([0.0, 0.5, 1.25, 2.0], atoms)
    shift = rng.choice([-0.0, 0.0, 0.25, 0.25 + 3e-10, -0.75, 1e3], atoms)
    rows = []
    for _ in range(terms):
        k = int(rng.integers(atoms))
        g = [int(rng.integers(n)) for n in X.G.cyclic_orders]
        rows.append((float(rng.normal()), float(sigma[k]), float(shift[k]), int(rng.integers(2)), g))
    return AtomicSignedMeasure.from_terms(X, rows)


class TestKeyedSumReference:
    """The factored gate (atom-pair clusters, one int64 key per term pair)
    and the parity tables give the reference's bits: residual, worst key
    (sign of zero in its mean included), key rows, first rows and sums."""

    W = WORKLOADS
    GROUPS = (W.Z3, W.Z9, W.Z3Z5, W.Z15Z15)

    @pytest.mark.parametrize("a", (-0.5, -2.0, -3.0, 0.5))
    @pytest.mark.parametrize("group", GROUPS, ids=lambda g: "x".join(map(str, g[0])))
    def test_random_measures_match_the_reference(self, group, a):
        orders, matrix = group
        X = AmbientGroup(FiniteAbelianGroup(orders))
        alpha = XAutomorphism(X, a, GroupAutomorphism(X.G, matrix))
        rng = np.random.default_rng([X.G.order, int(abs(a) * 4), a > 0])
        for _ in range(4):
            mu1 = random_signed(X, rng, int(rng.integers(1, 5)), int(rng.integers(1, 14)))
            mu2 = random_signed(X, rng, int(rng.integers(1, 5)), int(rng.integers(1, 14)))
            assert_same_gate(mu1, mu2, alpha)
            dk = X.G.element([int(rng.integers(n)) for n in orders])
            assert_same_parity(mu1)
            assert_same_parity(mu1, mu2)
            assert_same_parity(mu1, mu2, dk=dk)
        # an exact pair: the sums cancel to 0 or to rounding
        inst = self.W.draw_instance(random.Random(f"reference:{group}:{a}"), group, a=a, point_mass=a > 0)
        for mu2 in (inst.mu2, self.W.perturb(inst.mu2)):
            assert_same_gate(inst.mu1, mu2, inst.alpha)
            assert_same_parity(inst.mu1, mu2)

    @pytest.mark.parametrize("large_first", (True, False))
    def test_equal_keys_of_different_sizes_beside_a_gap(self, x3, large_first):
        # at a = 1 both means are t1 + t2.  Mean 1000 comes from (0, 1000),
        # operand size 1000, and from (2000, -1000) or (-1000, 2000), size
        # 3000; its neighbour 1000 + gap is within KEY_TOL of the larger
        # size only.  So the size of the last pair with mean 1000 decides
        # whether the two clusters merge: 3000 when the large pair comes
        # last, 1000 when it comes first
        gap = 2.5e-6
        t1 = (-1000.0, 0.0) if large_first else (0.0, 2000.0)
        t2 = (1000.0, 1000.0 + gap, 2000.0) if large_first else (-1000.0, 1000.0, 1000.0 + gap)
        c2 = {1000.0: 0.5, 1000.0 + gap: -0.5}
        mu1 = AtomicSignedMeasure.from_terms(
            x3, [(0.3 + 0.1 * m, 0.0, t, m, (m,)) for t in t1 for m in (0, 1)]
        )
        mu2 = AtomicSignedMeasure.from_terms(
            x3, [(c2.get(t, 0.2) * (1 + m), 0.0, t, m, (0,)) for t in t2 for m in (0, 1)]
        )
        A = XAutomorphism(x3, 1.0, negation_automorphism(x3.G))
        assert_same_gate(mu1, mu2, A)
        assert_same_gate(mu2, mu1, A)
        assert_same_parity(mu1, mu2)
        sizes = np.array([3000.0, 1000.0]) if not large_first else np.array([1000.0, 1000.0])
        merged = reference_cluster_labels(np.array([1000.0, 1000.0 + gap]), sizes)
        assert (merged[0] == merged[1]) == (not large_first)

    def test_signed_zero_shifts(self, x3):
        # one atom's terms carry shift -0.0 and 0.0; the worst key's mean
        # keeps the sign its own term pair gives it
        mu1 = AtomicSignedMeasure.from_terms(
            x3, [(0.7, 0.0, -0.0, 0, (0,)), (0.3, 0.0, 0.0, 1, (1,))]
        )
        mu2 = AtomicSignedMeasure.from_terms(
            x3, [(0.6, 0.0, -0.0, 0, (2,)), (0.4, 0.0, 0.0, 0, (1,))]
        )
        assert math.copysign(1.0, mu1.shift[0]) == -1.0
        A = neg_alpha(x3, -2.0)
        rep = joint_law_report(mu1, mu2, A)
        assert math.copysign(1.0, rep.worst.mean[0]) == -1.0
        assert_same_gate(mu1, mu2, A)
        assert_same_gate(mu2, mu1, A)
        assert_same_parity(mu1, mu2, dk=x3.G.element((1,)))

    def test_overflowing_key_raises_without_warning(self, x3):
        mu1 = AtomicSignedMeasure.from_terms(
            x3, [(0.5, 0.0, 1e308, 0, (0,)), (0.5, 0.0, 1e308, 1, (2,))]
        )
        mu2 = AtomicSignedMeasure.from_terms(
            x3, [(0.5, 0.0, -1e308, 0, (0,)), (0.5, 0.0, 0.0, 1, (1,))]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for report in (joint_law_report, reference_joint_law):
                with pytest.raises(ValueError, match="not finite"):
                    report(mu1, mu2, neg_alpha(x3, -2.0))

    def test_dense_support_matches_the_reference(self):
        # alpha_G = -1 on Z(9) x Z(9): K = G, omega on all of it, 324 terms
        # a side over 2 real atoms, so the term pairs far outnumber the
        # atom pairs
        orders, matrix = (9, 9), ((8, 0), (0, 8))
        X = AmbientGroup(FiniteAbelianGroup(orders))
        alpha_G = GroupAutomorphism(X.G, matrix)
        rng = random.Random("dense")
        weights = [rng.uniform(0.5, 1.0) for _ in range(2 * X.G.order)]
        omega2 = AtomicSignedMeasure.from_terms(
            X,
            [
                (w / sum(weights), 0.0, 0.0, k % 2, g)
                for k, (w, g) in enumerate(zip(weights, [e for e in X.G.elements() for _ in (0, 1)]))
            ],
        )
        inst = generate_instance(
            InstanceSpec(
                group=X,
                a=-2.0,
                alpha_G=alpha_G,
                theta2=self.W.draw_theta(rng),
                omega2=omega2,
                vartheta_d=0.5,
                x2=X.point(0.25, 1, (3, 4)),
            )
        )
        assert len(inst.mu1.c) == len(inst.mu2.c) == 4 * X.G.order
        for mu2 in (inst.mu2, self.W.perturb(inst.mu2)):
            assert_same_gate(inst.mu1, mu2, inst.alpha)
