"""The pairing kernel and the evaluators built on it, against definitions.

char_values is compared with a per-term sum over the dense char_table, and
the Monte Carlo statistic with its definition evaluated on the same samples
with plain numpy (conftest.values_by_definition).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from heyde import (
    AmbientGroup,
    AtomicSignedMeasure,
    FiniteAbelianGroup,
    char_table,
    char_values,
    mc_symmetry_test,
)
from heyde.symmetry import _default_probe_pairs
from conftest import perturb_coefficient, standard_instance, values_by_definition

ORDERS = [(3,), (9,), (3, 3, 5)]


def naive_char(mu, table, s, n, h):
    """Per-term sum of c * exp(-sigma s^2 + i shift s) * (-1)^(m n) * (g, h)."""
    G = mu.group.G
    total = 0.0 + 0.0j
    for t in mu.terms:
        real = cmath.exp(-t.atom.sigma * s * s + 1j * t.atom.shift * s)
        sign = -1.0 if (t.m * n) % 2 else 1.0
        total += t.c * real * sign * table[G.index_of(t.g), G.index_of(h)]
    return total


@hs.composite
def measure_and_duals(draw):
    orders = draw(hs.sampled_from(ORDERS))
    X = AmbientGroup(FiniteAbelianGroup(orders))
    coords = hs.tuples(*(hs.integers(0, n - 1) for n in orders))
    # a small pool of real atoms, so several terms share one atom
    pool = draw(
        hs.lists(
            hs.tuples(hs.sampled_from([0.0, 0.25, 1.0, 2.0]), hs.floats(-2.0, 2.0)),
            min_size=1,
            max_size=3,
        )
    )
    terms = draw(
        hs.lists(
            hs.tuples(hs.floats(-1.0, 1.0), hs.sampled_from(pool), hs.integers(0, 1), coords),
            min_size=1,
            max_size=8,
        )
    )
    mu = AtomicSignedMeasure.from_terms(
        X, [(c, sigma, shift, m, g) for c, (sigma, shift), m, g in terms]
    )
    complex_s = draw(hs.booleans())
    s = [
        complex(re, draw(hs.floats(-1.5, 1.5)) if complex_s else 0.0)
        for re in draw(hs.lists(hs.floats(-3.0, 3.0), min_size=1, max_size=4))
    ]
    duals = draw(hs.lists(hs.tuples(hs.integers(0, 1), coords), min_size=1, max_size=6))
    return mu, np.array(s) if complex_s else np.array(s).real, duals


@settings(max_examples=150, deadline=None)
@given(measure_and_duals())
def test_char_values_matches_naive_sum(case):
    mu, s, duals = case
    G = mu.group.G
    table = char_table(G)
    n = [d[0] for d in duals]
    h = [d[1] for d in duals]
    got = char_values(mu, s, n, h)
    assert got.shape == (len(s), len(duals))
    for p, sp in enumerate(s):
        for q, (nq, hq) in enumerate(duals):
            want = naive_char(mu, table, complex(sp), nq, G.character(hq))
            scale = sum(
                abs(t.c) * abs(cmath.exp(-t.atom.sigma * complex(sp) ** 2)) for t in mu.terms
            )
            assert abs(got[p, q] - want) <= 1e-12 * (1.0 + scale)


def test_char_values_default_dual_is_whole_finite_dual():
    X = AmbientGroup(FiniteAbelianGroup((3, 5)))
    mu = AtomicSignedMeasure.from_terms(
        X, [(0.6, 1.0, 0.3, 0, (1, 2)), (0.4, 1.0, 0.3, 1, (2, 4)), (0.2, 0.0, -1.0, 1, (0, 1))]
    )
    G = X.G
    full = char_values(mu, [0.0, 0.7])
    n = np.repeat([0, 1], G.order)
    h = np.tile(G.all_coords(), (2, 1))
    assert np.array_equal(full, char_values(mu, [0.0, 0.7], n, h))


def statistic_by_definition(mu1, mu2, alpha, n_samples, probes, seed):
    """max over (u, v) of |mean(w1 * w2) - mean(w1 * conj(w2))|, w1 on L1, w2 on L2."""
    return max(values_by_definition(mu1, mu2, alpha, n_samples, probes, seed), default=0.0)


@pytest.mark.parametrize("orders", [(3,), (3, 5)])
@pytest.mark.parametrize("perturbed", [False, True])
def test_mc_statistic_matches_definition_default_probes(orders, perturbed):
    inst = standard_instance(orders=orders)
    mu2 = perturb_coefficient(inst.mu2) if perturbed else inst.mu2
    probes = _default_probe_pairs(inst.mu1.group, inst.mu1, mu2)
    rep = mc_symmetry_test(inst.mu1, mu2, inst.alpha, 2000, seed=4)
    want = statistic_by_definition(inst.mu1, mu2, inst.alpha, 2000, probes, 4)
    assert rep.probe_count == len(probes)
    assert rep.statistic == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_mc_statistic_matches_definition_user_probes():
    inst = standard_instance(orders=(3, 5))
    mu2 = perturb_coefficient(inst.mu2)
    X = inst.mu1.group
    u1, u2 = X.dual_point(0.3, 1, (1, 2)), X.dual_point(-0.8, 0, (2, 0))
    v1, v2 = X.dual_point(0.5, 1, (0, 4)), X.dual_point(1.1, 0, (1, 1))
    # not a full product: u2 meets only v1, and u1 appears twice
    probes = [(u1, v1), (u2, v1), (u1, v2), (u1, v1)]
    rep = mc_symmetry_test(inst.mu1, mu2, inst.alpha, 2000, probes=probes, seed=9)
    want = statistic_by_definition(inst.mu1, mu2, inst.alpha, 2000, probes, 9)
    assert rep.probe_count == 4
    assert want > 0.0
    assert rep.statistic == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_mc_statistic_without_probes_is_zero():
    inst = standard_instance()
    rep = mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, 500, probes=[], seed=1)
    assert rep.statistic == 0.0 and rep.passed and rep.probe_count == 0
    assert rep.worst is None
    assert math.isfinite(rep.threshold)


def assert_matches_definition(mu1, mu2, alpha, n_samples, probes, seed):
    """The statistic and its worst probe pair against the definition."""
    rep = mc_symmetry_test(mu1, mu2, alpha, n_samples, probes=probes, seed=seed)
    if probes is None:
        probes = _default_probe_pairs(mu1.group, mu1, mu2)
    values = values_by_definition(mu1, mu2, alpha, n_samples, probes, seed)
    assert rep.probe_count == len(probes)
    assert rep.statistic == pytest.approx(max(values), rel=1e-12, abs=1e-15)
    k = rep.worst.index
    assert (rep.worst.u, rep.worst.v) == tuple(probes[k])
    # the worst pair attains the max; a near tie may pick either of two
    assert values[k] == pytest.approx(max(values), rel=1e-12, abs=1e-15)
    return rep


# a > 0 forces sigma = sigma' = 0: every atom of both measures is a point mass
POINT_MASSES = dict(
    orders=(3,), a=2.0, sigma=0.0, sigma_p=0.0, m=0.2, m_p=0.2, kappa=0.8, vartheta_d=0.3,
    x2=(0.5, 1, (2,)),
)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize(
    "spec, n_samples",
    [
        (dict(orders=(9,), matrix=((2,),)), 2000),
        (POINT_MASSES, 2000),
        # 2 * 15^2 = 450 bins (m, g1, g2), more than the samples
        (dict(orders=(3, 5)), 200),
    ],
    ids=["z9_alpha_two", "point_masses", "more_bins_than_samples"],
)
def test_mc_statistic_and_worst_match_definition(spec, n_samples, perturbed):
    inst = standard_instance(**spec)
    mu2 = perturb_coefficient(inst.mu2) if perturbed else inst.mu2
    assert_matches_definition(inst.mu1, mu2, inst.alpha, n_samples, None, 6)


def test_mc_statistic_matches_definition_three_s_per_side():
    inst = standard_instance(orders=(3, 5))
    mu2 = perturb_coefficient(inst.mu2)
    X = inst.mu1.group
    us = [X.dual_point(s, 1, h) for s, h in ((0.3, (1, 2)), (-0.8, (2, 0)), (1.7, (0, 3)))]
    vs = [X.dual_point(s, 1, h) for s, h in ((0.5, (0, 4)), (1.1, (1, 1)), (-0.4, (2, 2)))]
    probes = [(u, v) for u in us for v in vs]
    rep = assert_matches_definition(inst.mu1, mu2, inst.alpha, 2000, probes, 12)
    assert rep.statistic > 0.0


# s values that take the probe stage's s = 0 shortcuts; at s_v = 0 the
# finite character of v must be nontrivial, else pair(L2, v) is real and the
# value is 0 whatever the code does
S_ZERO_PROBES = {
    "u_zero": [((0.0, 1, (1, 2)), (0.5, 1, (0, 4))), ((0.0, 0, (2, 0)), (-1.1, 0, (1, 1)))],
    "v_zero": [((0.3, 0, (2, 0)), (0.0, 1, (1, 1))), ((-0.8, 1, (0, 3)), (0.0, 0, (2, 4)))],
    "both_zero": [((0.0, 1, (1, 2)), (0.0, 0, (2, 3))), ((0.0, 0, (0, 0)), (0.0, 1, (0, 1)))],
    "negative_zero": [((-0.0, 1, (0, 1)), (0.7, 1, (1, 0))), ((0.4, 0, (1, 1)), (-0.0, 1, (2, 1)))],
}


@pytest.mark.parametrize("name", list(S_ZERO_PROBES))
def test_mc_statistic_matches_definition_at_s_zero(name):
    inst = standard_instance(orders=(3, 5))
    mu2 = perturb_coefficient(inst.mu2)
    X = inst.mu1.group
    probes = [(X.dual_point(*u), X.dual_point(*v)) for u, v in S_ZERO_PROBES[name]]
    rep = assert_matches_definition(inst.mu1, mu2, inst.alpha, 2000, probes, 14)
    assert rep.statistic > 0.0


@pytest.mark.parametrize("perturbed", [False, True])
def test_mc_statistic_matches_definition_beyond_16_bit_bin_keys(perturbed):
    # 2 * 183^2 = 66,978 bins (m, g1, g2), and with g1 near (2, 60) the
    # samples with m = 1 sit in bins whose keys need more than 16 bits
    inst = standard_instance(orders=(3, 61), x2=(0.4, 1, (2, 58)))
    assert 2 * inst.mu1.group.G.order ** 2 > 2**16
    mu2 = perturb_coefficient(inst.mu2) if perturbed else inst.mu2
    assert_matches_definition(inst.mu1, mu2, inst.alpha, 1000, None, 15)
