"""The pairing kernel and the evaluators built on it, against definitions.

char_values is compared with a per-term sum over the dense char_table, and
the Monte Carlo statistic with its definition evaluated here on the same
samples with plain numpy.
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
    sample_arrays,
)
from heyde.symmetry import _default_probe_pairs
from conftest import perturb_coefficient, standard_instance

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


def pair_on_samples(group, t, m, g, y):
    """pair((t, m, g), y) over sample arrays, straight from the formula."""
    orders = np.array(group.G.cyclic_orders)
    finite = 2.0 * np.pi * ((g * np.array(y.h.coords)) / orders).sum(axis=1)
    return np.exp(1j * (y.s * t + finite)) * (-1.0) ** ((m.astype(int) * y.n) % 2)


def statistic_by_definition(mu1, mu2, alpha, n_samples, probes, seed):
    """max over (u, v) of |mean(w1 * w2) - mean(w1 * conj(w2))|, w1 on L1, w2 on L2."""
    group = mu1.group
    seeds = np.random.SeedSequence(seed).spawn(2)
    t1, m1, g1 = sample_arrays(mu1, np.random.default_rng(seeds[0]), n_samples)
    t2, m2, g2 = sample_arrays(mu2, np.random.default_rng(seeds[1]), n_samples)
    g2a = g2 @ np.array(alpha.alpha_G.matrix).T
    L1 = (t1 + t2, m1 + m2, g1 + g2)
    L2 = (t1 + alpha.a * t2, m1 + m2, g1 + g2a)
    stat = 0.0
    for u, v in probes:
        w1 = pair_on_samples(group, *L1, u)
        w2 = pair_on_samples(group, *L2, v)
        stat = max(stat, abs((w1 * w2).mean() - (w1 * np.conj(w2)).mean()))
    return stat


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
    assert math.isfinite(rep.threshold)
