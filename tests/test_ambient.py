import cmath
import math

import numpy as np
import pytest

from heyde import (
    AmbientGroup,
    FiniteAbelianGroup,
    XAutomorphism,
    pair,
    scalar_automorphism,
)
from heyde.finite_abelian import GroupAutomorphism


@pytest.fixture
def x9():
    return AmbientGroup(FiniteAbelianGroup((9,)))


class TestAmbientGroup:
    def test_rejects_even_component(self):
        with pytest.raises(ValueError):
            AmbientGroup(FiniteAbelianGroup((2,)))
        with pytest.raises(ValueError):
            AmbientGroup(FiniteAbelianGroup((3, 4)))

    def test_order_two_point(self, x9):
        p = x9.order_two_point
        assert (p.t, p.m, p.g.coords) == (0.0, 1, (0,))
        assert (p + p) == x9.zero_point()

    def test_point_arithmetic(self, x9):
        x = x9.point(1.5, 1, (7,))
        y = x9.point(-0.5, 1, (4,))
        s = x + y
        assert (s.t, s.m, s.g.coords) == (1.0, 0, (2,))
        assert (-x).m == 1
        assert ((x - x).t, (x - x).m) == (0.0, 0)

    def test_json_roundtrip(self, x9):
        assert AmbientGroup.from_json(x9.to_json()).G == x9.G


class TestPairing:
    def test_real_slot(self, x9):
        x = x9.point(math.pi, 0, (0,))
        y = x9.dual_point(1.0, 0, (0,))
        assert pair(x, y) == pytest.approx(-1.0, abs=1e-15)

    def test_parity_cancels_real_sign(self, x9):
        # e^{i pi} = -1 and (-1)^{1*1} = -1 multiply back to +1
        x = x9.point(math.pi, 1, (0,))
        y = x9.dual_point(1.0, 1, (0,))
        assert pair(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_finite_slot_root_of_unity(self):
        X = AmbientGroup(FiniteAbelianGroup((3,)))
        v = pair(X.point(0.0, 0, (1,)), X.dual_point(0.0, 0, (1,)))
        assert v == pytest.approx(cmath.exp(2j * math.pi / 3), abs=1e-15)

    def test_bicharacter_laws(self, x9):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t1, t2, s1, s2 = rng.normal(size=4)
            m1, m2, n1, n2 = rng.integers(0, 2, size=4)
            g1, g2, h1, h2 = rng.integers(0, 9, size=4)
            xa = x9.point(t1, int(m1), (int(g1),))
            xb = x9.point(t2, int(m2), (int(g2),))
            ya = x9.dual_point(s1, int(n1), (int(h1),))
            yb = x9.dual_point(s2, int(n2), (int(h2),))
            assert pair(xa + xb, ya) == pytest.approx(
                pair(xa, ya) * pair(xb, ya), abs=1e-13
            )
            assert pair(xa, ya + yb) == pytest.approx(
                pair(xa, ya) * pair(xa, yb), abs=1e-13
            )
            assert abs(abs(pair(xa, ya)) - 1.0) < 1e-14


class TestXAutomorphism:
    def test_requires_nonzero_scale(self, x9):
        with pytest.raises(ValueError):
            XAutomorphism(x9, 0.0, scalar_automorphism(x9.G, 2))

    def test_application(self, x9):
        A = XAutomorphism(x9, -2.0, scalar_automorphism(x9.G, 2))
        img = A(x9.point(1.5, 1, (4,)))
        assert (img.t, img.m, img.g.coords) == (-3.0, 1, (8,))

    def test_parity_slot_fixed(self, x9):
        A = XAutomorphism(x9, 0.5, scalar_automorphism(x9.G, 4))
        for m in (0, 1):
            assert A(x9.point(0.0, m, (0,))).m == m

    def test_adjoint_pairing(self, x9):
        A = XAutomorphism(x9, -2.0, scalar_automorphism(x9.G, 2))
        At = A.adjoint()
        probes = [(-1.3, 0.4), (0.0, 1.0), (2.2, -0.9), (0.31, 0.0)]
        for m in (0, 1):
            for gc in range(9):
                for n in (0, 1):
                    for hc in range(9):
                        for t, s in probes:
                            x = x9.point(t, m, (gc,))
                            y = x9.dual_point(s, n, (hc,))
                            assert pair(A(x), y) == pytest.approx(
                                pair(x, At(y)), abs=1e-12
                            )

    def test_adjoint_reverses_composition(self):
        G = FiniteAbelianGroup((3, 3))
        X = AmbientGroup(G)
        A = XAutomorphism(X, -2.0, GroupAutomorphism(G, ((1, 1), (0, 1))))
        B = XAutomorphism(X, 0.5, GroupAutomorphism(G, ((2, 0), (0, 1))))
        lhs = A.compose(B).adjoint()
        rhs = B.adjoint().compose(A.adjoint())
        assert lhs.a == rhs.a
        assert lhs.alpha_H.matrix == rhs.alpha_H.matrix

    def test_compose_action(self, x9):
        A = XAutomorphism(x9, -2.0, scalar_automorphism(x9.G, 2))
        B = XAutomorphism(x9, 3.0, scalar_automorphism(x9.G, 4))
        C = A.compose(B)
        x = x9.point(0.7, 1, (5,))
        assert C(x) == A(B(x))

    def test_json_roundtrip(self, x9):
        A = XAutomorphism(x9, -2.0, scalar_automorphism(x9.G, 2))
        back = XAutomorphism.from_json(x9, A.to_json())
        assert back.a == A.a and back.alpha_G.matrix == A.alpha_G.matrix
