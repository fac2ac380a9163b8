import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from heyde import (
    DualCharacter,
    FiniteAbelianGroup,
    char_table,
    eval_character,
    kernel_of_I_plus,
    negation_automorphism,
    scalar_automorphism,
)
from heyde.finite_abelian import GroupAutomorphism

ORDER_CHOICES = [(3,), (9,), (5,), (3, 5), (3, 3), (7, 9), (3, 5, 7)]


def assert_minus_one_subgroup(alpha, K):
    """K holds 0, is closed under addition, and alpha(k) = -k on it."""
    members = set(K)
    assert alpha.group.zero() in members
    assert all(a + b in members for a in K for b in K)
    assert all(alpha(k) == -k for k in K)


class TestGroupBasics:
    def test_order_rank_exponent(self):
        G = FiniteAbelianGroup((3, 5))
        assert G.order == 15
        assert G.rank == 2
        assert G.exponent_lcm == 15
        assert FiniteAbelianGroup((9, 3)).exponent_lcm == 9

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((0,))
        with pytest.raises(ValueError):
            FiniteAbelianGroup((-3,))

    def test_elements_enumeration(self):
        G = FiniteAbelianGroup((3, 5))
        els = list(G.elements())
        assert len(els) == 15
        assert len({e.coords for e in els}) == 15
        assert G.index_of(G.element((2, 4))) == els.index(G.element((2, 4)))

    def test_element_arithmetic(self):
        G = FiniteAbelianGroup((9,))
        a, b = G.element((7,)), G.element((5,))
        assert (a + b).coords == (3,)
        assert (-a).coords == (2,)
        assert (a - b).coords == (2,)

    def test_cross_group_arithmetic_rejected(self):
        a = FiniteAbelianGroup((3,)).element((1,))
        b = FiniteAbelianGroup((5,)).element((1,))
        with pytest.raises(ValueError):
            a + b

    @given(
        orders=hs.sampled_from(ORDER_CHOICES),
        data=hs.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_laws(self, orders, data):
        G = FiniteAbelianGroup(orders)
        pick = lambda: G.element(
            tuple(data.draw(hs.integers(0, n - 1)) for n in orders)
        )
        a, b, c = pick(), pick(), pick()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + G.zero() == a
        assert a + (-a) == G.zero()


class TestCharacters:
    def test_z3_primitive_value(self):
        G = FiniteAbelianGroup((3,))
        v = eval_character(G.character((1,)), G.element((1,)))
        assert v == pytest.approx(cmath.exp(2j * math.pi / 3), abs=1e-15)
        assert abs(v - complex(-0.5, 0.8660254037844386)) < 1e-15

    def test_unit_modulus_exact(self):
        G = FiniteAbelianGroup((7, 9))
        for h in G.characters():
            for g in G.elements():
                assert abs(abs(eval_character(h, g)) - 1.0) < 1e-15

    def test_multiplicative_in_both_slots(self):
        G = FiniteAbelianGroup((3, 5))
        h1, h2 = G.character((1, 2)), G.character((2, 3))
        g1, g2 = G.element((2, 1)), G.element((1, 4))
        lhs = eval_character(h1, g1 + g2)
        assert lhs == pytest.approx(
            eval_character(h1, g1) * eval_character(h1, g2), abs=1e-14
        )
        assert eval_character(h1 + h2, g1) == pytest.approx(
            eval_character(h1, g1) * eval_character(h2, g1), abs=1e-14
        )

    def test_trivial_character_and_zero(self):
        G = FiniteAbelianGroup((9,))
        assert G.trivial_character().is_trivial
        for g in G.elements():
            assert eval_character(G.trivial_character(), g) == 1.0
        for h in G.characters():
            assert eval_character(h, G.zero()) == 1.0

    def test_callable_form(self):
        G = FiniteAbelianGroup((5,))
        h = G.character((2,))
        assert h(G.element((3,))) == eval_character(h, G.element((3,)))

    @pytest.mark.parametrize("orders", [(3,), (9,), (3, 5)])
    def test_char_table_orthogonality(self, orders):
        G = FiniteAbelianGroup(orders)
        T = char_table(G)
        gram = T @ T.conj().T
        assert np.max(np.abs(gram - G.order * np.eye(G.order))) < 1e-12

    def test_char_table_layout(self):
        G = FiniteAbelianGroup((3, 5))
        T = char_table(G)
        h = G.character((2, 3))
        g = G.element((1, 4))
        assert T[G.index_of(h), G.index_of(g)] == pytest.approx(
            eval_character(h, g), abs=1e-15
        )


class TestAutomorphisms:
    def test_identity_and_negation(self):
        G = FiniteAbelianGroup((3, 5))
        ident = scalar_automorphism(G, 1)
        neg = negation_automorphism(G)
        for g in G.elements():
            assert ident(g) == g
            assert neg(g) == -g
        assert kernel_of_I_plus(neg) == list(G.elements())

    def test_non_invertible_rejected(self):
        G = FiniteAbelianGroup((9,))
        with pytest.raises(ValueError):
            GroupAutomorphism(G, ((3,),))
        with pytest.raises(ValueError):
            scalar_automorphism(G, 3)

    def test_ill_defined_map_rejected(self):
        # An off-diagonal entry from a Z(3) slot into a Z(9) slot must be
        # a multiple of 3 to respect 3*g = 0; entry 1 is not.
        G = FiniteAbelianGroup((9, 3))
        with pytest.raises(ValueError):
            GroupAutomorphism(G, ((1, 1), (0, 1)))

    def test_scalar_kernel_example(self):
        G = FiniteAbelianGroup((9,))
        al = scalar_automorphism(G, 2)
        K = kernel_of_I_plus(al)
        assert sorted(k.coords for k in K) == [(0,), (3,), (6,)]
        assert_minus_one_subgroup(al, K)

    def test_compose_and_inverse_roundtrip(self):
        G = FiniteAbelianGroup((3, 3))
        al = GroupAutomorphism(G, ((1, 1), (0, 1)))
        be = GroupAutomorphism(G, ((1, 0), (2, 1)))
        comp = al.compose(be)
        for g in G.elements():
            assert comp(g) == al(be(g))

    def test_adjoint_pairing_exhaustive(self):
        G = FiniteAbelianGroup((3, 3))
        al = GroupAutomorphism(G, ((1, 1), (0, 1)))
        adj = al.adjoint()
        assert adj.matrix == ((1, 0), (1, 1))
        for g in G.elements():
            for h in G.characters():
                assert eval_character(adj(h), g) == pytest.approx(
                    eval_character(h, al(g)), abs=1e-14
                )

    def test_adjoint_reverses_composition(self):
        G = FiniteAbelianGroup((3, 3))
        al = GroupAutomorphism(G, ((1, 1), (0, 1)))
        be = GroupAutomorphism(G, ((2, 0), (0, 1)))
        lhs = al.compose(be).adjoint()
        rhs = be.adjoint().compose(al.adjoint())
        assert lhs.matrix == rhs.matrix

    def test_index_map_consistency(self):
        G = FiniteAbelianGroup((3, 5))
        al = scalar_automorphism(G, 2)
        imap = al.index_map()
        for g in G.elements():
            assert imap[G.index_of(g)] == G.index_of(al(g))

    def test_kernel_is_subgroup_various(self):
        for orders, mat in [
            ((9,), ((2,),)),
            ((3, 5), ((2, 0), (0, 4))),
            ((3, 5), ((2, 0), (0, 1))),
        ]:
            G = FiniteAbelianGroup(orders)
            al = GroupAutomorphism(G, mat)
            K = kernel_of_I_plus(al)
            assert_minus_one_subgroup(al, K)


class TestSerialization:
    def test_group_roundtrip(self):
        G = FiniteAbelianGroup((3, 5))
        assert FiniteAbelianGroup.from_json(G.to_json()) == G

    def test_character_neg_sub(self):
        G = FiniteAbelianGroup((7,))
        h = G.character((3,))
        assert (-h).coords == (4,)
        assert (h - h).is_trivial
        assert isinstance(h, DualCharacter)
