from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunncalc import (
    DomainError,
    b_to_chis,
    bundle_to_b,
    check_a1,
    chi_id,
    chi_inv,
    chi_mul,
    chi_to_bundle,
    chi_to_rep,
    component_shape,
    make_F,
    parse_bundle,
)
from bunncalc.lparams import Component, LParamShape, character_of_rep, character_of_sheaf
from conftest import shape_and_chi, unreachable_after

F = Fraction


def multinomial(parts):
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


class TestShape:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            LParamShape((Component("a", 1), Component("a", 2)))

    def test_frobenius_symbol_arity(self):
        with pytest.raises(DomainError):
            Component("a", 2, frobenius_symbols=("x",))

    def test_from_dims(self):
        shape = LParamShape.from_dims((4, 1))
        assert shape.n == 5 and shape.r == 2
        assert [c.label for c in shape.components] == ["phi1", "phi2"]


class TestChiToBundle:
    def test_unit_characters(self):
        shape = LParamShape.from_dims((3, 2, 1))
        for i, ni in enumerate(shape.dims):
            chi = tuple(1 if j == i else 0 for j in range(3))
            e = chi_to_bundle(shape, chi)
            expect = parse_bundle(f"O(1/{ni})+O^{6 - ni}") if ni > 1 else parse_bundle("O(1)+O^5")
            assert e == expect

    def test_negative_character(self):
        shape = LParamShape.from_dims((1, 1))
        assert chi_to_bundle(shape, (-1, -2)) == parse_bundle("O(-1)+O(-2)")

    def test_identity_character(self):
        shape = LParamShape.from_dims((2, 3))
        assert chi_to_bundle(shape, (0, 0)) == parse_bundle("O^5")

    def test_length_mismatch_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        with pytest.raises(DomainError):
            chi_to_bundle(shape, (1, 0, 0))

    @given(shape_and_chi())
    def test_rank_and_degree(self, data):
        shape, chi = data
        e = chi_to_bundle(shape, chi)
        assert e.rank == shape.n
        assert e.deg == sum(chi)


class TestRepAndSheaf:
    def test_identity_rep(self):
        shape = LParamShape.from_dims((2, 2))
        sheaf = make_F(shape, (0, 0))
        assert sheaf.stratum == bundle_to_b(parse_bundle("O^4"))
        assert sheaf.shift == 0
        assert sheaf.rep.slope_classes == ((F(0), frozenset({0, 1})),)
        assert sheaf.modulus_half_exponent == F(-1, 2)
        assert sheaf.tate_twist == 0

    def test_mixed_classes(self):
        shape = LParamShape.from_dims((4, 1))
        rep = chi_to_rep(shape, (2, 0))
        assert rep.stratum == bundle_to_b(parse_bundle("O(1/2)^2+O"))
        assert rep.slope_classes == (
            (F(1, 2), frozenset({0})),
            (F(0), frozenset({1})),
        )
        assert make_F(shape, (2, 0)).shift == -2

    def test_equal_ratios_merge(self):
        shape = LParamShape.from_dims((2, 1))
        rep = chi_to_rep(shape, (2, 1))
        assert rep.slope_classes == ((F(1), frozenset({0, 1})),)

    @given(shape_and_chi())
    def test_character_recovery(self, data):
        shape, chi = data
        assert character_of_rep(shape, chi_to_rep(shape, chi)) == chi
        assert character_of_sheaf(shape, make_F(shape, chi)) == chi

    def test_malformed_sheaf_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        sheaf = make_F(shape, (1, 0))
        import dataclasses

        broken = dataclasses.replace(sheaf, shift=sheaf.shift - 1)
        with pytest.raises(DomainError):
            character_of_sheaf(shape, broken)

    @given(shape_and_chi(), shape_and_chi())
    @settings(max_examples=200)
    def test_injectivity_of_pairing(self, d1, d2):
        shape, chi = d1
        _, chi2 = d2
        if len(chi2) != shape.r or chi == chi2:
            return
        pair1 = (chi_to_bundle(shape, chi), chi_to_rep(shape, chi))
        pair2 = (chi_to_bundle(shape, chi2), chi_to_rep(shape, chi2))
        assert pair1 != pair2


class TestBToChis:
    def test_leaves_no_reference_cycles(self):
        shape = LParamShape.from_dims((1, 1, 1))
        b = bundle_to_b(parse_bundle("O(1)^2+O"))
        assert unreachable_after(lambda: b_to_chis(shape, b)) == 0

    def test_multinomial_count(self):
        shape = LParamShape.from_dims((1, 1, 1, 1))
        b = bundle_to_b(parse_bundle("O(2)^2+O(1)+O"))
        assert len(b_to_chis(shape, b)) == multinomial((2, 1, 1))

    def test_basic_divisible(self):
        shape = LParamShape.from_dims((2, 4))
        b = bundle_to_b(parse_bundle("O(1/3)^2"))
        # slope 1/3 needs 3 | n_i, which fails for both components
        assert b_to_chis(shape, b) == []

    def test_basic_single_class(self):
        shape = LParamShape.from_dims((2, 4))
        b = bundle_to_b(parse_bundle("O(1/2)^3"))
        assert b_to_chis(shape, b) == [(1, 2)]

    def test_divisibility_pruning(self):
        # the slope-1/3 class needs a component of dimension divisible by 3
        shape = LParamShape.from_dims((4, 2, 1))
        b = bundle_to_b(parse_bundle("O(3/4)+O(1/3)"))
        assert b_to_chis(shape, b) == []

    def test_rank_mismatch_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        with pytest.raises(DomainError):
            b_to_chis(shape, bundle_to_b(parse_bundle("O^3")))

    @given(shape_and_chi())
    @settings(max_examples=200)
    def test_round_trip_membership(self, data):
        shape, chi = data
        b = bundle_to_b(chi_to_bundle(shape, chi))
        assert chi in b_to_chis(shape, b)


class TestHypotheses:
    def test_check_a1(self):
        assert check_a1(LParamShape.from_dims((2, 3)))
        shape = LParamShape.from_dims((2, 3))
        flagged = LParamShape(shape.components, disjointness_asserted=False)
        assert not check_a1(flagged)


class TestComponentShape:
    def test_single_component(self):
        shape = LParamShape.from_dims((4,), torsion=(4,))
        desc = component_shape(shape)
        assert desc.stack == "[G_m/G_m]"
        assert desc.closed_point_law == "t^4"

    def test_three_unit_torsions(self):
        desc = component_shape(LParamShape.from_dims((1, 2, 3)))
        assert desc.stack == "[G_m^3/G_m^3]"
        assert desc.closed_point_law == "(t_1, t_2, t_3)"

    def test_mixed_torsions(self):
        shape = LParamShape.from_dims((2, 3), torsion=(2, 3))
        assert component_shape(shape).closed_point_law == "(t_1^2, t_2^3)"


class TestCharacterOps:
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_group_laws(self, d):
        chi = tuple(d)
        r = len(chi)
        assert chi_mul(chi, chi_inv(chi)) == chi_id(r)
        assert chi_mul(chi, chi_id(r)) == chi
