from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bunncalc import (
    DomainError,
    ParseError,
    bundle,
    format_bundle,
    h0_vanishes,
    h1_vanishes,
    hn_polygon,
    normalize_bundle,
    parse_bundle,
    reduce_slope,
    rho_pairing,
    rho_pairing_bundle,
)
from bunncalc.bundles import pairing_note
from conftest import bundle_specs

F = Fraction


class TestReduceSlope:
    def test_gcd_reduction(self):
        assert reduce_slope(3, 6) == F(1, 2)

    def test_zero_slope(self):
        assert reduce_slope(0, 5) == F(0, 1)

    def test_sign_in_numerator(self):
        s = reduce_slope(-2, 4)
        assert (s.numerator, s.denominator) == (-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            reduce_slope(1, 0)


class TestNormalize:
    def test_merge_equal_slopes(self):
        spec = normalize_bundle([(F(1, 2), 1), (F(1, 2), 1), (F(0), 3)])
        assert spec.parts == ((F(1, 2), 2), (F(0), 3))

    def test_sort_descending(self):
        spec = normalize_bundle([(F(0), 2), (F(1), 1)])
        assert spec.parts == ((F(1), 1), (F(0), 2))

    def test_already_normal(self):
        spec = normalize_bundle([(F(3, 4), 1), (F(1, 3), 1), (F(0), 3)])
        assert spec.parts == ((F(3, 4), 1), (F(1, 3), 1), (F(0), 3))
        assert (spec.rank, spec.deg) == (10, 4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            normalize_bundle([])

    @given(bundle_specs())
    def test_idempotent(self, spec):
        assert normalize_bundle(spec.parts) == spec

    @given(bundle_specs(), bundle_specs())
    def test_rank_degree_additive(self, a, b):
        s = a.direct_sum(b)
        assert s.rank == a.rank + b.rank
        assert s.deg == a.deg + b.deg


class TestRankDegree:
    def test_two_stable_parts(self):
        e = parse_bundle("O(3/2)+O(1/2)")
        assert (e.rank, e.deg) == (4, 4)

    def test_trivial(self):
        e = parse_bundle("O^7")
        assert (e.rank, e.deg) == (7, 0)

    def test_mixed(self):
        e = parse_bundle("O(1/3)+O^2")
        assert (e.rank, e.deg) == (5, 1)


class TestPolygon:
    def test_single_segment(self):
        p = hn_polygon(parse_bundle("O(1/2)^2"))
        assert p.vertices == ((F(0), F(0)), (F(4), F(2)))

    def test_two_segments(self):
        p = hn_polygon(parse_bundle("O(1)+O"))
        assert p.vertices == ((F(0), F(0)), (F(1), F(1)), (F(2), F(1)))

    def test_three_segments(self):
        p = hn_polygon(parse_bundle("O(3/4)+O(1/3)+O^3"))
        assert p.vertices == (
            (F(0), F(0)),
            (F(4), F(3)),
            (F(7), F(4)),
            (F(10), F(4)),
        )

    @given(bundle_specs())
    def test_endpoint_and_lattice_breakpoints(self, spec):
        p = hn_polygon(spec)
        assert p.endpoint == (F(spec.rank), F(spec.deg))
        for x, y in p.vertices:
            assert x.denominator == 1 and y.denominator == 1

    def test_lies_above(self):
        big = hn_polygon(parse_bundle("O(1/2)"))
        small = hn_polygon(parse_bundle("O^2"))
        assert big.lies_above(small)
        assert not small.lies_above(big)


class TestCohomologyVanishing:
    def test_negative_slope_no_sections(self):
        assert h0_vanishes(F(-1, 2))

    def test_h1_vanishes_at_zero(self):
        assert h1_vanishes(F(0))

    def test_trivial_has_sections(self):
        assert not h0_vanishes(F(0))

    @given(st.integers(-20, 20), st.integers(1, 9))
    def test_exactly_one_fails_except_boundary(self, num, den):
        s = reduce_slope(num, den)
        assert h0_vanishes(s) == (s < 0)
        assert h1_vanishes(s) == (s >= 0)


class TestRhoPairing:
    def test_rank_four_example(self):
        assert rho_pairing([(F(3, 2), 2), (F(1, 2), 2)]) == 4

    def test_rank_six_example(self):
        assert rho_pairing([(F(1, 3), 3), (F(0), 3)]) == 3

    def test_two_integer_classes(self):
        assert rho_pairing([(F(2), 1), (F(1), 1)]) == 1

    def test_fractional_class_degree_rejected(self):
        with pytest.raises(DomainError):
            rho_pairing([(F(1, 2), 1), (F(0), 1)])

    @given(bundle_specs())
    def test_nonnegative_and_zero_iff_semistable(self, spec):
        v = rho_pairing_bundle(spec)
        assert v >= 0
        assert (v == 0) == (len(spec.parts) == 1)

    @given(bundle_specs(), st.integers(-3, 3))
    def test_invariant_under_central_twist(self, spec, a):
        assert rho_pairing_bundle(spec.twist(a)) == rho_pairing_bundle(spec)

    def test_flagged_instance_reports_formula_value(self):
        e = parse_bundle("O(3/2)+O(1/2)+O(1/3)+O^3")
        assert rho_pairing_bundle(e) == 27
        note = pairing_note(e.slope_classes())
        assert note is not None and "26" in note and "27" in note

    def test_unflagged_instance_has_no_note(self):
        assert pairing_note(parse_bundle("O(1)+O").slope_classes()) is None


class TestGrammar:
    def test_worked_bundle(self):
        e = parse_bundle("O(3/4)+O(1/3)+O^3")
        assert e.parts == ((F(3, 4), 1), (F(1, 3), 1), (F(0), 3))

    def test_trivial_power(self):
        assert parse_bundle("O^4").parts == ((F(0), 4),)

    def test_whitespace_insensitive(self):
        assert parse_bundle(" O(3/4) + O( 1/3) +O^3 ".replace("( 1", "(1")) == parse_bundle(
            "O(3/4)+O(1/3)+O^3"
        )

    def test_negative_slopes(self):
        e = parse_bundle("O(-1)+O(-1/2)^2")
        assert e.parts == ((F(-1, 2), 2), (F(-1), 1))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_bundle("O(1/2)+X")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_bundle("O(1/0)")

    @given(bundle_specs())
    def test_round_trip(self, spec):
        assert parse_bundle(format_bundle(spec)) == spec

    def test_builder(self):
        assert bundle((1, 2, 1), (0, 1, 3)) == parse_bundle("O(1/2)+O^3")


class TestJson:
    def test_canonical_shape(self):
        from bunncalc.bundles import bundle_to_json

        data = bundle_to_json(parse_bundle("O(3/4)+O(1/3)+O^3"))
        assert data == {
            "parts": [
                {"num": 3, "den": 4, "mult": 1},
                {"num": 1, "den": 3, "mult": 1},
                {"num": 0, "den": 1, "mult": 3},
            ]
        }
