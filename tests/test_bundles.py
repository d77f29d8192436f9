from fractions import Fraction
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bunncalc import (
    BudgetError,
    BundleSpec,
    DomainError,
    LParamShape,
    ParseError,
    b_to_bundle,
    bundle,
    bundle_to_b,
    chi_to_bundle,
    enumerate_B,
    format_bundle,
    hn_polygon,
    levi_branching,
    modification_necessary,
    modification_targets_rank_one,
    normalize_bundle,
    parse_bundle,
    reduce_slope,
    rho_pairing,
    weight_multiplicities,
)
from bunncalc.bundles import (
    as_int,
    check_dominant,
    lattice_tops,
    merge_segments,
    pairing_note,
    segment_pairing,
    slope_groups,
)
from bunncalc.modif import _split_at
from bunncalc.serialize import point_json
from bunncalc.shtuka import is_minuscule
from conftest import bundle_specs, fractions_built, small_bundles
from oracles import (
    hn_polygon_oracle,
    merge_segments_oracle,
    parts_of,
    slope_classes_of,
    split_at_oracle,
)

F = Fraction


segment_lists = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 5)), min_size=1, max_size=8)


class TestSlopeGroups:
    """One pass groups the segments and sums them; merge_segments reads the
    sums.  Both against a sort-and-sum oracle."""

    def test_repeated_and_unsorted_slopes(self):
        segments = [(0, 1), (1, 2), (2, 1), (0, 3), (2, 4), (-1, 1), (1, 2), (-2, 2)]
        assert slope_groups(segments) == [
            (2, 1, [2]),
            (4, 8, [1, 4, 6]),
            (0, 4, [0, 3]),
            (-3, 3, [5, 7]),
        ]
        assert merge_segments(segments).segments == merge_segments_oracle(segments)

    @given(segment_lists)
    def test_groups_partition_and_sum(self, segments):
        groups = slope_groups(segments)
        assert sorted(i for _, _, members in groups for i in members) == list(range(len(segments)))
        for rise, run, members in groups:
            assert members == sorted(members)
            assert {F(*segments[i]) for i in members} == {F(rise, run)}
            assert (rise, run) == tuple(map(sum, zip(*(segments[i] for i in members))))
        assert tuple((rise, run) for rise, run, _ in groups) == merge_segments_oracle(segments)

    @given(segment_lists)
    def test_merge_matches_sort_and_sum(self, segments):
        assert merge_segments(segments).segments == merge_segments_oracle(segments)


class TestIntegerEntries:
    """Integer inputs are checked, not truncated: integral values of any
    numeric type pass, anything with a fractional part is refused."""

    CASES = {
        "enumerate_B": (
            enumerate_B, (2, (1.9, 0)), (2, (1.0, F(0))), (2, (1, 0))
        ),
        "check_dominant": (
            weight_multiplicities, (2, (2.7, 0)), (2, (2.0, F(0))), (2, (2, 0))
        ),
        "levi_branching": (
            levi_branching,
            (3, (1, 0, 0), (1.5, 1.5)),
            (3, (1, 0, 0), (2.0, F(1))),
            (3, (1, 0, 0), (2, 1)),
        ),
        "check_chi": (
            LParamShape.from_dims((1, 2)).check_chi, ((0.5, 0),), ((F(1), 0.0),), ((1, 0),)
        ),
        "from_dims": (
            lambda dims: LParamShape.from_dims(dims).dims, ((1.5, 1),), ((1.0, F(1)),), ((1, 1),)
        ),
        "is_minuscule": (is_minuscule, ((1, 0.5),), ((1.0, F(0)),), ((1, 0),)),
    }

    @pytest.mark.parametrize("site", sorted(CASES))
    def test_fractional_rejected_integral_accepted(self, site):
        fn, bad, integral, plain = self.CASES[site]
        with pytest.raises(DomainError, match="is not an integer"):
            fn(*bad)
        assert fn(*integral) == fn(*plain)

    def test_as_int(self):
        assert as_int(F(6, 2), "entry") == 3 and type(as_int(3.0, "entry")) is int
        with pytest.raises(DomainError, match="entry 1/2 is not an integer"):
            as_int(F(1, 2), "entry")


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
        assert parts_of(spec) == ((F(1, 2), 2), (F(0), 3))

    def test_sort_descending(self):
        spec = normalize_bundle([(F(0), 2), (F(1), 1)])
        assert parts_of(spec) == ((F(1), 1), (F(0), 2))

    def test_already_normal(self):
        spec = normalize_bundle([(F(3, 4), 1), (F(1, 3), 1), (F(0), 3)])
        assert parts_of(spec) == ((F(3, 4), 1), (F(1, 3), 1), (F(0), 3))
        assert (spec.rank, spec.deg) == (10, 4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            normalize_bundle([])

    @given(bundle_specs())
    def test_idempotent(self, spec):
        assert normalize_bundle(parts_of(spec)) == spec

    def test_float_slope_rank_over_budget_rejected(self):
        # 0.1 is the binary fraction 3602879701896397/2**55
        with pytest.raises(BudgetError, match=f"bundle rank {2**55} exceeds budget"):
            normalize_bundle([(0.1, 1)])
        assert normalize_bundle([(0.5, 2)]) == parse_bundle("O(1/2)^2")

    def test_rank_over_budget_rejected(self, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "4")
        assert normalize_bundle([(F(1, 2), 1), (F(0), 2)]).rank == 4
        with pytest.raises(BudgetError, match="bundle rank 5 exceeds budget of 4"):
            normalize_bundle([(F(1, 5), 1)])
        with pytest.raises(BudgetError, match="bundle rank 5 exceeds budget of 4"):
            bundle((1, 2, 2), (0, 1, 1))

    @given(bundle_specs(), bundle_specs())
    def test_rank_degree_additive(self, a, b):
        s = normalize_bundle(parts_of(a) + parts_of(b))
        assert s.rank == a.rank + b.rank
        assert s.deg == a.deg + b.deg


class TestRejections:
    """Input checks that no other test reaches, each named by its message."""

    CASES = {
        "normalize-multiplicity": (
            lambda: normalize_bundle([(F(1), 0)]), DomainError, "multiplicity must be >= 1, got 0"
        ),
        "dominant-length": (
            lambda: check_dominant((1, 0), 3), DomainError, "weight must have length 3, got 2"
        ),
        "rho-unsorted": (
            lambda: rho_pairing([(F(0), 1), (F(1), 1)]),
            DomainError,
            "slope classes must be strictly decreasing",
        ),
        "rho-count": (
            lambda: rho_pairing([(F(1), 0)]), DomainError, "class count must be >= 1, got 0"
        ),
        "parse-empty": (lambda: parse_bundle(""), ParseError, "empty bundle expression"),
        "parse-zero-power": (
            lambda: parse_bundle("O^0"), ParseError, "zero multiplicity at position 0"
        ),
        "parse-missing-plus": (
            lambda: parse_bundle("O(1)O"), ParseError, r"expected '\+' at position 4: 'O'"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_its_message(self, case):
        call, error, message = self.CASES[case]
        with pytest.raises(error, match=message):
            call()


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
        assert hn_polygon(parse_bundle("O(1/2)^2")) == ((0, 0), (4, 2))

    def test_two_segments(self):
        assert hn_polygon(parse_bundle("O(1)+O")) == ((0, 0), (1, 1), (2, 1))

    def test_three_segments(self):
        p = hn_polygon(parse_bundle("O(3/4)+O(1/3)+O^3"))
        assert p == ((0, 0), (4, 3), (7, 4), (10, 4))

    @given(bundle_specs())
    def test_endpoint_and_lattice_breakpoints(self, spec):
        p = hn_polygon(spec)
        assert p[-1] == (spec.rank, spec.deg)
        for x, y in p:
            assert type(x) is int and type(y) is int

    def test_lies_above(self):
        # O(1/2) runs (0,0)-(2,1), O^2 runs (0,0)-(2,0): tops at x = 0, 1, 2
        big = lattice_tops([(1, 2)])
        small = lattice_tops([(0, 2)])
        assert big == (0, 0, 1)
        assert small == (0, 0, 0)
        assert all(map(le, small, big)) and not all(map(le, big, small))

    def test_tops_floor_below_zero(self):
        assert lattice_tops([(-1, 2), (-3, 1)]) == (0, -1, -1, -4)
        assert lattice_tops([(3, 4), (1, 3), (0, 3)]) == (0, 0, 1, 2, 3, 3, 3, 4, 4, 4, 4)


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
        v = rho_pairing(slope_classes_of(spec))
        assert v >= 0
        assert (v == 0) == (len(parts_of(spec)) == 1)

    @given(bundle_specs(), st.integers(-3, 3))
    def test_invariant_under_central_twist(self, spec, a):
        twisted = normalize_bundle((s + a, m) for s, m in parts_of(spec))
        assert rho_pairing(slope_classes_of(twisted)) == rho_pairing(slope_classes_of(spec))

    @given(bundle_specs())
    def test_equals_segment_pairing(self, spec):
        segments = [(m * s.numerator, m * s.denominator) for s, m in parts_of(spec)]
        assert rho_pairing(slope_classes_of(spec)) == segment_pairing(segments)

    def test_segment_pairing_unit_runs(self):
        # sum_{i<j} (v_i - v_j) for v = (3, 1, 0)
        assert segment_pairing([(3, 1), (1, 1), (0, 1)]) == 2 + 3 + 1

    def test_flagged_instance_reports_formula_value(self):
        e = parse_bundle("O(3/2)+O(1/2)+O(1/3)+O^3")
        assert rho_pairing(slope_classes_of(e)) == 27
        note = pairing_note(e.segments)
        assert note is not None and "26" in note and "27" in note

    def test_unflagged_instance_has_no_note(self):
        assert pairing_note(parse_bundle("O(1)+O").segments) is None


class TestGrammar:
    def test_worked_bundle(self):
        e = parse_bundle("O(3/4)+O(1/3)+O^3")
        assert parts_of(e) == ((F(3, 4), 1), (F(1, 3), 1), (F(0), 3))

    def test_trivial_power(self):
        assert parts_of(parse_bundle("O^4")) == ((F(0), 4),)

    def test_whitespace_insensitive(self):
        assert parse_bundle(" O(3/4) + O( 1/3) +O^3 ".replace("( 1", "(1")) == parse_bundle(
            "O(3/4)+O(1/3)+O^3"
        )

    def test_negative_slopes(self):
        e = parse_bundle("O(-1)+O(-1/2)^2")
        assert parts_of(e) == ((F(-1, 2), 2), (F(-1), 1))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_bundle("O(1/2)+X")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_bundle("O(1/0)")

    def test_rank_over_budget_rejected(self, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "4")
        assert parse_bundle("O(1/2)+O^2").rank == 4
        for text, rank in [("O(1/5)", 5), ("O(1/2)^2+O", 5), ("O^99999999999", 99999999999)]:
            with pytest.raises(BudgetError, match=f"bundle rank {rank} exceeds budget of 4"):
                parse_bundle(text)

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


class TestSegments:
    """A bundle is stored as its integer HN segments (deg, rank); its Fraction
    forms are views, checked against Fraction-built oracles on every bundle of
    rank <= 6 with slopes in [-2, 2]."""

    def test_stores_one_segment_per_class(self):
        e = parse_bundle("O(3/4)+O(1/2)^3+O^3")
        assert e.segments == ((3, 4), (3, 6), (0, 3))
        assert parts_of(e) == ((F(3, 4), 1), (F(1, 2), 3), (F(0), 3))
        assert slope_classes_of(e) == ((F(3, 4), 4), (F(1, 2), 6), (F(0), 3))

    @pytest.mark.parametrize(
        "segments,message",
        [
            ((), "at least one slope class"),
            (((F(1), 1),), "not a pair of integers"),
            (((1, 0),), "class count must be >= 1"),
            (((1, 2), (2, 4)), "strictly decreasing"),
        ],
    )
    def test_checked_as_newton_points_are(self, segments, message):
        with pytest.raises(DomainError, match=message):
            BundleSpec(segments)

    def test_views_match_fraction_oracles(self):
        for e in small_bundles():
            assert normalize_bundle(parts_of(e)) == e, e
            assert b_to_bundle(bundle_to_b(e)) == e, e
            assert parse_bundle(format_bundle(e)) == e, e
            assert hn_polygon(e) == hn_polygon_oracle(e), e

    def test_split_matches_fraction_oracle(self):
        for e in small_bundles():
            for m in range(-1, e.rank + 2):
                assert _split_at(e, m) == split_at_oracle(e, m), (e, m)

    def test_integer_paths_build_no_fraction(self):
        e = parse_bundle("O(3/2)+O(1/2)^2+O(1/3)+O^3")
        b = bundle_to_b(e)
        shape = LParamShape.from_dims((1, 2, 2))
        flat, one = parse_bundle("O^5"), parse_bundle("O(1/5)")
        points = enumerate_B(6, (2, 1, 1, 0, 0, -1))
        calls = {
            "bundle_to_b": lambda: bundle_to_b(e),
            "b_to_bundle": lambda: b_to_bundle(b),
            "chi_to_bundle": lambda: chi_to_bundle(shape, (3, 1, -2)),
            "_split_at": lambda: [_split_at(e, m) for m in range(e.rank + 1)],
            "modification_necessary": lambda: [
                modification_necessary(flat, one, (1, 0, 0, 0, 0)),
                modification_necessary(one, flat, (0, 0, 0, 0, -1)),
            ],
            "modification_targets_rank_one": lambda: modification_targets_rank_one(7, 2),
            "point_json": lambda: [point_json(p) for p in points],
        }
        assert {name: fractions_built(call) for name, call in calls.items()} == dict.fromkeys(
            calls, 0
        )
