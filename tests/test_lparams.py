from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunncalc import (
    BudgetError,
    DomainError,
    automorphism_group,
    b_to_chis,
    bundle_to_b,
    chi_id,
    chi_inv,
    chi_mul,
    chi_to_bundle,
    chi_to_rep,
    component_shape,
    enumerate_B,
    hecke,
    make_F,
    parse_bundle,
    point_from_vector,
)
from bunncalc.lparams import (
    LParamShape,
    RepSymbol,
    SheafSymbol,
    character_of_rep,
    character_of_sheaf,
    count_chis,
)
from conftest import all_compositions, shape_and_chi, unreachable_after
from oracles import chi_to_rep_oracle

F = Fraction


def bundle_slope_classes(rep):
    """(bundle slope, members) per class: the stratum's segments negated, in reverse."""
    return tuple(
        (F(-rise, run), members)
        for (rise, run), members in zip(reversed(rep.stratum.segments), rep.members)
    )


def multinomial(parts):
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


class TestShape:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            LParamShape.from_dims((1, 2), labels=("a", "a"))

    def test_from_dims(self):
        shape = LParamShape.from_dims((4, 1))
        assert shape.n == 5 and shape.r == 2
        assert shape.labels == ("phi1", "phi2")

    @pytest.mark.parametrize(
        "labels,torsion",
        [(None, (1,)), (None, (1, 1, 1)), (("a",), None), (("a", "b", "c"), (1, 1))],
    )
    def test_from_dims_length_mismatch_rejected(self, labels, torsion):
        with pytest.raises(DomainError, match="2 dims"):
            LParamShape.from_dims((2, 3), labels=labels, torsion=torsion)

    def test_columns(self):
        shape = LParamShape.from_dims([2, 1], labels=["a", "b"], torsion=[3, 1])
        assert shape == LParamShape((2, 1), ("a", "b"), (3, 1))
        assert (shape.dims, shape.labels, shape.torsion) == ((2, 1), ("a", "b"), (3, 1))

    def test_fractional_dim_rejected(self):
        # a rank of 2.5 would reach make_F as a TypeError
        with pytest.raises(DomainError, match="component dimension 1.5 is not an integer"):
            LParamShape((1.5, 1), ("a", "b"), (1, 1))

    def test_non_string_labels_rejected(self):
        # describe would join them with a TypeError
        with pytest.raises(DomainError, match="component label 1 is not a string"):
            LParamShape.from_dims((1, 2), labels=(1, 2))

    @pytest.mark.parametrize("torsion", [(1.5,), ("2",)])
    def test_non_integer_torsion_rejected(self, torsion):
        with pytest.raises(DomainError, match="torsion number"):
            LParamShape.from_dims((1,), torsion=torsion)
        with pytest.raises(DomainError, match="torsion number .* is not an integer"):
            LParamShape((1,), ("a",), torsion)

    @pytest.mark.parametrize(
        "dims, torsion, message",
        [
            ((True, 2), (1, 1), "component dimension True"),
            ((1, 2), (1, False), "torsion number False"),
        ],
    )
    def test_bool_columns_rejected(self, dims, torsion, message):
        # a stored True would hash as 1 and share chi_to_rep's memo entries
        with pytest.raises(DomainError, match=f"{message} is not an integer"):
            LParamShape(dims, ("a", "b"), torsion)

    @pytest.mark.parametrize(
        "dims,torsion,message",
        [
            (("x",), None, "dimension 'x' is not an integer"),
            ((None,), None, "dimension None is not an integer"),
            ((1,), ("2",), "torsion number '2' is not an integer"),
        ],
    )
    def test_unreadable_values_named_by_repr(self, dims, torsion, message):
        with pytest.raises(DomainError, match=message):
            LParamShape.from_dims(dims, torsion=torsion)

    def test_list_columns_rejected(self):
        # a list column would pass every other check and make the shape unhashable
        for columns in (([1], ("a",), (1,)), ((1,), ["a"], (1,)), ((1,), ("a",), [1])):
            with pytest.raises(DomainError, match="must be tuples"):
                LParamShape(*columns)

    @pytest.mark.parametrize("dims,torsion", [((0,), (1,)), ((1,), (0,))])
    def test_values_below_one_rejected(self, dims, torsion):
        with pytest.raises(DomainError, match="must be >= 1, got 0"):
            LParamShape(dims, ("a",), torsion)

    def test_rank_equal_to_budget_accepted(self, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "5")
        assert LParamShape.from_dims((2, 3)).n == 5
        with pytest.raises(BudgetError, match="shape rank 6 exceeds budget of 5"):
            LParamShape.from_dims((3, 3))

    def test_empty_shape_rejected(self):
        with pytest.raises(DomainError, match="at least one component"):
            LParamShape((), (), ())


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


class TestAgainstFractionOracle:
    """The integer slope grouping against one Fraction slope per component
    merged through normalize_bundle."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_character(self, n):
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            # entries -4..4 for four or five components would take about ten
            # seconds; -2..2 already merges equal slopes across them
            bound = 4 if shape.r <= 3 else 2
            for chi in product(range(-bound, bound + 1), repeat=shape.r):
                assert chi_to_rep(shape, chi) == chi_to_rep_oracle(shape, chi)

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2), (2, 4, 1), (1, 3, 2), (3, 6, 3)])
    def test_equal_slopes_across_unequal_dims(self, dims):
        shape = LParamShape.from_dims(dims)
        for chi in product(range(-4, 5), repeat=shape.r):
            assert chi_to_rep(shape, chi) == chi_to_rep_oracle(shape, chi)

    @pytest.mark.parametrize(
        "chi, segments",
        [((1, 2), ((-3, 6),)), ((-1, -2), ((3, 6),)), ((0, 0), ((0, 6),))],
    )
    def test_one_class_sums_both_components(self, chi, segments):
        # slopes 1/2, -1/2 and 0 on dimensions 2 and 4 are one class each
        rep = chi_to_rep(LParamShape.from_dims((2, 4)), chi)
        assert rep.stratum.segments == segments
        assert rep.members == ((0, 1),)


class TestRepAndSheaf:
    def test_identity_rep(self):
        shape = LParamShape.from_dims((2, 2))
        sheaf = make_F(shape, (0, 0))
        assert sheaf.stratum == bundle_to_b(parse_bundle("O^4"))
        assert sheaf.shift == 0
        assert bundle_slope_classes(sheaf.rep) == ((F(0), (0, 1)),)
        assert sheaf.modulus_half_exponent == F(-1, 2)
        assert sheaf.tate_twist == 0

    def test_mixed_classes(self):
        shape = LParamShape.from_dims((4, 1))
        rep = chi_to_rep(shape, (2, 0))
        assert rep.stratum == bundle_to_b(parse_bundle("O(1/2)^2+O"))
        assert bundle_slope_classes(rep) == (
            (F(1, 2), (0,)),
            (F(0), (1,)),
        )
        assert make_F(shape, (2, 0)).shift == -2

    def test_equal_ratios_merge(self):
        shape = LParamShape.from_dims((2, 1))
        rep = chi_to_rep(shape, (2, 1))
        assert bundle_slope_classes(rep) == ((F(1), (0, 1)),)

    @pytest.mark.parametrize("r", range(1, 4))
    def test_group_is_that_of_the_character_bundle(self, r):
        for dims in product(range(1, 4), repeat=r):
            shape = LParamShape.from_dims(dims)
            for chi in product(range(-3, 4), repeat=r):
                rep = chi_to_rep(shape, chi)
                assert rep.group == automorphism_group(chi_to_bundle(shape, chi))
                assert make_F(shape, chi).stratum == rep.stratum

    @given(shape_and_chi())
    def test_character_recovery(self, data):
        shape, chi = data
        assert character_of_rep(shape, chi_to_rep(shape, chi)) == chi
        assert character_of_sheaf(shape, make_F(shape, chi)) == chi

    def test_partition_missing_a_component_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        rep = RepSymbol(point_from_vector((0, 0)), ((0,),))
        with pytest.raises(DomainError, match="does not cover all components"):
            character_of_rep(shape, rep)

    def test_malformed_sheaf_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        rep = make_F(shape, (1, 0)).rep
        for stratum, members in (
            # component 0 in both classes
            (rep.stratum, ((0,), (0,))),
            # slope 1/2 is not integral on a component of dimension 1
            (point_from_vector((F(-1, 2), F(-1, 2))), ((0, 1),)),
            # a stratum of rank 3 for a shape of rank 2
            (point_from_vector((0, 0, 0)), ((0, 1),)),
        ):
            with pytest.raises(DomainError):
                character_of_sheaf(shape, SheafSymbol(RepSymbol(stratum, members)))

    @pytest.mark.parametrize("dims, component", [((2, 1), 2), ((1, 2), 1)])
    def test_non_integral_slope_names_its_component(self, dims, component):
        # slope 1/2 on one class of rank 4 is integral on the dimension-2
        # component only
        rep = RepSymbol(point_from_vector((F(-1, 2),) * 4), ((0, 1),))
        message = f"slope 1/2 is not integral on component {component}$"
        with pytest.raises(DomainError, match=message):
            character_of_rep(LParamShape.from_dims(dims), rep)

    def test_members_match_slope_classes(self):
        rep = chi_to_rep(LParamShape.from_dims((1, 1)), (1, 0))
        with pytest.raises(DomainError, match="one member tuple per slope class"):
            RepSymbol(rep.stratum, rep.members[:1])

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

    def test_search_nodes_charged_before_output(self, monkeypatch):
        # 11! characters: the budget trips on the pushed placements, long
        # before the first character would have been emitted
        monkeypatch.setenv("BUNNCALC_BUDGET", "1000")
        shape = LParamShape.from_dims((1,) * 11)
        b = bundle_to_b(parse_bundle("+".join(f"O({d})" for d in range(1, 12))))
        with pytest.raises(BudgetError, match="1001 search nodes exceed budget of 1000"):
            b_to_chis(shape, b)

    def test_budget_equal_to_node_count_accepted(self, monkeypatch):
        # four unit components on four distinct slopes: 4 + 4*3 + 4*3*2 + 4!
        # = 64 pushed nodes, the last 24 of them the characters
        shape = LParamShape.from_dims((1, 1, 1, 1))
        b = bundle_to_b(parse_bundle("O(2)+O(1)+O+O(-1)"))
        monkeypatch.setenv("BUNNCALC_BUDGET", "64")
        assert len(b_to_chis(shape, b)) == 24
        monkeypatch.setenv("BUNNCALC_BUDGET", "63")
        with pytest.raises(BudgetError, match="64 search nodes exceed budget of 63"):
            b_to_chis(shape, b)

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

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_fiber_of_small_characters(self, n):
        # chi_to_rep groups characters without the box.  A stratum reached
        # from |d_i| <= 2 * n_i has its slopes in [-2, 2], so each of its
        # characters is in that range too and each group is a whole fiber.
        for dims in all_compositions(n, max_parts=4):
            shape = LParamShape.from_dims(dims)
            fibers: dict = {}
            for chi in product(*(range(-2 * ni, 2 * ni + 1) for ni in dims)):
                fibers.setdefault(chi_to_rep(shape, chi).stratum, []).append(chi)
            for b, chis in fibers.items():
                assert b_to_chis(shape, b) == sorted(chis)


class TestCountChis:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_listing(self, n):
        # every stratum of a few Newton sets, against every composition of n
        mus = {(1,) + (0,) * (n - 1), (n,) + (0,) * (n - 1), (2, 1, 1, 0, 0, 0)[:n]}
        strata = {b for mu in mus for b in enumerate_B(n, mu)}
        empty = 0
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            for b in strata:
                count, _ = count_chis(shape, b)
                assert count == len(b_to_chis(shape, b))
                empty += not count
        # rank 1 has one stratum and one component, whose slope is integral
        assert empty or n == 1

    def test_counts_what_the_listing_refuses(self, monkeypatch):
        # 11! characters on eleven distinct slopes, one state per set of
        # placed slopes
        monkeypatch.delenv("BUNNCALC_BUDGET", raising=False)
        shape = LParamShape.from_dims((1,) * 11)
        b = bundle_to_b(parse_bundle("+".join(f"O({d})" for d in range(1, 12))))
        assert count_chis(shape, b) == (factorial(11), 2**11 - 1)

    def test_budget_equal_to_state_count_accepted(self, monkeypatch):
        # four unit components on four distinct slopes: 4 + 6 + 4 + 1 = 15
        # states, one per set of filled segments, for 24 characters
        shape = LParamShape.from_dims((1, 1, 1, 1))
        b = bundle_to_b(parse_bundle("O(2)+O(1)+O+O(-1)"))
        monkeypatch.setenv("BUNNCALC_BUDGET", "15")
        assert count_chis(shape, b) == (24, 15)
        monkeypatch.setenv("BUNNCALC_BUDGET", "14")
        with pytest.raises(BudgetError, match="^15 count states exceed budget of 14$"):
            count_chis(shape, b)

    def test_deep_shape_needs_no_recursion(self):
        # one layer per component, far past the default recursion limit
        r = 3000
        shape = LParamShape.from_dims((1,) * r)
        assert count_chis(shape, bundle_to_b(parse_bundle(f"O^{r}"))) == (1, r)


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="character length mismatch: 1 vs 2"):
            chi_mul((1,), (1, 2))


class TestRepMemo:
    """chi_to_rep reads one bounded memo keyed by (dims, chi)."""

    @pytest.mark.parametrize("r", range(1, 4))
    def test_cold_and_warm_match_the_oracle(self, r):
        for dims in product(range(1, 4), repeat=r):
            shape = LParamShape.from_dims(dims)
            chis = list(product(range(-3, 4), repeat=r))
            expected = [chi_to_rep_oracle(shape, chi) for chi in chis]
            chi_to_rep.cache_clear()
            assert [chi_to_rep(shape, chi) for chi in chis] == expected
            cold = chi_to_rep.cache_info()
            assert (cold.hits, cold.misses) == (0, len(chis))
            assert [chi_to_rep(shape, chi) for chi in chis] == expected
            warm = chi_to_rep.cache_info()
            assert (warm.hits, warm.misses) == (len(chis), len(chis))

    def test_labels_share_an_entry_and_describe_their_own(self):
        first = LParamShape.from_dims((2, 1), labels=("a", "b"))
        second = LParamShape((2, 1), ("x", "y"), (3, 1))
        chi_to_rep.cache_clear()
        rep = chi_to_rep(first, (2, 0))
        assert chi_to_rep(second, (2, 0)) is rep
        info = chi_to_rep.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert rep.describe(first) == "pi[a]@1 ⊠ pi[b]@0"
        assert rep.describe(second) == "pi[x]@1 ⊠ pi[y]@0"

    @pytest.mark.parametrize("chi", [(1,), (1, 0, 0), (F(1, 2), 0), (0.5, 0), ("1", 0)])
    def test_refused_character_is_not_stored(self, chi):
        shape = LParamShape.from_dims((2, 1))
        with pytest.raises(DomainError) as checked:
            shape.check_chi(chi)
        before = chi_to_rep.cache_info()
        with pytest.raises(DomainError) as refused:
            chi_to_rep(shape, chi)
        assert str(refused.value) == str(checked.value)
        assert chi_to_rep.cache_info() == before

    def test_memo_is_bounded(self):
        maxsize = chi_to_rep.cache_info().maxsize
        assert maxsize == 4096
        shape = LParamShape.from_dims((1,))
        chi_to_rep.cache_clear()
        for d in range(maxsize + 1):
            chi_to_rep(shape, (d,))
        info = chi_to_rep.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 1, maxsize)

    def test_second_hecke_adds_no_miss(self):
        shape = LParamShape.from_dims((1, 2, 2))
        lam = (3, 1, 0, 0, 0)
        source = make_F(shape, (1, 0, 2))
        chi_to_rep.cache_clear()
        first = hecke(shape, lam, source)
        misses = chi_to_rep.cache_info().misses
        assert misses > 0
        assert hecke(shape, lam, source) == first
        assert chi_to_rep.cache_info().misses == misses
