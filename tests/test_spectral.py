from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunncalc import (
    BudgetError,
    BundleSpec,
    DomainError,
    HeckeDecomposition,
    b_to_chis,
    bundle_to_b,
    chi_id,
    chi_inv,
    chi_mul,
    d_point,
    eigensheaf_stalk,
    hecke,
    igusa_cohomology,
    leq,
    make_F,
    mantovan_pieces,
    parse_bundle,
    point_from_vector,
    shtuka_cohomology,
    sigma_chi,
    spectral_act,
    stalk,
    verify_eigen,
    weyl_dim,
)
import bunncalc.kottwitz as kottwitz
import bunncalc.spectral as spectral
import bunncalc.weights as weights
import oracles
from bunncalc.bundles import enumeration_budget
from bunncalc.cli import main
from bunncalc.lparams import LParamShape, RepSymbol, SheafSymbol, chi_to_rep
from bunncalc.spectral import hecke_stalk
from bunncalc.weights import dual_weight
from conftest import all_compositions, normalized_weights, shape_and_chi
from oracles import hecke_oracle, verify_eigen_oracle, verify_eigen_window_oracle

F = Fraction


def small_chis(r, bound=2):
    return st.tuples(*[st.integers(-bound, bound) for _ in range(r)])


RANK_MESSAGE = "rank mismatch: stratum has rank 3, expected 2"

# every entry point that takes a stratum, given a rank-3 stratum b on rank-2 input
RANK_CALLS = {
    "leq": lambda shape, b: leq(b, point_from_vector((0, 0))),
    "b_to_chis": b_to_chis,
    "eigensheaf_stalk": eigensheaf_stalk,
    "stalk": lambda shape, b: stalk(hecke(shape, (1, 0), make_F(shape, (0, 0))), b),
    "hecke_stalk": lambda shape, b: hecke_stalk(shape, (1, 0), (0, 0), b),
    "verify_eigen": lambda shape, b: verify_eigen(shape, (1, 0), [b]),
    "shtuka_cohomology": lambda shape, b: shtuka_cohomology(shape, (0, 0), b, (1, 0)),
    "igusa_cohomology": lambda shape, b: igusa_cohomology(shape, (1, 0), b),
    "mantovan_pieces": lambda shape, b: mantovan_pieces(shape, (1, 0), b),
}


@pytest.mark.parametrize("call", RANK_CALLS.values(), ids=RANK_CALLS.keys())
def test_one_rank_message(call):
    shape = LParamShape.from_dims((1, 1))
    with pytest.raises(DomainError) as exc:
        call(shape, point_from_vector((0, 0, 0)))
    assert str(exc.value) == RANK_MESSAGE


class TestSpectralAct:
    def test_identity_fixes(self):
        shape = LParamShape.from_dims((2, 1))
        f = make_F(shape, (1, 2))
        assert spectral_act(shape, chi_id(2), f) == f

    def test_inverse_cancels(self):
        shape = LParamShape.from_dims((1, 1, 2))
        f = make_F(shape, (1, 0, 2))
        chi = (2, -1, 1)
        assert spectral_act(shape, chi_inv(chi), spectral_act(shape, chi, f)) == f

    def test_translation_onto_new_stratum(self):
        shape = LParamShape.from_dims((1, 1))
        out = spectral_act(shape, (1, 0), make_F(shape, (0, 0)))
        assert out.stratum == bundle_to_b(parse_bundle("O(1)+O"))
        assert out.shift == -1

    def test_malformed_symbol_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        for stratum, members in (
            # a one-class stratum with two member tuples
            (point_from_vector((-1, -1)), ((0,), (1,))),
            # slope 1/2 is not integral on a component of dimension 1
            (point_from_vector((F(-1, 2), F(-1, 2))), ((0, 1),)),
            # the members of (1, 0) on a stratum of rank 3
            (point_from_vector((0, 0, -1)), ((0,), (1,))),
        ):
            with pytest.raises(DomainError):
                spectral_act(shape, (0, 1), SheafSymbol(RepSymbol(stratum, members)))

    @given(shape_and_chi(max_r=3, max_dim=3, max_d=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_group_action_law(self, data, draw):
        shape, xi = data
        chi = draw.draw(small_chis(shape.r))
        chi2 = draw.draw(small_chis(shape.r))
        f = make_F(shape, xi)
        stepwise = spectral_act(shape, chi, spectral_act(shape, chi2, f))
        assert stepwise == spectral_act(shape, chi_mul(chi, chi2), f)


class TestHecke:
    def test_standard_weight(self):
        shape = LParamShape.from_dims((2, 3))
        dec = hecke(shape, (1, 0, 0, 0, 0), make_F(shape, chi_id(2)))
        assert len(dec.terms) == 2
        strata = {chi: sheaf.stratum for chi, sheaf, _ in dec.terms}
        assert strata[(1, 0)] == bundle_to_b(parse_bundle("O(1/2)+O^3"))
        assert strata[(0, 1)] == bundle_to_b(parse_bundle("O(1/3)+O^2"))
        dims = {chi: sym.dim for chi, sheaf, sym in dec.terms}
        assert dims == {(1, 0): 2, (0, 1): 3}

    def test_trivial_weight(self):
        shape = LParamShape.from_dims((2, 1))
        f = make_F(shape, (1, 1))
        dec = hecke(shape, (0, 0, 0), f)
        assert len(dec.terms) == 1
        chi, sheaf, sym = dec.terms[0]
        assert chi == (0, 0) and sheaf == f and sym.dim == 1

    def test_sym3_four_terms(self):
        shape = LParamShape.from_dims((1, 1))
        dec = hecke(shape, (3, 0), make_F(shape, chi_id(2)))
        assert [chi for chi, _, _ in dec.terms] == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert all(sym.dim == 1 for _, _, sym in dec.terms)

    def test_repeated_character_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        dec = hecke(shape, (1, 0), make_F(shape, chi_id(2)))
        with pytest.raises(DomainError):
            HeckeDecomposition(dec.weight, dec.source, dec.terms[:1] * 2)

    @pytest.mark.parametrize(
        "dims,lam",
        [((1, 1), (3, 0)), ((2, 2), (1, 1, 0, 0)), ((3, 2), (1, 0, 0, 0, 0))],
    )
    def test_dimension_conservation(self, dims, lam):
        shape = LParamShape.from_dims(dims)
        dec = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
        assert dec.total_dim == weyl_dim(lam, shape.n)

    @given(shape_and_chi(max_r=3, max_dim=3, max_d=2))
    @settings(max_examples=60, deadline=None)
    def test_every_sheaf_satisfies_shift_invariant(self, data):
        from hypothesis import assume

        shape, xi = data
        assume(shape.n <= 8)
        dec = hecke(shape, (1,) + (0,) * (shape.n - 1), make_F(shape, xi))
        for _, sheaf, _ in dec.terms:
            assert sheaf.shift == -d_point(sheaf.stratum)
            assert sheaf.tate_twist == 0


class TestAgainstSliceOracle:
    """The one-pass grouping by character against the oracle's filter over
    every branching term per character."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_weight_and_block_split(self, n):
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            f = make_F(shape, chi_id(shape.r))
            for lam in normalized_weights(n, 4):
                for shift in (0, -2):
                    lam_s = tuple(x + shift for x in lam)
                    assert hecke(shape, lam_s, f) == hecke_oracle(shape, lam_s, f)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_source(self, n):
        lam = (1,) + (0,) * (n - 1)
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            # entries -2..2 for four or five components would take about
            # ten seconds; the source only enters through the translation
            bound = 2 if shape.r <= 3 else 1
            for xi in product(range(-bound, bound + 1), repeat=shape.r):
                f = make_F(shape, xi)
                assert hecke(shape, lam, f) == hecke_oracle(shape, lam, f)


class TestStalk:
    def test_unreachable_stratum_empty(self):
        shape = LParamShape.from_dims((1, 1))
        dec = hecke(shape, (1, 0), make_F(shape, chi_id(2)))
        assert stalk(dec, bundle_to_b(parse_bundle("O(5)+O"))) == []

    def test_rank_mismatch_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        dec = hecke(shape, (3, 0), make_F(shape, chi_id(2)))
        with pytest.raises(DomainError, match="rank 3"):
            stalk(dec, bundle_to_b(parse_bundle("O^3")))

    def test_trivial_stratum_of_standard_needs_dual(self):
        shape = LParamShape.from_dims((1, 1))
        triv = bundle_to_b(parse_bundle("O^2"))
        f1 = make_F(shape, (1, 0))
        fwd = hecke(shape, (1, 0), f1)
        assert stalk(fwd, triv) == []
        bwd = hecke(shape, (0, -1), f1)
        picked = stalk(bwd, triv)
        assert len(picked) == 1
        sheaf, sym = picked[0]
        assert sheaf == make_F(shape, chi_id(2))
        assert sym.terms == ((((-1,), (0,)), 1),)

    def test_shared_stratum_collects_both_terms(self):
        # chi=(2,1) and chi=(1,2) land on the same stratum; the stalk at it
        # must carry both lines, matching the orbit count of the stratum
        shape = LParamShape.from_dims((1, 1))
        dec = hecke(shape, (3, 0), make_F(shape, chi_id(2)))
        b = bundle_to_b(parse_bundle("O(2)+O(1)"))
        picked = stalk(dec, b)
        sigmas = sorted(sym.terms for _, sym in picked)
        assert sigmas == [((((1,), (2,)), 1),), ((((2,), (1,)), 1),)]


class TestHeckeStalk:
    """hecke_stalk builds symbols only for the terms on b, and equals the
    stalk of the whole decomposition."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_weight_stratum_and_central_source(self, n):
        for dims in all_compositions(n, max_parts=4):
            shape = LParamShape.from_dims(dims)
            for lam in normalized_weights(n, 4):
                for weight in (lam, dual_weight(lam)):
                    for c in (0, 1):
                        xi = tuple(c * ni for ni in dims)
                        f = make_F(shape, xi)
                        # every term lies under dual_weight(weight), and the
                        # central source c * dims shifts it by -c; the points
                        # under that top hold the support and strata it misses
                        top = tuple(x - c for x in dual_weight(weight))
                        strata = kottwitz.enumerate_B(n, top)
                        if sum(x - weight[-1] for x in weight) > weights.MAX_WEIGHT_SIZE:
                            # the dual of (4,0,0,0,0) has normalized size 16
                            for operator in (hecke, hecke_oracle):
                                with pytest.raises(BudgetError):
                                    operator(shape, weight, f)
                            with pytest.raises(BudgetError):
                                hecke_stalk(shape, weight, xi, strata[0])
                            continue
                        dec = hecke(shape, weight, f)
                        oracle = hecke_oracle(shape, weight, f)
                        found = 0
                        for b in strata:
                            got = hecke_stalk(shape, weight, xi, b)
                            assert got == stalk(dec, b)
                            assert got == [(s, w) for _, s, w in oracle.terms if s.stratum == b]
                            found += len(got)
                        # the strata walked hold the whole support
                        assert found == len(dec.terms)

    @given(shape_and_chi(max_r=4, max_dim=2, max_d=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_stalk_of_hecke(self, data, draw):
        shape, xi = data
        weights_in_budget = [
            w
            for lam in normalized_weights(shape.n, 3)
            for w in (lam, dual_weight(lam))
            if sum(x - w[-1] for x in w) <= weights.MAX_WEIGHT_SIZE
        ]
        weight = draw.draw(st.sampled_from(weights_in_budget))
        target = draw.draw(small_chis(shape.r, 4))
        b = chi_to_rep(shape, target).stratum
        assert hecke_stalk(shape, weight, xi, b) == stalk(hecke(shape, weight, make_F(shape, xi)), b)

    def test_box_miss_builds_no_symbol(self, monkeypatch):
        # (2,2) is in the box of (-1,-2) but lies on O(2)^2
        shape = LParamShape.from_dims((1, 1))
        b = bundle_to_b(parse_bundle("O(2)+O(1)"))
        built = []
        monkeypatch.setattr(spectral, "make_F", lambda *args: built.append(args))
        assert hecke_stalk(shape, (4, 0), chi_id(2), b) == []
        assert built == []

    def test_errors_in_hecke_then_stalk_order(self):
        shape = LParamShape.from_dims((1, 1))
        wrong_rank = bundle_to_b(parse_bundle("O^3"))
        with pytest.raises(DomainError, match="not dominant"):
            hecke_stalk(shape, (0, 3), (0, 0, 0), wrong_rank)
        with pytest.raises(DomainError, match="character length 3"):
            hecke_stalk(shape, (3, 0), (0, 0, 0), wrong_rank)
        with pytest.raises(DomainError, match=RANK_MESSAGE):
            hecke_stalk(shape, (3, 0), (0, 0), wrong_rank)
        # hecke's branching budget comes before stalk's rank check
        with pytest.raises(BudgetError):
            hecke_stalk(shape, (weights.MAX_WEIGHT_SIZE + 1, 0), (0, 0), wrong_rank)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hecke", "--dims", "1,1", "--lambda", "0,3", "--xi", "0,0", "--stalk", "junk"],
             "error: weight (0, 3) is not dominant (weakly decreasing)\n"),
            (["spectral", "stalk", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0,0",
              "--stalk", "junk"],
             "error: character length 3 does not match 2 components\n"),
            (["spectral", "stalk", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0",
              "--stalk", "O^3"],
             f"error: {RANK_MESSAGE}\n"),
        ],
        ids=["weight-before-stratum", "character-length", "stratum-rank"],
    )
    def test_cli_error_precedence(self, argv, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == message


class TestEigensheaf:
    def test_orbit_count(self):
        shape = LParamShape.from_dims((1, 1, 1))
        b = bundle_to_b(parse_bundle("O(1)^2+O"))
        st_ = eigensheaf_stalk(shape, b)
        assert st_.count == factorial(3) // (factorial(2) * factorial(1))

    def test_unreachable_stratum_empty(self):
        shape = LParamShape.from_dims((2, 2))
        b = bundle_to_b(parse_bundle("O(1/3)+O"))
        assert eigensheaf_stalk(shape, b).count == 0

    def test_pieces_are_canonical_symbols(self):
        shape = LParamShape.from_dims((1, 2))
        b = bundle_to_b(parse_bundle("O(1)+O^2"))
        st_ = eigensheaf_stalk(shape, b)
        assert st_.pieces == (make_F(shape, (1, 0)),)

    def test_verify_eigen_standard(self):
        shape = LParamShape.from_dims((2, 1))
        strata = [bundle_to_b(parse_bundle("O^3"))] + [
            bundle_to_b(parse_bundle("O(1/2)+O")),
            bundle_to_b(parse_bundle("O(1)+O^2")),
        ]
        assert verify_eigen(shape, (1, 0, 0), strata)

    def test_verify_eigen_exterior_square(self):
        shape = LParamShape.from_dims((1, 1, 1))
        strata = [
            bundle_to_b(parse_bundle("O^3")),
            bundle_to_b(parse_bundle("O(1)^2+O")),
            bundle_to_b(parse_bundle("O(1)+O^2")),
        ]
        assert verify_eigen(shape, (1, 1, 0), strata)


def count_symbols(monkeypatch) -> Counter:
    """Count the symbols spectral builds, by character."""
    built: Counter = Counter()

    def counting_make_F(shape_, chi):
        built[chi] += 1
        return make_F(shape_, chi)

    monkeypatch.setattr(spectral, "make_F", counting_make_F)
    return built


class TestVerifyEigenWork:
    """What one verify_eigen call computes, counted rather than timed."""

    def test_one_symbol_per_character_and_no_slice_filter(self, monkeypatch):
        shape = LParamShape.from_dims((1, 2, 2))
        lam = (3, 1, 0, 0, 0)
        dec = hecke(shape, lam, make_F(shape, chi_id(3)))
        strata = sorted({sheaf.stratum for _, sheaf, _ in dec.terms}, key=str)[:6]
        built: Counter = Counter()
        filtered: Counter = Counter()

        def counting_make_F(shape_, chi):
            built[chi] += 1
            return make_F(shape_, chi)

        def counting_sigma_chi(*args):
            filtered["calls"] += 1
            return sigma_chi(*args)

        monkeypatch.setattr(spectral, "make_F", counting_make_F)
        monkeypatch.setattr(spectral, "sigma_chi", counting_sigma_chi, raising=False)
        monkeypatch.setattr(weights, "sigma_chi", counting_sigma_chi)
        assert verify_eigen(shape, lam, strata)
        # a symbol for each source and each listed character, and for no
        # other product: a box point that hits a source is placed on its
        # stratum through chi_to_rep
        listed = {eta for b in strata for eta in b_to_chis(shape, b)}
        sources = {chi_mul(eta, chi_inv(chi)) for eta in listed for chi, _, _ in dec.terms}
        assert set(built) == sources | listed
        assert max(built.values()) == 1
        built.clear()
        hecke(shape, lam, make_F(shape, (1, 0, -1)))
        assert sum(built.values()) == len(dec.terms)
        assert not filtered

    def test_wrong_translation_fails(self, monkeypatch):
        # (1, 0) gets the symbol of (0, 1), which lies on another stratum; a
        # check that stopped looking at the translated symbols would pass
        shape = LParamShape.from_dims((2, 1))
        strata = [
            bundle_to_b(parse_bundle("O^3")),
            bundle_to_b(parse_bundle("O(1/2)+O")),
            bundle_to_b(parse_bundle("O(1)+O^2")),
        ]
        assert verify_eigen(shape, (1, 0, 0), strata)

        def wrong_make_F(shape_, chi):
            return make_F(shape_, (0, 1) if chi == (1, 0) else chi)

        monkeypatch.setattr(spectral, "make_F", wrong_make_F)
        monkeypatch.setattr(oracles, "make_F", wrong_make_F)
        assert not verify_eigen(shape, (1, 0, 0), strata)
        assert not verify_eigen_oracle(shape, (1, 0, 0), strata)
        assert not verify_eigen_window_oracle(shape, (1, 0, 0), strata)

    def test_no_pairing_and_few_fraction_hashes(self, monkeypatch):
        shape = LParamShape.from_dims((1, 2, 2))
        lam = (3, 1, 0, 0, 0)
        dec = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
        strata = hecke_window(shape, lam)
        calls: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Fraction, "__hash__", counted("hash", Fraction.__hash__))
        monkeypatch.setattr(Fraction, "__new__", counted("new", Fraction.__new__))
        # verify_eigen reaches the pairing only through d_point
        monkeypatch.setattr(
            kottwitz, "segment_pairing", counted("pairing", kottwitz.segment_pairing)
        )
        for cls in (weights.WeilSymbol, BundleSpec):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        before = weights.levi_branching.cache_info()
        assert verify_eigen(shape, lam, strata)
        after = weights.levi_branching.cache_info()
        assert calls["pairing"] == 0
        # strata and symbols are integer tuples: no Fraction is built or hashed
        assert calls["hash"] == 0
        assert calls["new"] == 0
        # the slice characters come from one branching lookup, no slice
        # symbol is built, and no symbol goes through a bundle
        assert len(dec.terms) == 14 and calls["WeilSymbol"] == 0
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert calls["BundleSpec"] == 0

    def test_non_canonical_source_rejected(self, monkeypatch):
        # the source (-1, 0) of O^3 gets a symbol whose members list the
        # components of (0, 0) out of order; translating it as (0, 0) would
        # count (0, 0)'s products twice instead of failing loudly
        shape = LParamShape.from_dims((2, 1))
        strata = [bundle_to_b(parse_bundle("O^3")), bundle_to_b(parse_bundle("O(1/2)+O"))]
        o3 = make_F(shape, (0, 0)).stratum
        assert make_F(shape, (0, 0)).rep.members == ((0, 1),)

        def non_canonical_make_F(shape_, chi):
            if chi == (-1, 0):
                return SheafSymbol(RepSymbol(o3, ((1, 0),)))
            return make_F(shape_, chi)

        monkeypatch.setattr(spectral, "make_F", non_canonical_make_F)
        monkeypatch.setattr(oracles, "make_F", non_canonical_make_F)
        for check in (verify_eigen, verify_eigen_oracle, verify_eigen_window_oracle):
            with pytest.raises(DomainError, match="canonical"):
                check(shape, (1, 0, 0), strata)

    @pytest.mark.parametrize("limit,passes", [(1540, True), (1539, False)])
    def test_lookup_count_charged_before_building(self, monkeypatch, limit, passes):
        # 1540 = 14 slices x (14 listed characters + 96 box points) on the
        # (1, 2, 2), (3, 1, 0, 0, 0) window
        shape = LParamShape.from_dims((1, 2, 2))
        lam = (3, 1, 0, 0, 0)
        strata = hecke_window(shape, lam)
        built = count_symbols(monkeypatch)
        monkeypatch.setenv("BUNNCALC_BUDGET", str(limit))
        if passes:
            assert verify_eigen(shape, lam, strata)
        else:
            with pytest.raises(BudgetError, match="^1540 window lookups exceed budget of 1539$"):
                verify_eigen(shape, lam, strata)
            assert not built

    def test_torus_of_rank_six_refused_under_small_budget(self, monkeypatch):
        # 1296 slices x (the one character of O^6 + its box of one point)
        shape = LParamShape.from_dims((1,) * 6)
        built = count_symbols(monkeypatch)
        monkeypatch.setenv("BUNNCALC_BUDGET", "2591")
        with pytest.raises(BudgetError, match="^2592 window lookups exceed budget of 2591$"):
            verify_eigen(shape, (4, 3, 2, 1, 0, 0), [point_from_vector((0,) * 6)])
        assert not built

    def test_torus_of_rank_six_holds_at_default_budget(self, monkeypatch):
        # one symbol per source and one for the character of O^6
        monkeypatch.delenv("BUNNCALC_BUDGET", raising=False)
        shape = LParamShape.from_dims((1,) * 6)
        built = count_symbols(monkeypatch)
        assert verify_eigen(shape, (4, 3, 2, 1, 0, 0), [point_from_vector((0,) * 6)])
        assert sum(built.values()) <= 1296 + 1

    def test_window_read_once(self, monkeypatch):
        # a generator window and a repeated stratum build what the list does
        shape = LParamShape.from_dims((1, 1, 1))
        lam = (3, 0, 0)
        strata = hecke_window(shape, lam)
        built = count_symbols(monkeypatch)
        assert verify_eigen(shape, lam, strata)
        once = Counter(built)
        for window in ((b for b in strata), strata + strata[:1]):
            built.clear()
            assert verify_eigen(shape, lam, window)
            assert built == once

    def test_wrong_rank_stratum_rejected_before_charge(self, monkeypatch):
        shape = LParamShape.from_dims((2, 1))
        strata = [bundle_to_b(parse_bundle("O^3")), bundle_to_b(parse_bundle("O^4"))]
        reads: Counter = Counter()

        def counting_budget():
            reads["budget"] += 1
            return enumeration_budget()

        monkeypatch.setattr(spectral, "enumeration_budget", counting_budget)
        built = count_symbols(monkeypatch)
        with pytest.raises(DomainError, match="rank mismatch"):
            verify_eigen(shape, (1, 0, 0), strata)
        assert not reads and not built


EIGEN_DECK = [
    ((1, 1), (4, 0)),
    ((1, 2), (6, 0, 0)),
    ((1, 1, 1), (3, 0, 0)),
    ((1, 2, 2), (3, 1, 0, 0, 0)),
    ((1, 1, 1, 1), (2, 0, 0, 0)),
]


def hecke_window(shape, lam, size=8):
    """The first strata the weight carries the identity symbol to, in
    descending slope order, as the benchmark's eigen windows are built."""
    dec = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
    strata = {sheaf.stratum for _, sheaf, _ in dec.terms}
    return sorted(strata, key=lambda p: p.slope_vector(), reverse=True)[:size]


def all_checks(shape, lam, strata):
    """The verdicts of the fiber check, the per-stratum oracle and the
    one-pass window oracle, in that order."""
    return [
        check(shape, lam, strata)
        for check in (verify_eigen, verify_eigen_oracle, verify_eigen_window_oracle)
    ]


class TestVerifyEigenAgainstOracle:
    """The fiber check against one pass per stratum and one pass over the
    window."""

    @pytest.mark.parametrize("dims,lam", EIGEN_DECK)
    def test_deck_windows(self, dims, lam):
        shape = LParamShape.from_dims(dims)
        strata = hecke_window(shape, lam)
        assert all_checks(shape, lam, strata) == [True] * 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_composition_and_exterior_power(self, n):
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            for a in range(n + 1):
                lam = (1,) * a + (0,) * (n - a)
                strata = [make_F(shape, chi_id(shape.r)).stratum] + hecke_window(
                    shape, lam, size=None
                )
                assert all_checks(shape, lam, strata) == [True] * 3

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_shapes_and_windows(self, data):
        n = data.draw(st.integers(1, 5))
        dims = data.draw(st.sampled_from(all_compositions(n)))
        shape = LParamShape.from_dims(dims)
        lam = data.draw(st.sampled_from(normalized_weights(n, 4)))
        shift = data.draw(st.integers(-1, 1))
        lam = tuple(x + shift for x in lam)
        xi = data.draw(small_chis(shape.r, bound=1))
        dec = hecke(shape, lam, make_F(shape, xi))
        reached = sorted({sheaf.stratum for _, sheaf, _ in dec.terms}, key=str)
        # a stratum of no character of most shapes
        reached.append(point_from_vector((F(-1, n),) * n))
        strata = data.draw(st.lists(st.sampled_from(reached), min_size=1, max_size=6))
        assert all_checks(shape, lam, strata) == [True] * 3

    def check_mutation(self, monkeypatch, change, dims, lam, named):
        """With b_to_chis's list passed through change, the three checks
        agree on every deck window and all fail on the named window."""

        def mutated(shape, b):
            return change(b_to_chis(shape, b))

        monkeypatch.setattr(spectral, "b_to_chis", mutated)
        monkeypatch.setattr(oracles, "b_to_chis", mutated)
        named = [bundle_to_b(parse_bundle(s)) for s in named]
        assert all_checks(LParamShape.from_dims(dims), lam, named) == [False] * 3
        for dims, lam in EIGEN_DECK:
            shape = LParamShape.from_dims(dims)
            assert len(set(all_checks(shape, lam, hecke_window(shape, lam)))) == 1

    def test_missing_character_fails(self, monkeypatch):
        # O(1)^2+O loses (0, 1, 1), which is still the translate of the
        # source (0, 0, 0) by the slice (0, 1, 1)
        named = ("O^3", "O(1)^2+O", "O(1)+O^2")
        self.check_mutation(monkeypatch, lambda chis: chis[1:], (1, 1, 1), (1, 1, 0), named)

    def test_wrong_character_fails(self, monkeypatch):
        # each stratum also lists its first character shifted by one on every
        # component, whose degree is r higher: O^3 lists (1, 1), which lies
        # on O(1)+O(1/2)
        def add_wrong(chis):
            return chis + [tuple(x + 1 for x in chis[0])] if chis else chis

        named = ("O^3", "O(1/2)+O", "O(1)+O^2")
        self.check_mutation(monkeypatch, add_wrong, (2, 1), (1, 0, 0), named)

    def test_repeated_character_fails(self, monkeypatch):
        named = ("O^3", "O(1/2)+O", "O(1)+O^2")
        self.check_mutation(monkeypatch, lambda chis: chis + chis[:1], (2, 1), (1, 0, 0), named)
