import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bunncalc import (
    BudgetError,
    DomainError,
    automorphism_group,
    b_to_bundle,
    boyer_factorize,
    bundle_to_b,
    chi_inv,
    enumerate_B,
    harris_viehmann,
    hn_polygon,
    igusa_cohomology,
    mantovan_pieces,
    modification_necessary,
    modification_targets_rank_one,
    normalize_bundle,
    parse_bundle,
    rho_pairing,
    shtuka_cohomology,
    sigma_chi,
)
from bunncalc.lparams import LParamShape
from bunncalc.shtuka import is_minuscule, rho_weight
from bunncalc.weights import dual_weight
from conftest import fractions_built
from oracles import hn_lies_above_oracle

F = Fraction


class TestShtukaCohomology:
    def test_rank_two_worked_configuration(self):
        shape = LParamShape.from_dims((1, 1))
        target = bundle_to_b(parse_bundle("O^2"))
        out = shtuka_cohomology(shape, (-1, -2), target, (0, -3), direction="inverse")
        assert len(out.pieces) == 1
        piece = out.pieces[0]
        assert piece.sigma.terms == ((((1,), (2,)), 1),)
        assert piece.sigma.describe(ascii_mode=True) == "phi1(x)phi2^2"
        assert not piece.sigma_dual
        assert piece.shift == -1
        assert piece.tate == F(3, 2)

    def test_trivial_operator_is_identity(self):
        shape = LParamShape.from_dims((2, 1))
        xi = (1, 2)
        b_xi = bundle_to_b(parse_bundle("O(2)+O(1/2)"))
        out = shtuka_cohomology(shape, xi, b_xi, (0, 0, 0), direction="forward")
        assert len(out.pieces) == 1
        piece = out.pieces[0]
        assert piece.shift == 0
        assert piece.sigma.dim == 1
        assert piece.sigma.terms[0][0] == ((0, 0), (0,))

    def test_two_block_shift_magnitude(self):
        # source of shape O(-1/n1) + O(-1/n2) with n1 > n2: the defect is n1 - n2
        n1, n2 = 4, 2
        shape = LParamShape.from_dims((n1, n2))
        target = bundle_to_b(parse_bundle("O^6"))
        lam_inv = (1, 1) + (0,) * 4
        out = shtuka_cohomology(
            shape, (-1, -1), target, tuple(-x for x in reversed(lam_inv)), "inverse"
        )
        assert len(out.pieces) == 1
        piece = out.pieces[0]
        assert abs(piece.shift) == n1 - n2
        assert piece.shift == -(n1 - n2)
        assert piece.sigma.dim == n1 * n2

    def test_symmetric_square_variant_same_output(self):
        # same source as the exterior-square case; the degree-2 symmetric
        # power also leaves the single mixed line at the trivial stratum
        n1, n2 = 3, 2
        shape = LParamShape.from_dims((n1, n2))
        target = bundle_to_b(parse_bundle("O^5"))
        lam_inv = (2,) + (0,) * 4
        out = shtuka_cohomology(
            shape, (-1, -1), target, tuple(-x for x in reversed(lam_inv)), "inverse"
        )
        assert len(out.pieces) == 1
        piece = out.pieces[0]
        assert piece.shift == -(n1 - n2)
        assert piece.sigma.terms == ((((1, 0, 0), (1, 0)), 1),)
        assert piece.sigma.dim == n1 * n2

    def test_forward_stalk_collects_coinciding_strata(self):
        shape = LParamShape.from_dims((1, 1))
        target = bundle_to_b(parse_bundle("O(1)+O"))
        out = shtuka_cohomology(shape, (0, 0), target, (1, 0), "forward")
        assert len(out.pieces) == 2
        assert all(p.shift == 1 for p in out.pieces)
        sigmas = sorted(p.sigma.terms for p in out.pieces)
        assert sigmas == [((((0,), (1,)), 1),), ((((1,), (0,)), 1),)]

    def test_empty_when_no_character_matches(self):
        shape = LParamShape.from_dims((1, 1))
        target = bundle_to_b(parse_bundle("O(5)+O"))
        out = shtuka_cohomology(shape, (0, 0), target, (1, 0), "forward")
        assert not out.pieces

    def test_rank_mismatch_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        with pytest.raises(DomainError):
            shtuka_cohomology(shape, (0, 0), bundle_to_b(parse_bundle("O^3")), (1, 0))

    def test_ledger_totals_shift(self):
        shape = LParamShape.from_dims((1, 1))
        target = bundle_to_b(parse_bundle("O(1)+O"))
        out = shtuka_cohomology(shape, (0, 0), target, (1, 0), "forward")
        shift_entries = [v for name, v in out.twist_ledger if "tate" not in name]
        assert sum(shift_entries) == out.pieces[0].shift


class TestHarrisViehmann:
    def test_rank_two_example(self):
        shape = LParamShape.from_dims((1, 1))
        out = harris_viehmann(shape, (-1, -2), (3, 0))
        assert len(out.pieces) == 1
        piece = out.pieces[0]
        assert piece.sigma.describe(ascii_mode=True) == "phi1(x)phi2^2"
        assert piece.shift == -1
        assert piece.induction is None  # weight is not minuscule

    def test_identity_character(self):
        shape = LParamShape.from_dims((2, 2))
        out = harris_viehmann(shape, (0, 0), (0, 0, 0, 0))
        piece = out.pieces[0]
        assert piece.shift == 0 and piece.sigma.dim == 1 and not piece.sigma_dual

    def test_minuscule_dual_presentation(self):
        shape = LParamShape.from_dims((3, 2))
        xi = (1, 1)
        a = sum(xi)
        mu_inv = (0,) * (shape.n - a) + (-1,) * a
        out = harris_viehmann(shape, xi, mu_inv)
        piece = out.pieces[0]
        assert piece.sigma_dual
        assert piece.sigma.terms == ((((1, 0, 0), (1, 0)), 1),)
        assert piece.sigma.dim == comb(3, 1) * comb(2, 1)
        assert piece.induction is not None
        assert "GL_2 x GL_3" in piece.induction
        assert "(1,0)" in piece.induction and "(1,0,0)" in piece.induction

    def test_degree_mismatch_gives_empty(self):
        shape = LParamShape.from_dims((1, 1))
        out = harris_viehmann(shape, (1, 0), (3, 0))
        assert not out.pieces

    def test_cross_module_dimension_law(self):
        rng = random.Random(7)
        for _ in range(25):
            r = rng.randint(1, 3)
            dims = [rng.randint(1, 3) for _ in range(r)]
            shape = LParamShape.from_dims(dims)
            if shape.n > 8:
                continue
            xi = tuple(rng.randint(0, d) for d in dims)
            a = sum(xi)
            mu_inv = (0,) * (shape.n - a) + (-1,) * a
            out = harris_viehmann(shape, xi, mu_inv)
            expect = sigma_chi(shape, mu_inv, chi_inv(xi)).dim
            got = out.pieces[0].sigma.dim if out.pieces else 0
            assert got == expect == (
                0
                if any(d > n for d, n in zip(xi, dims))
                else __import__("math").prod(comb(n, d) for n, d in zip(dims, xi))
            )


ILLUSTRATION_1 = dict(
    b="O(3/4)+O(1/3)+O^3",
    bprime="O(3/2)+O(1/2)+O(1/3)+O^3",
    mu=(1,) + (0,) * 9,
    m=4,
)
ILLUSTRATION_2 = dict(
    b="O(3/2)+O(1/2)^2+O(1/6)",
    bprime="O(3/2)^2+O(1/2)+O(1/3)+O^3",
    mu=(1, 1) + (0,) * 10,
    m=2,
)


class TestLedgerValuesOnly:
    """Strata, bundles and pairings stay integer: the only Fractions a
    cohomology output builds are its rational ledger values (counted, not
    timed)."""

    def test_shtuka_builds_only_its_tate_value(self):
        shape = LParamShape.from_dims((1, 1))
        target = bundle_to_b(parse_bundle("O^2"))
        out = []
        built = fractions_built(
            lambda: out.append(shtuka_cohomology(shape, (-1, -2), target, (0, -3), "inverse"))
        )
        assert out[0].pieces and out[0].twist_ledger[-1][1] == F(3, 2)
        assert built == 1

    def test_hv_builds_only_its_tate_value_and_modulus_exponent(self):
        shape = LParamShape.from_dims((1, 2))
        out = []
        built = fractions_built(lambda: out.append(harris_viehmann(shape, (1, 1), (0, -1, -1))))
        piece = out[0].pieces[0]
        assert piece.induction is not None
        assert (piece.tate, piece.modulus_half_exponent) == (F(1), F(0))
        assert built == 2


class TestBoyer:
    def test_first_illustration(self):
        f = boyer_factorize(
            parse_bundle(ILLUSTRATION_1["b"]),
            parse_bundle(ILLUSTRATION_1["bprime"]),
            ILLUSTRATION_1["mu"],
            ILLUSTRATION_1["m"],
        )
        assert f.direction == "source-parabolic"
        assert f.mu1 == (1, 0, 0, 0) and f.mu2 == (0,) * 6
        assert b_to_bundle(f.b1) == parse_bundle("O(3/4)")
        assert b_to_bundle(f.bp1) == parse_bundle("O(3/2)+O(1/2)")
        assert b_to_bundle(f.b2) == b_to_bundle(f.bp2) == parse_bundle("O(1/3)+O^3")
        assert (f.rho_part1, f.rho_part2) == (4, 3)
        assert f.rho_whole == 27 and f.d == 20
        assert any("26" in note for note in f.notes)
        assert not f.parabolic_proper
        assert f.parabolic_group == automorphism_group(
            parse_bundle(ILLUSTRATION_1["b"])
        ).describe()

    def test_second_illustration(self):
        f = boyer_factorize(
            parse_bundle(ILLUSTRATION_2["b"]),
            parse_bundle(ILLUSTRATION_2["bprime"]),
            ILLUSTRATION_2["mu"],
            ILLUSTRATION_2["m"],
        )
        assert f.direction == "target-parabolic"
        assert f.mu1 == (0, 0) and f.mu2 == (1, 1) + (0,) * 8
        assert b_to_bundle(f.b1) == b_to_bundle(f.bp1) == parse_bundle("O(3/2)")
        assert f.g_target.describe(ascii_mode=True) == (
            "GL_2(D_{-3/2}) x D^x_{-1/2} x D^x_{-1/3} x GL_3"
        )
        assert f.parabolic_proper

    def test_no_split_rejected(self):
        with pytest.raises(DomainError, match="proper"):
            boyer_factorize(
                parse_bundle(ILLUSTRATION_1["b"]),
                parse_bundle(ILLUSTRATION_1["bprime"]),
                ILLUSTRATION_1["mu"],
                10,
            )

    def test_degree_mismatch_named(self):
        with pytest.raises(DomainError, match="degree mismatch"):
            boyer_factorize(
                parse_bundle("O^4"), parse_bundle("O^4"), (1, 0, 0, 0), 2
            )

    def test_non_minuscule_rejected(self):
        with pytest.raises(DomainError, match="minuscule"):
            boyer_factorize(
                parse_bundle("O^2"), parse_bundle("O(2)+O"), (2, 0), 1
            )

    def test_unsplittable_rank_rejected(self):
        with pytest.raises(DomainError, match="does not split"):
            boyer_factorize(
                parse_bundle(ILLUSTRATION_1["b"]),
                parse_bundle(ILLUSTRATION_1["bprime"]),
                ILLUSTRATION_1["mu"],
                2,
            )

    @pytest.mark.parametrize("conf", [ILLUSTRATION_1, ILLUSTRATION_2])
    def test_dimension_additivity_and_twist(self, conf):
        f = boyer_factorize(
            parse_bundle(conf["b"]), parse_bundle(conf["bprime"]), conf["mu"], conf["m"]
        )
        assert f.rho_part1 + f.rho_part2 + f.d == f.rho_whole
        assert f.h >= 0
        assert f.h == rho_weight(conf["mu"]) - rho_weight(f.mu1)
        ranks = [
            m * s.denominator for g in f.kappa_twist_group for m, s in g.factors
        ]
        assert len(ranks) == len(f.kappa_twist.exps)
        total = sum(n * e for n, e in zip(ranks, f.kappa_twist.exps))
        assert total == 0

    def test_applicable_wrapper(self):
        eb = parse_bundle(ILLUSTRATION_1["b"])
        ebp = parse_bundle(ILLUSTRATION_1["bprime"])
        assert boyer_factorize(eb, ebp, ILLUSTRATION_1["mu"], 4).split_rank == 4
        with pytest.raises(DomainError):
            boyer_factorize(eb, ebp, ILLUSTRATION_1["mu"], 5)


class TestModifications:
    def test_rank_five_targets(self):
        got = modification_targets_rank_one(5, 3)
        expect = [
            parse_bundle("O^5"),
            parse_bundle("O(1/3)+O+O(-1)"),
            parse_bundle("O(1/3)+O(-1/2)"),
        ]
        assert got == expect

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_and_trivial_membership(self, n):
        for nprime in range(2, n):
            targets = modification_targets_rank_one(n, nprime)
            assert len(targets) == n - nprime + 1
            assert parse_bundle(f"O^{n}") in targets
            assert len(set(targets)) == len(targets)

    def test_source_count_over_budget(self, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "3")
        assert len(modification_targets_rank_one(5, 3)) == 3
        with pytest.raises(BudgetError, match="4 modification sources exceed budget of 3"):
            modification_targets_rank_one(5, 2)

    def test_degree_mismatch_fails(self):
        assert not modification_necessary(
            parse_bundle("O^2"), parse_bundle("O(2)+O"), (1, 0)
        )

    def test_unit_modification_of_trivial(self):
        n = 5
        assert modification_necessary(
            parse_bundle("O^5"), parse_bundle("O(1/5)"), (1, 0, 0, 0, 0)
        )

    def test_polygon_verdict_matches_fraction_oracle(self):
        # every bundle of rank <= 4 with slopes in [-2, 2]; the type
        # (d, 0, ..., 0) balances degrees, so only the polygon bound decides
        for r in range(1, 5):
            stable = [
                (F(p, q), q)
                for q in range(1, r + 1)
                for p in range(-2 * q, 2 * q + 1)
                if gcd(p, q) == 1
            ]
            bundles = []

            def rec(start, left, parts):
                if not left:
                    bundles.append(normalize_bundle(parts))
                for k in range(start, len(stable)):
                    if stable[k][1] <= left:
                        rec(k, left - stable[k][1], parts + [(stable[k][0], 1)])

            rec(0, r, [])
            polygons = [hn_polygon(e) for e in bundles]
            for eb, pb in zip(bundles, polygons):
                for ebp, pbp in zip(bundles, polygons):
                    d = ebp.deg - eb.deg
                    if d >= 0:
                        mu = (d,) + (0,) * (r - 1)
                        assert modification_necessary(eb, ebp, mu) == hn_lies_above_oracle(
                            pbp, pb
                        )

    def test_polygon_bound(self):
        # effective type but the target polygon dips below the source's
        assert not modification_necessary(
            parse_bundle("O(1)+O(-1)"), parse_bundle("O^2"), (0, 0)
        )
        assert modification_necessary(
            parse_bundle("O^2"), parse_bundle("O(1)+O(-1)"), (0, 0)
        )


class TestIgusa:
    def test_orbit_count_and_degree(self):
        shape = LParamShape.from_dims((1, 1, 1))
        b = bundle_to_b(parse_bundle("O(1)+O^2"))
        out = igusa_cohomology(shape, (1, 0, 0), b)
        assert out.degree == 2
        assert out.count == 3
        assert out.multiplicity_symbol == "m"
        assert out.modulus_half_exponent == F(1, 2)

    def test_basic_stratum_single_piece(self):
        shape = LParamShape.from_dims((2,))
        b = bundle_to_b(parse_bundle("O(1/2)"))
        out = igusa_cohomology(shape, (1, 0), b)
        assert out.count == 1 and out.degree == 0

    def test_inadmissible_stratum_rejected(self):
        shape = LParamShape.from_dims((1, 1))
        with pytest.raises(DomainError):
            igusa_cohomology(shape, (1, 0), bundle_to_b(parse_bundle("O(5)+O(-4)")))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_admissible_iff_in_enumerated_set(self, n):
        # candidates: every point under a weight with entries in -1..1, so
        # every endpoint the minuscule weights below reach, and more
        shape = LParamShape.from_dims((n,))
        tops = [
            tuple(sorted(w, reverse=True))
            for w in combinations_with_replacement((-1, 0, 1), n)
        ]
        candidates = {b for w in tops for b in enumerate_B(n, w)}
        for mu in (w for w in tops if is_minuscule(w)):
            admissible = set(enumerate_B(n, dual_weight(mu)))
            for b in candidates:
                try:
                    igusa_cohomology(shape, mu, b)
                except DomainError:
                    assert b not in admissible
                else:
                    assert b in admissible

    def test_mantovan_labels(self):
        shape = LParamShape.from_dims((1, 1, 1))
        b = bundle_to_b(parse_bundle("O(1)+O^2"))
        mp = mantovan_pieces(shape, (1, 0, 0), b)
        assert mp.d == 2 and mp.d_b == 2
        assert mp.shift == 2 and mp.tate == F(-1)
        assert "[2]" in mp.text and "(-1)" in mp.text


class TestHelpers:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    def test_minuscule_detection(self, raw):
        vec = tuple(sorted(raw, reverse=True))
        base = min(vec)
        assert is_minuscule(vec) == all(x - base in (0, 1) for x in vec)

    @given(st.lists(st.integers(-4, 4), max_size=6))
    def test_rho_weight_is_the_sum_over_pairs(self, raw):
        vec = sorted(raw, reverse=True)
        pairs = sum(vec[i] - vec[j] for i in range(len(vec)) for j in range(i + 1, len(vec)))
        assert rho_weight(vec) == pairs

    def test_rho_weight_matches_bundle_pairing(self):
        assert rho_weight((1, 0, 0)) == 2
        assert rho_weight((2, 1, 0)) == rho_pairing(parse_bundle("O(2)+O(1)+O").slope_classes())
