import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given

from bunncalc import (
    BudgetError,
    DomainError,
    InnerFormGroup,
    NewtonPoint,
    ascii_text,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    d_point,
    dot_export,
    enumerate_B,
    hasse,
    kappa_exponents,
    leq,
    modulus_exponents,
    parabolic_type,
    parse_bundle,
    point_from_vector,
)
from bunncalc import kottwitz
from bunncalc.bundles import lattice_tops, slope_str
from bunncalc.kottwitz import dot_text
from conftest import bundle_specs, small_classes, unreachable_after
from oracles import hasse_oracle, hasse_pairwise_oracle, leq_oracle, newton_points_oracle

F = Fraction


def mus(n):
    """Every dominant mu of length n with entries in 0..3."""
    return combinations_with_replacement(range(3, -1, -1), n)


def grade(b):
    """(<2rho, nu_b> - def(b))/2 with def(b) = n - sum of stable multiplicities."""
    defect = b.rank - sum(c // s.denominator for s, c in b.classes)
    return F(d_point(b) - defect, 2)


class TestConversion:
    def test_integer_slopes(self):
        b = bundle_to_b(parse_bundle("O(1)+O"))
        assert b.slope_vector() == (F(0), F(-1))
        assert b.kappa == -1

    def test_single_stable(self):
        b = bundle_to_b(parse_bundle("O(1/2)"))
        assert b.slope_vector() == (F(-1, 2), F(-1, 2))
        assert b.kappa == -1

    def test_negative_bundle(self):
        b = bundle_to_b(parse_bundle("O(-1)+O(-2)"))
        assert b.slope_vector() == (F(2), F(1))
        assert b.kappa == 3
        assert d_point(b) == 1

    @given(bundle_specs())
    def test_round_trip(self, spec):
        assert b_to_bundle(bundle_to_b(spec)) == spec
        assert bundle_to_b(spec).kappa == -spec.deg

    @given(bundle_specs())
    def test_point_round_trip(self, spec):
        b = bundle_to_b(spec)
        assert bundle_to_b(b_to_bundle(b)) == b

    def test_breakpoint_invariant_enforced(self):
        with pytest.raises(DomainError, match="breakpoints not integral"):
            point_from_vector([F(1, 2)] * 3)

    def test_increasing_vector_rejected(self):
        with pytest.raises(DomainError, match="slope vector must be weakly decreasing"):
            point_from_vector((0, 1))

    def test_inexact_slopes_rejected(self):
        with pytest.raises(DomainError, match="not a pair of integers"):
            NewtonPoint(((0.5, 2),))
        with pytest.raises(DomainError, match="not a pair of integers"):
            InnerFormGroup(((1, 0.5),))


class TestSegments:
    def test_stores_integer_segments(self):
        b = point_from_vector([F(3, 2), F(3, 2), 1, 0, 0])
        assert b.segments == ((3, 2), (1, 1), (0, 2))
        assert b.classes == ((F(3, 2), 2), (F(1), 1), (F(0), 2))
        assert b.tops == (0, 1, 3, 4, 4, 4)
        assert (b.rank, b.kappa, parabolic_type(b)) == (5, 4, (2, 1, 2))
        assert str(b) == "(3/2,3/2,1,0,0)"

    @pytest.mark.parametrize("seg", [(F(1), 1), (1, F(2)), (1.0, 1), (1, 2.0)])
    def test_non_integer_segment_rejected(self, seg):
        with pytest.raises(DomainError, match="not a pair of integers"):
            NewtonPoint((seg,))

    @pytest.mark.parametrize("run", [0, -1])
    def test_zero_run_rejected(self, run):
        with pytest.raises(DomainError, match="class count must be >= 1"):
            NewtonPoint(((0, run),))

    @pytest.mark.parametrize(
        "segments",
        [((1, 2), (1, 2)), ((1, 2), (2, 4)), ((0, 1), (1, 1)), ((1, 3), (1, 2))],
    )
    def test_non_decreasing_slopes_rejected(self, segments):
        with pytest.raises(DomainError, match="strictly decreasing"):
            NewtonPoint(segments)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            NewtonPoint(())

    def test_enumeration_builds_no_fraction(self, monkeypatch):
        calls = Counter()
        new = Fraction.__new__

        def counted(*args, **kwargs):
            calls["new"] += 1
            return new(*args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        pts = enumerate_B(10, (5, 3, 2, 1, 0, 0, 0, 0, 0, 0))
        monkeypatch.undo()
        assert len(pts) >= 1000
        assert calls["new"] == 0

    def test_str_renders_each_entry(self):
        for mu in small_classes():
            for p in enumerate_B(len(mu), mu):
                want = "(" + ",".join(
                    slope_str(s.numerator, s.denominator) for s in p.slope_vector()
                ) + ")"
                assert str(p) == want, (mu, p)

    def test_str_renders_once_per_segment(self, monkeypatch):
        calls = Counter()
        new, render = Fraction.__new__, kottwitz.slope_str

        def counted_new(*args, **kwargs):
            calls["new"] += 1
            return new(*args, **kwargs)

        def counted_render(rise, run):
            calls["render"] += 1
            return render(rise, run)

        pts = enumerate_B(8, (3, 3, 3, 3, 3, 2, 1, 0))
        for p in pts:
            calls.clear()
            monkeypatch.setattr(Fraction, "__new__", counted_new)
            monkeypatch.setattr(kottwitz, "slope_str", counted_render)
            str(p)
            monkeypatch.undo()
            assert calls["new"] <= len(p.segments) and calls["render"] <= len(p.segments), p


class TestLatticeTops:
    """The lattice tops are the order key: injective, ordering as the slope
    vectors do, and <= entry by entry exactly when the polygons lie under."""

    def test_tops_key_the_order(self):
        for mu in small_classes():
            pts = enumerate_B(len(mu), mu)
            assert len({p.tops for p in pts}) == len(pts), mu
            assert pts == sorted(pts, key=lambda p: p.slope_vector(), reverse=True), mu

    def test_leq_and_hasse_match_oracles(self):
        # the Fraction oracles are slow: classes of at most 20 points keep
        # this near 2 s and still hold 234 of the 461 classes
        for mu in small_classes():
            pts = enumerate_B(len(mu), mu)
            if len(pts) > 20:
                continue
            for a, b in product(pts, repeat=2):
                assert leq(a, b) == leq_oracle(a, b), (mu, a, b)
            assert hasse(pts) == hasse_oracle(pts), mu

    def test_tops_computed_once_per_point(self, monkeypatch):
        calls = Counter()

        def counted(segments):
            calls["tops"] += 1
            return lattice_tops(segments)

        monkeypatch.setattr(kottwitz, "lattice_tops", counted)
        pts = enumerate_B(8, (3, 3, 3, 3, 3, 2, 1, 0))
        dot_text(pts, hasse(pts))
        # enumerate_B seeds every point's tops, so none is computed
        assert calls["tops"] == 0 and len(pts) == 122
        # a point built otherwise computes its tops on the first read only
        fresh = [NewtonPoint(p.segments) for p in pts]
        dot_text(fresh, hasse(fresh))
        assert calls["tops"] == 122

    def test_dot_text_hashes_no_point(self, monkeypatch):
        pts = enumerate_B(8, (3, 3, 3, 3, 3, 2, 1, 0))
        edges = hasse(pts)
        calls = Counter()
        point_hash = NewtonPoint.__hash__

        def counted(self):
            calls["hash"] += 1
            return point_hash(self)

        monkeypatch.setattr(NewtonPoint, "__hash__", counted)
        text = dot_text(pts, edges)
        assert calls["hash"] == 0 and text.count(" -> ") == len(edges)

    @pytest.mark.parametrize("big", [False, True])
    def test_enumeration_seeds_the_tops(self, big):
        classes = [(5, 4, 2, 1) + (0,) * 10] if big else small_classes()
        for mu in classes:
            pts = enumerate_B(len(mu), mu)
            assert all(vars(p)["tops"] == lattice_tops(p.segments) for p in pts), mu
            assert pts == sorted(pts, key=lambda p: lattice_tops(p.segments), reverse=True), mu

    def test_seeded_point_is_an_ordinary_point(self):
        for p in enumerate_B(5, (2, 1, 1, 0, 0)):
            fresh = NewtonPoint(p.segments)
            assert repr(p) == repr(fresh) == f"NewtonPoint(segments={p.segments!r})"
            assert p == fresh and hash(p) == hash(fresh) == hash((p.segments,))
            assert p.tops == fresh.tops and vars(p) == vars(fresh)


class TestLeq:
    def test_basic_below_ordinary(self):
        assert leq(point_from_vector([F(1, 2), F(1, 2)]), point_from_vector([1, 0]))

    def test_antisymmetry_direction(self):
        assert not leq(point_from_vector([1, 0]), point_from_vector([F(1, 2), F(1, 2)]))

    def test_partial_sums(self):
        assert leq(point_from_vector([1, 1, 0]), point_from_vector([2, 0, 0]))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DomainError):
            leq(point_from_vector([1, 0]), point_from_vector([1, 0, 0]))

    def test_cross_endpoint_is_false_not_error(self):
        assert not leq(point_from_vector([1, 0]), point_from_vector([1, 1]))

    @pytest.mark.parametrize("n,mu", [(4, (1, 0, 0, 0)), (5, (2, 1, 0, 0, 0))])
    def test_poset_axioms(self, n, mu):
        pts = enumerate_B(n, mu)
        for a in pts:
            assert leq(a, a)
            for b in pts:
                if leq(a, b) and leq(b, a):
                    assert a == b
                for c in pts:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)


class TestEnumerate:
    def test_gl2(self):
        pts = enumerate_B(2, (1, 0))
        assert [p.slope_vector() for p in pts] == [
            (F(1), F(0)),
            (F(1, 2), F(1, 2)),
        ]

    def test_gl3(self):
        pts = enumerate_B(3, (1, 0, 0))
        assert [p.slope_vector() for p in pts] == [
            (F(1), F(0), F(0)),
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 3), F(1, 3), F(1, 3)),
        ]

    def test_leaves_no_reference_cycles(self):
        assert unreachable_after(lambda: enumerate_B(5, (2, 1, 0, 0, 0))) == 0

    def test_search_is_output_sensitive(self, monkeypatch):
        # every pushed node completes to a point, so a budget of n search
        # nodes per point never trips
        for mu in small_classes():
            n = len(mu)
            monkeypatch.delenv("BUNNCALC_BUDGET", raising=False)
            count = len(enumerate_B(n, mu))
            monkeypatch.setenv("BUNNCALC_BUDGET", str(count * n))
            assert len(enumerate_B(n, mu)) == count, mu

    @pytest.mark.parametrize(
        "mu,count",
        [((2, 1, 0), 4), ((3, 1, 0, 0), 11), ((2, 1, 0, 0, -1), 23), ((3, 2, 1, 0, 0, 0), 47)],
    )
    def test_search_charge_at_its_boundary(self, monkeypatch, mu, count):
        # each popped node emits one point, so the search charges 2 * count - 1
        nodes = 2 * count - 1
        monkeypatch.setenv("BUNNCALC_BUDGET", str(nodes))
        assert len(enumerate_B(len(mu), mu)) == count
        monkeypatch.setenv("BUNNCALC_BUDGET", str(nodes - 1))
        with pytest.raises(BudgetError, match=f"^{nodes} search nodes exceed budget of {nodes - 1}$"):
            enumerate_B(len(mu), mu)

    def test_central_mu_is_singleton(self):
        pts = enumerate_B(4, (0, 0, 0, 0))
        assert len(pts) == 1 and pts[0].slope_vector() == (F(0),) * 4

    @pytest.mark.parametrize(
        "n,mu",
        [(2, (1, 0)), (3, (1, 0, 0)), (3, (1, 1, 0)), (4, (2, 0, 0, 0)), (5, (1, 1, 0, 0, 0))],
    )
    def test_matches_lattice_path_oracle(self, n, mu):
        got = {p.slope_vector() for p in enumerate_B(n, mu)}
        assert got == newton_points_oracle(n, mu)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_contains_basic_and_ordinary(self, n):
        mu = (1,) + (0,) * (n - 1)
        pts = enumerate_B(n, mu)
        vecs = [p.slope_vector() for p in pts]
        assert tuple(F(1, n) for _ in range(n)) in vecs
        assert tuple(F(x) for x in mu) in vecs
        for p in pts:
            for s, c in p.classes:
                assert c % s.denominator == 0

    @pytest.mark.parametrize("n", [0, -1])
    def test_rank_below_one_rejected(self, n):
        with pytest.raises(DomainError, match=f"rank n must be >= 1, got {n}"):
            enumerate_B(n, ())

    def test_wrong_mu_length_rejected(self):
        with pytest.raises(DomainError, match="mu must have length 3, got 2"):
            enumerate_B(3, (1, 0))

    def test_non_dominant_mu_rejected(self):
        with pytest.raises(DomainError):
            enumerate_B(2, (0, 1))


class TestHasse:
    def test_gl2_single_edge(self):
        pts = enumerate_B(2, (1, 0))
        edges = hasse(pts)
        assert len(edges) == 1
        lo, hi = edges[0]
        assert lo.slope_vector() == (F(1, 2), F(1, 2))
        assert hi.slope_vector() == (F(1), F(0))

    def test_empty_list_no_edges(self):
        assert hasse([]) == []

    def test_singleton_no_edges(self):
        assert hasse(enumerate_B(3, (0, 0, 0))) == []

    def test_gl3_chain(self):
        pts = enumerate_B(3, (1, 0, 0))
        edges = hasse(pts)
        assert len(edges) == 2
        for lo, hi in edges:
            assert leq(lo, hi) and lo != hi
            # covering: no point strictly between
            for w in pts:
                if w not in (lo, hi):
                    assert not (leq(lo, w) and leq(w, hi))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_cubic_oracle(self, n):
        for mu in mus(n):
            pts = enumerate_B(n, mu)
            assert hasse(pts) == hasse_oracle(pts), mu

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_edge_raises_grade_by_one(self, n):
        for mu in mus(n):
            for lo, hi in hasse(enumerate_B(n, mu)):
                assert grade(hi) - grade(lo) == 1, (mu, lo, hi)

    def test_shuffled_input_same_edges(self):
        rng = random.Random(5)
        for mu in [(3, 3, 2, 1, 0, 0), (2, 1, 1, 0, 0), (1, 0, 0, 0, 0, 0, 0)]:
            pts = enumerate_B(len(mu), mu)
            edges = hasse(pts)
            for _ in range(3):
                rng.shuffle(pts)
                assert hasse(pts) == edges

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_pairwise_oracle(self, n):
        for mu in mus(n):
            pts = enumerate_B(n, mu)
            assert hasse(pts) == hasse_pairwise_oracle(pts), mu

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shuffled_sublists_match_oracles(self, n):
        # sub-lists are not down-sets: a cover there may skip points of B(mu)
        rng = random.Random(n)
        for mu in mus(n):
            pts = enumerate_B(n, mu)
            for _ in range(2):
                sub = rng.sample(pts, rng.randint(1, len(pts)))
                edges = hasse(sub)
                assert edges == hasse_pairwise_oracle(sub), mu
                if len(sub) <= 20:
                    assert edges == hasse_oracle(sub), mu

    def test_1690_points_match_pairwise_oracle(self):
        pts = enumerate_B(10, (5, 4, 2, 1) + (0,) * 6)
        edges = hasse(pts)
        assert (len(pts), len(edges)) == (1690, 5198)
        assert edges == hasse_pairwise_oracle(pts)

    def test_8739_points_graded_by_one(self):
        pts = enumerate_B(14, (5, 4, 2, 1) + (0,) * 10)
        edges = hasse(pts)
        assert (len(pts), len(edges)) == (8739, 31221)
        grades = {p: grade(p) for p in pts}
        assert all(grades[hi] - grades[lo] == 1 for lo, hi in edges)

    def test_mixed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            hasse(enumerate_B(2, (1, 0)) + enumerate_B(2, (2, 0)))

    def test_mask_charge_meets_budget(self, monkeypatch):
        # 64 points hold 64^2 bits of down-sets: 4 kibibits
        pts = enumerate_B(3, (22, 0, 0))
        assert len(pts) == 64
        monkeypatch.setenv("BUNNCALC_BUDGET", "4")
        assert hasse(pts) == hasse_pairwise_oracle(pts)
        monkeypatch.setenv("BUNNCALC_BUDGET", "3")
        with pytest.raises(BudgetError, match="4 kibibits of down-set masks exceed budget of 3"):
            hasse(pts)

    def test_small_lists_read_no_budget(self, monkeypatch):
        # below 32 points the charge is 0, so the unreadable budget is never read
        small, large = enumerate_B(3, (13, 0, 0)), enumerate_B(3, (14, 0, 0))
        assert (len(small), len(large)) == (29, 32)
        monkeypatch.setenv("BUNNCALC_BUDGET", "soon")
        assert hasse(small) == hasse_pairwise_oracle(small)
        with pytest.raises(BudgetError, match="not an integer"):
            hasse(large)

    def test_oversized_class_refused_before_masks(self, monkeypatch):
        monkeypatch.delenv("BUNNCALC_BUDGET", raising=False)
        pts = enumerate_B(3, (1000, 0, 0))
        # the masks of one coordinate alone would take about 10 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="6945695 kibibits .* budget of 1000000"):
                hasse(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) == 84335 and peak < 1_000_000

    def test_duplicate_points_rejected(self):
        pts = enumerate_B(3, (1, 0, 0))
        with pytest.raises(DomainError):
            hasse(pts + pts[:1])

    def test_dot_text_names_nodes_by_rank(self):
        pts = enumerate_B(3, (1, 0, 0))
        text = dot_text(pts[::-1], hasse(pts))
        assert [line.split()[0] for line in text.splitlines()[1:4]] == ["b0", "b1", "b2"]
        assert "b0 [label=\"ν=(1,0,0)" in text and "b1 -> b0;" in text and "b2 -> b1;" in text

    def test_dot_text_rejects_a_point_listed_twice(self):
        p = point_from_vector([1, 0])
        with pytest.raises(DomainError, match=r"distinct points: \(1,0\) is listed twice"):
            dot_text([p, p], [])

    @pytest.mark.parametrize("end", [0, 1])
    def test_dot_text_rejects_a_stray_edge_endpoint(self, end):
        lo, hi = hasse(enumerate_B(2, (1, 0)))[0]
        stray = point_from_vector([2, 0])
        edge = (stray, hi) if end == 0 else (lo, stray)
        with pytest.raises(DomainError, match=r"edge endpoint \(2,0\) is not among the points"):
            dot_text([lo, hi], [edge])

    def test_dot_export_is_deterministic(self):
        pts = enumerate_B(3, (1, 0, 0))
        assert dot_export(pts) == dot_export(pts)
        text = ascii_text(dot_export(pts))
        assert "digraph" in text and "->" in text and "kappa=1" in text


class TestGroups:
    def test_mixed_bundle(self):
        g = automorphism_group(parse_bundle("O(3/2)^2+O(1/2)+O(1/3)+O^3"))
        assert ascii_text(g.describe()) == "GL_2(D_{-3/2}) x D^x_{-1/2} x D^x_{-1/3} x GL_3"

    def test_trivial_bundle(self):
        assert ascii_text(automorphism_group(parse_bundle("O^5")).describe()) == "GL_5"

    def test_three_factor_example(self):
        g = automorphism_group(parse_bundle("O(3/4)+O(1/3)+O^3"))
        assert ascii_text(g.describe()) == "D^x_{-3/4} x D^x_{-1/3} x GL_3"

    def test_parabolic_type(self):
        b = bundle_to_b(parse_bundle("O(3/4)+O(1/3)+O^3"))
        assert parabolic_type(b) == (3, 3, 4)


class TestModulus:
    def test_rank_two(self):
        e = parse_bundle("O(1)+O")
        # factor order follows decreasing bundle slope: O(1) then O
        assert modulus_exponents(e).exps == (-1, 1)
        assert kappa_exponents(e).exps == (1, -1)

    def test_trivial_is_trivial_character(self):
        assert modulus_exponents(parse_bundle("O^6")).exps == (0,)

    @given(bundle_specs())
    def test_kappa_is_inverse_and_central_triviality(self, spec):
        delta = modulus_exponents(spec)
        kappa = kappa_exponents(spec)
        assert kappa.exps == tuple(-e for e in delta.exps)
        ranks = [rank for _, rank in automorphism_group(spec).segments]
        assert sum(n * e for n, e in zip(ranks, delta.exps)) == 0
