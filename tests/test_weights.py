import re
from itertools import permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bunncalc import (
    DomainError,
    dual_weight,
    levi_branching,
    sigma_chi,
    weight_multiplicities,
    weyl_dim,
)
from bunncalc.kottwitz import BudgetError
from bunncalc.lparams import LParamShape
from bunncalc.weights import _weight_mults_cached
from conftest import all_compositions, normalized_weights
from oracles import (
    branching_expansion,
    levi_branching_extraction_oracle,
    levi_branching_oracle,
    schur_monomials,
    weight_mults_oracle,
    weight_mults_rows_oracle,
)


def branched_dim(terms, blocks):
    """Total dimension of a branching: sum of mult * prod of block dimensions."""
    total = 0
    for ws, mult in terms:
        prod = 1
        for w, m in zip(ws, blocks):
            prod *= weyl_dim(w, m)
        total += mult * prod
    return total


class TestWeylDim:
    def test_standard_gl2(self):
        assert weyl_dim((1, 0), 2) == 2

    def test_sym3_gl2(self):
        assert weyl_dim((3, 0), 2) == 4

    def test_adjointish_gl3(self):
        assert weyl_dim((2, 1, 0), 3) == 8

    def test_negative_entries(self):
        assert weyl_dim((0, -1), 2) == 2

    @given(st.integers(2, 5), st.data())
    def test_exterior_powers(self, n, data):
        a = data.draw(st.integers(0, n))
        lam = (1,) * a + (0,) * (n - a)
        assert weyl_dim(lam, n) == comb(n, a)

    def test_non_dominant_rejected(self):
        with pytest.raises(DomainError):
            weyl_dim((0, 1), 2)


class TestWeightMultiplicities:
    def test_sym3_gl2(self):
        assert weight_multiplicities(2, (3, 0)) == {
            (3, 0): 1,
            (2, 1): 1,
            (1, 2): 1,
            (0, 3): 1,
        }

    def test_exterior_square_gl4(self):
        mult = weight_multiplicities(4, (1, 1, 0, 0))
        assert len(mult) == 6 and set(mult.values()) == {1}

    def test_gl3_with_inner_multiplicity(self):
        mult = weight_multiplicities(3, (2, 1, 0))
        assert sum(mult.values()) == 8
        assert mult[(1, 1, 1)] == 2

    def test_rank_zero_rejected(self):
        with pytest.raises(DomainError):
            weight_multiplicities(0, ())
        with pytest.raises(DomainError):
            levi_branching(0, (), ())

    def test_budget_rejected(self):
        with pytest.raises(BudgetError):
            weight_multiplicities(9, (1,) + (0,) * 8)
        with pytest.raises(BudgetError):
            weight_multiplicities(2, (13, 0))

    @pytest.mark.parametrize(
        "n,lam,blocks,cap",
        [
            (9, (1,) + (0,) * 8, (4, 5), "n=9 (max 8)"),
            (2, (13, 0), (1, 1), "size 13 (max 12)"),
            (6, (13,) + (0,) * 5, (2, 2, 2), "size 13 (max 12)"),
            (3, (14, 1, 1), (1, 1, 1), "size 13 (max 12)"),
        ],
    )
    def test_branching_budget_rejected(self, n, lam, blocks, cap):
        # the LR peel never counts the weights of lam itself, so the
        # branching checks the budget on its own
        with pytest.raises(BudgetError, match=re.escape(cap)):
            levi_branching(n, lam, blocks)

    @pytest.mark.parametrize("n,lam", [(3, (2, 1, 0)), (4, (2, 1, 1, 0)), (2, (5, 0))])
    def test_total_is_weyl_dim(self, n, lam):
        assert sum(weight_multiplicities(n, lam).values()) == weyl_dim(lam, n)

    @pytest.mark.parametrize("n,lam", [(3, (2, 1, 0)), (4, (3, 1, 0, 0))])
    def test_symmetric_under_permutations(self, n, lam):
        mult = weight_multiplicities(n, lam)
        for w, m in mult.items():
            for p in permutations(w):
                assert mult[tuple(p)] == m

    @pytest.mark.parametrize("n,lam", [(2, (3, 0)), (3, (2, 1, 0)), (4, (2, 1, 0, 0))])
    def test_matches_schur_monomials(self, n, lam):
        assert weight_multiplicities(n, lam) == dict(schur_monomials(lam, n))

    def test_negative_entries_shift(self):
        mult = weight_multiplicities(2, (1, -1))
        shifted = weight_multiplicities(2, (2, 0))
        assert mult == {tuple(x - 1 for x in w): m for w, m in shifted.items()}


def partitions(size, cap=None):
    """Every partition of ``size`` with parts at most ``cap``, as tuples."""
    cap = size if cap is None else cap
    if size == 0:
        return [()]
    return [
        (v,) + rest
        for v in range(min(size, cap), 0, -1)
        for rest in partitions(size - v, v)
    ]


def dominates(lam, mu):
    """Partial sums of lam are at least those of mu (lam, mu partitions)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if b > a:
            return False
    return True


def orbit_size(mu):
    return factorial(len(mu)) // prod(factorial(mu.count(v)) for v in set(mu))


def table_weights():
    """Every normalized dominant weight with n <= 6 and size <= 8, and with
    n = 7, 8 and size <= 6: 249 weights."""
    for n in range(1, 9):
        yield from ((n, lam) for lam in normalized_weights(n, 8 if n <= 6 else 6))


class TestKostkaTable:
    """The dominant-weight table and the orbits listed from it, against the
    triangular-pattern oracles and counted without a clock."""

    @pytest.mark.parametrize("shift", [-2, 0, 2])
    def test_multiplicities_match_both_oracles(self, shift):
        for n, lam in table_weights():
            lam_s = tuple(x + shift for x in lam)
            got = weight_multiplicities(n, lam_s)
            # the row count lists its weights in ascending order, as the dict must
            assert list(got.items()) == list(weight_mults_rows_oracle(n, lam_s).items())
            assert got == weight_mults_oracle(n, lam_s)

    @pytest.mark.parametrize("shift", [-2, 0, 2])
    def test_torus_branch_matches_row_oracle(self, shift):
        for n, lam in table_weights():
            lam_s = tuple(x + shift for x in lam)
            rows = weight_mults_rows_oracle(n, lam_s)
            want = tuple((tuple(zip(w)), m) for w, m in reversed(rows.items()))
            assert levi_branching(n, lam_s, (1,) * n) == want

    @pytest.mark.parametrize("lam", [(4, 2, 1, 0, 0), (2, 1, 0, -1, -2)])
    def test_torus_terms_share_their_one_entry_blocks(self, lam):
        levi_branching.cache_clear()
        terms = levi_branching(5, lam, (1,) * 5)
        blocks = {id(b) for ws, _ in terms for b in ws}
        assert len(blocks) <= lam[0] - lam[-1] + 1

    def test_table_holds_the_dominated_partitions(self):
        for n, lam in table_weights():
            size = sum(lam)
            shape = tuple(x for x in lam if x)
            want = {
                mu + (0,) * (n - len(mu))
                for mu in partitions(size)
                if len(mu) <= n and dominates(shape, mu)
            }
            table = _weight_mults_cached(n, lam)
            assert len(table) == len(want) <= len(partitions(size))
            assert {mu for mu, _ in table} == want
            assert all(k >= 1 for _, k in table)

    @pytest.mark.parametrize("lam", [(7, 4, 1, 0, 0, 0, 0, 0), (12, 0, 0, 0, 0, 0, 0, 0)])
    def test_orbit_sizes_sum_to_weyl_dim(self, lam):
        table = _weight_mults_cached(8, lam)
        assert sum(k * orbit_size(mu) for mu, k in table) == weyl_dim(lam, 8)

    def test_one_table_per_normalized_weight(self):
        _weight_mults_cached.cache_clear()
        levi_branching.cache_clear()
        lam = (4, 2, 1, 0, 0)
        for lam_s in (lam, tuple(x + 2 for x in lam)):
            weight_multiplicities(5, lam_s)
            levi_branching(5, lam_s, (1,) * 5)
        assert _weight_mults_cached.cache_info().currsize == 1


class TestAgainstPatternOracles:
    """The Kostka table and the block-dominant walk against the earlier
    pattern-by-pattern enumeration and whole-character extraction."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_weight_and_block_split(self, n):
        for lam in normalized_weights(n, 5):
            for shift in (0, -2):
                lam_s = tuple(x + shift for x in lam)
                assert weight_multiplicities(n, lam_s) == weight_mults_oracle(n, lam_s)
                for blocks in all_compositions(n):
                    assert levi_branching(n, lam_s, blocks) == levi_branching_oracle(
                        n, lam_s, blocks
                    )


class TestAgainstExtractionOracle:
    """The LR peel against the walk over the block-dominant weights of the
    whole character that it replaced."""

    def test_rank_seven_two_and_three_blocks(self):
        splits = [c for c in all_compositions(7) if len(c) in (2, 3)]
        for lam in normalized_weights(7, 4):
            for blocks in splits:
                assert levi_branching(7, lam, blocks) == levi_branching_extraction_oracle(
                    7, lam, blocks
                )


class TestPeelCounts:
    """Which branchings reach the Kostka table, counted on its cache."""

    LAM = (5, 3, 2, 1, 1, 0, 0, 0)

    def misses(self, blocks):
        _weight_mults_cached.cache_clear()
        levi_branching.cache_clear()
        levi_branching(8, self.LAM, blocks)
        return _weight_mults_cached.cache_info().misses

    def test_two_blocks_never_count_weights(self):
        assert self.misses((4, 4)) == 0

    def test_torus_counts_the_weight_once(self):
        assert self.misses((1,) * 8) == 1


class TestBudgetEdge:
    """The largest inputs the weight budget admits finish in about a second."""

    LAM = (7, 4, 1, 0, 0, 0, 0, 0)

    def test_largest_dimension_in_budget(self):
        total = sum(weight_multiplicities(8, self.LAM).values())
        assert total == weyl_dim(self.LAM, 8) == 1537536

    @pytest.mark.parametrize("blocks", [(1, 7), (4, 4), (3, 3, 2), (2, 2, 2, 2)])
    def test_block_branch_at_largest_dimension(self, blocks):
        terms = levi_branching(8, self.LAM, blocks)
        assert branched_dim(terms, blocks) == weyl_dim(self.LAM, 8) == 1537536

    def test_torus_branch_at_budget_edge(self):
        lam = (5, 3, 2, 1, 1, 0, 0, 0)
        blocks = (1,) * 8
        assert branched_dim(levi_branching(8, lam, blocks), blocks) == weyl_dim(lam, 8)


class TestLeviBranching:
    def test_standard_splits_into_block_standards(self):
        terms = levi_branching(5, (1, 0, 0, 0, 0), (2, 3))
        assert set(terms) == {
            (((1, 0), (0, 0, 0)), 1),
            (((0, 0), (1, 0, 0)), 1),
        }

    def test_exterior_power_distributes(self):
        terms = levi_branching(4, (1, 1, 0, 0), (2, 2))
        expect = {
            (((1, 1), (0, 0)), 1),
            (((1, 0), (1, 0)), 1),
            (((0, 0), (1, 1)), 1),
        }
        assert set(terms) == expect

    def test_trivial_weight(self):
        assert levi_branching(4, (0, 0, 0, 0), (1, 3)) == ((((0,), (0, 0, 0)), 1),)

    def test_block_mismatch_rejected(self):
        with pytest.raises(DomainError):
            levi_branching(4, (1, 0, 0, 0), (2, 3))

    def test_list_arguments(self):
        # the arguments are checked before they reach the cache
        want = levi_branching(4, (1, 0, 0, 0), (2, 2))
        assert levi_branching(4, [1, 0, 0, 0], (2, 2)) == want
        assert levi_branching(4, (1, 0, 0, 0), [2, 2]) == want
        assert levi_branching(3, [1, 0, -1], [2, 1]) == levi_branching(3, (1, 0, -1), (2, 1))

    def test_cache_shared_by_checked_arguments(self):
        levi_branching.cache_clear()
        levi_branching(4, [1, 0, 0, 0], [2, 2])
        levi_branching(4, (1.0, 0, 0, 0), (2, 2))
        info = levi_branching.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_shifted_weight_takes_one_cache_entry(self):
        levi_branching.cache_clear()
        terms = levi_branching(4, (1, 0, 0, -1), (2, 2))
        info = levi_branching.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert terms == levi_branching_oracle(4, (1, 0, 0, -1), (2, 2))

    @pytest.mark.parametrize(
        "n,lam,blocks",
        [
            (4, (2, 1, 0, 0), (2, 2)),
            (5, (2, 1, 0, 0, 0), (2, 3)),
            (5, (3, 2, 1, 0, 0), (1, 4)),
            (4, (2, 2, 1, 1), (2, 2)),
        ],
    )
    def test_against_schur_expansion(self, n, lam, blocks):
        terms = levi_branching(n, lam, blocks)
        assert branching_expansion(n, terms, blocks) == dict(schur_monomials(lam, n))

    @pytest.mark.parametrize("n,blocks", [(4, (2, 2)), (5, (2, 2, 1)), (6, (3, 3))])
    def test_dimension_identity(self, n, blocks):
        lam = (2, 1) + (0,) * (n - 2)
        assert branched_dim(levi_branching(n, lam, blocks), blocks) == weyl_dim(lam, n)

    @given(st.integers(2, 6), st.data())
    def test_minuscule_multiplicity_free(self, n, data):
        a = data.draw(st.integers(1, n - 1))
        blocks = data.draw(
            st.sampled_from([c for c in all_compositions(n) if len(c) <= 3])
        )
        lam = (1,) * a + (0,) * (n - a)
        for _, mult in levi_branching(n, lam, blocks):
            assert mult == 1

    def test_negative_weight_reattaches_twist(self):
        # branching of a determinant-twisted weight is the twisted branching
        lam = (1, 0, -1)
        terms = levi_branching(3, lam, (2, 1))
        shifted = levi_branching(3, (2, 1, 0), (2, 1))
        expect = {
            (tuple(tuple(x - 1 for x in w) for w in ws), m) for ws, m in shifted
        }
        assert set(terms) == expect


class TestSigmaChi:
    def test_sym3_lines(self):
        shape = LParamShape.from_dims((1, 1))
        sym = sigma_chi(shape, (3, 0), (2, 1))
        assert sym.terms == ((((2,), (1,)), 1),)
        assert sym.dim == 1
        assert sym.describe(ascii_mode=True) == "phi1^2(x)phi2"

    def test_standard_hits_unit_characters(self):
        shape = LParamShape.from_dims((3, 2))
        std = (1, 0, 0, 0, 0)
        assert sigma_chi(shape, std, (1, 0)).dim == 3
        assert sigma_chi(shape, std, (0, 1)).dim == 2
        assert sigma_chi(shape, std, (1, 1)).dim == 0

    def test_minuscule_products_of_binomials(self):
        shape = LParamShape.from_dims((3, 2, 2))
        lam = (1, 1, 1, 0, 0, 0, 0)
        sym = sigma_chi(shape, lam, (1, 1, 1))
        assert len(sym.terms) == 1
        assert sym.dim == comb(3, 1) * comb(2, 1) * comb(2, 1)

    @pytest.mark.parametrize(
        "dims,lam",
        [((1, 1), (3, 0)), ((2, 1), (1, 1, 0)), ((2, 2), (2, 0, 0, 0)), ((3, 1), (1, 1, 0, 0))],
    )
    def test_isotypic_dimensions_exhaust(self, dims, lam):
        shape = LParamShape.from_dims(dims)
        chis = set()
        for ws, _ in levi_branching(shape.n, lam, dims):
            chis.add(tuple(sum(w) for w in ws))
        total = sum(sigma_chi(shape, lam, chi).dim for chi in chis)
        assert total == weyl_dim(lam, shape.n)


class TestDuals:
    def test_dual_weight(self):
        assert dual_weight((3, 0)) == (0, -3)
        assert dual_weight((1, 1, 0)) == (0, -1, -1)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    def test_involution(self, raw):
        lam = tuple(sorted(raw, reverse=True))
        assert dual_weight(dual_weight(lam)) == lam
