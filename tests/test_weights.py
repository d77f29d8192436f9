import re
from itertools import permutations, product
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bunncalc.weights as weights
from bunncalc import (
    DomainError,
    ascii_text,
    dual_weight,
    harris_viehmann,
    hecke,
    levi_branching,
    make_F,
    sigma_chi,
    weight_multiplicities,
    weyl_dim,
)
from bunncalc.bundles import BudgetError
from bunncalc.cli import main
from bunncalc.lparams import LParamShape
from bunncalc.weights import _weight_mults_cached, check_dominant, isotypic_slices
from conftest import all_compositions, normalized_weights
from oracles import (
    branching_expansion,
    levi_branching_extraction_oracle,
    levi_branching_oracle,
    schur_monomials,
    sigma_chi_oracle,
    slices_oracle,
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

    def test_string_entry_rejected(self):
        with pytest.raises(DomainError, match="weight entry 'a' is not an integer"):
            check_dominant(("a",))


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


def hook_count(lam):
    """f^lam, the standard tableaux of shape lam, by the hook length formula."""
    cols = [sum(1 for x in lam if x > j) for j in range(lam[0])] if lam else []
    hooks = prod(x - j + cols[j] - i - 1 for i, x in enumerate(lam) for j in range(x))
    return factorial(sum(lam)) // hooks


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

    def test_rsk_identity_at_the_caps(self):
        """sum over lam |- k of f^lam K_{lam, mu} = k!/prod mu_i!, both sides
        counting words of content mu (RSK), for every mu |- k <= 12 with at
        most 8 parts: every table at n = 8, whatever the size."""
        for k in range(13):
            got: dict = {}
            for lam in partitions(k):
                if len(lam) <= 8:
                    for mu, mult in _weight_mults_cached(8, lam + (0,) * (8 - len(lam))):
                        got[mu] = got.get(mu, 0) + hook_count(lam) * mult
            want = {
                mu + (0,) * (8 - len(mu)): factorial(k) // prod(map(factorial, mu))
                for mu in partitions(k)
                if len(mu) <= 8
            }
            assert got == want

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


class TestCacheBounds:
    """The weight caches hold a fixed number of entries, and an evicted
    entry is recomputed to the same result."""

    def test_both_caches_are_bounded(self):
        assert weight_multiplicities.cache_info().maxsize == weights.CACHE_SIZE == 256
        assert levi_branching.cache_info().maxsize == 256
        assert isotypic_slices.cache_info().maxsize == 256
        assert weight_multiplicities.cache_info == _weight_mults_cached.cache_info

    def test_table_unchanged_after_eviction(self):
        # 257 distinct normalized weights: the first is evicted by the last
        keys = [(n, lam) for n in range(1, 9) for lam in normalized_weights(n, 8)][:257]
        assert len(keys) == 257
        weight_multiplicities.cache_clear()
        first = weight_multiplicities(*keys[0])
        for n, lam in keys[1:]:
            weight_multiplicities(n, lam)
        info = weight_multiplicities.cache_info()
        assert (info.misses, info.currsize) == (257, 256)
        assert weight_multiplicities(*keys[0]) == first == weight_mults_oracle(*keys[0])
        assert weight_multiplicities.cache_info().misses == 258

    def test_branching_unchanged_after_eviction(self):
        # 256 shifts of the standard weight of GL_2, each its own entry
        levi_branching.cache_clear()
        first = levi_branching(4, (2, 1, 0, 0), (2, 2))
        for k in range(256):
            levi_branching(2, (k + 1, k), (1, 1))
        info = levi_branching.cache_info()
        assert (info.misses, info.currsize) == (257, 256)
        again = levi_branching(4, (2, 1, 0, 0), (2, 2))
        assert again == first == levi_branching_oracle(4, (2, 1, 0, 0), (2, 2))
        assert levi_branching.cache_info().misses == 258


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


# rank-8 Levis whose blocks after the first peel or two are a torus tail
TORUS_TAILS = [(2,) + (1,) * 6, (3,) + (1,) * 5, (1, 2) + (1,) * 5]


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

    @pytest.mark.parametrize("blocks", TORUS_TAILS, ids=str)
    def test_rank_eight_torus_tails(self, blocks):
        for norm in normalized_weights(8, 6):
            for shift in (0, -1):
                lam = tuple(x + shift for x in norm)
                assert levi_branching(8, lam, blocks) == levi_branching_extraction_oracle(
                    8, lam, blocks
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

    @pytest.mark.parametrize("blocks", TORUS_TAILS, ids=str)
    def test_torus_tail_lists_each_remainder_once(self, blocks, monkeypatch):
        listed = []
        original = weights._weights

        def counting(beta):
            listed.append(beta)
            return original(beta)

        monkeypatch.setattr(weights, "_weights", counting)
        levi_branching.cache_clear()
        levi_branching(8, self.LAM, blocks)
        assert listed and len(listed) == len(set(listed))


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


# the (dims, lam) groups of the benchmark's eigen deck
EIGEN_GROUPS = [
    ((1, 1), (4, 0)),
    ((1, 2), (6, 0, 0)),
    ((1, 1, 1), (3, 0, 0)),
    ((1, 2, 2), (3, 1, 0, 0, 0)),
    ((1, 1, 1, 1), (2, 0, 0, 0)),
]


class TestSigmaChi:
    def test_sym3_lines(self):
        shape = LParamShape.from_dims((1, 1))
        sym = sigma_chi(shape, (3, 0), (2, 1))
        assert sym.terms == ((((2,), (1,)), 1),)
        assert sym.dim == 1
        assert ascii_text(sym.describe()) == "phi1^2(x)phi2"

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

    @pytest.mark.parametrize("n", range(1, 5))
    def test_against_the_filter_oracle(self, n):
        # every character with entries in -1..3, so empty slices too
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            for lam in normalized_weights(n, 3):
                for chi in product(range(-1, 4), repeat=shape.r):
                    assert sigma_chi(shape, lam, chi) == sigma_chi_oracle(shape, lam, chi)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_the_branching_oracle(self, n):
        # the slices of levi_branching_oracle, which splits products off the
        # whole weight character and shares no LR code with sigma_chi; the
        # characters are every slice's, each with one unit moved to a
        # neighbouring block, and ones whose block sizes k_i = d_i - n_i c
        # are negative, exceed lam_1 + ... + lam_a in the first block, or do
        # not add up to the size
        kinds = {"empty": 0, "negative": 0, "over": 0}
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            for norm in normalized_weights(n, 4):
                size, top = sum(norm), sum(norm[: dims[0]])
                for c in (-2, 1):
                    lam = tuple(x + c for x in norm)
                    want: dict = {}
                    for ws, mult in levi_branching_oracle(n, lam, dims):
                        want.setdefault(tuple(map(sum, ws)), []).append((ws, mult))
                    rest = (0,) * (shape.r - 2)
                    pad = (0,) * (shape.r - 1)
                    sizes = {(size + 1,) + pad, (-1,) + pad}
                    if shape.r > 1:
                        sizes |= {(-1, size + 1) + rest, (top + 1, size - top - 1) + rest}
                    for chi in want:
                        for i in range(shape.r - 1):
                            for step in (1, -1):
                                moved = list(chi)
                                moved[i] += step
                                moved[i + 1] -= step
                                sizes.add(tuple(d - m * c for d, m in zip(moved, dims)))
                    chis = set(want) | {tuple(k + m * c for k, m in zip(ks, dims)) for ks in sizes}
                    for chi in chis:
                        terms = sigma_chi(shape, lam, chi).terms
                        assert terms == tuple(want.get(chi, ())), (dims, lam, chi)
                        ks = [d - m * c for d, m in zip(chi, dims)]
                        kinds["empty"] += not terms
                        kinds["negative"] += min(ks) < 0
                        kinds["over"] += ks[0] > top
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_sums_give_the_split_weight(self, n):
        # the character of block sums of lam has one term, lam cut in two,
        # with multiplicity 1: alpha = lam[:a] is the only alpha that large
        for norm in normalized_weights(n, 8):
            for a in range(1, n):
                shape = LParamShape.from_dims((a, n - a))
                lam = tuple(x + a % 3 - 1 for x in norm)
                chi = (sum(lam[:a]), sum(lam[a:]))
                assert sigma_chi(shape, lam, chi).terms == (((lam[:a], lam[a:]), 1),)

    @pytest.mark.parametrize(
        "dims,lam,chi,cap",
        [
            ((4, 5), (1,) + (0,) * 8, (1, 0), "n=9 (max 8)"),
            ((4, 5), (1,) + (0,) * 8, (1, 1), "n=9 (max 8)"),
            ((1,) * 9, (1,) + (0,) * 8, (1,) + (0,) * 8, "n=9 (max 8)"),
            ((1, 1), (13, 0), (13, 0), "size 13 (max 12)"),
            ((1, 1), (13, 0), (14, -1), "size 13 (max 12)"),
            ((2, 2, 2), (13,) + (0,) * 5, (13, 0, 0), "size 13 (max 12)"),
            ((2, 1), (14, 1, 1), (0, 0), "size 13 (max 12)"),
        ],
        ids=["n9", "n9-empty", "n9-torus", "size13", "size13-empty", "size13-three",
             "size13-shifted-empty"],
    )
    def test_budget_rejected(self, dims, lam, chi, cap):
        # the caps of levi_branching, also for a slice that is empty
        with pytest.raises(BudgetError, match=re.escape(cap)):
            sigma_chi(LParamShape.from_dims(dims), lam, chi)

    def test_errors_in_character_weight_cap_order(self):
        shape = LParamShape.from_dims((4, 5))
        over = (13,) + (0,) * 8
        with pytest.raises(DomainError, match="character length 3 does not match 2 components"):
            sigma_chi(shape, over[::-1], (0, 0, 0))
        with pytest.raises(DomainError, match="not dominant"):
            sigma_chi(shape, over[::-1], (13, 0))
        with pytest.raises(BudgetError, match=re.escape("n=9 (max 8), normalized size 13")):
            sigma_chi(shape, over, (13, 0))

    @pytest.mark.parametrize(
        "chi, lam, message",
        [
            ("0,0,0", "0,0,0,0,0,0,0,0,13",
             "error: character length 3 does not match 2 components\n"),
            ("13,0", "0,0,0,0,0,0,0,0,13",
             "error: weight (0, 0, 0, 0, 0, 0, 0, 0, 13) is not dominant (weakly decreasing)\n"),
            ("13,0", "13,0,0,0,0,0,0,0,0",
             "error: weight enumeration out of budget: n=9 (max 8), "
             "normalized size 13 (max 12)\n"),
        ],
        ids=["character-length", "weight", "cap"],
    )
    def test_cli_error_precedence(self, chi, lam, message, capsys):
        argv = ["weights", "sigma", "--dims", "4,5", "--lambda", lam, "--chi", chi]
        assert main(argv) == 1
        assert capsys.readouterr().err == message

    def test_reads_no_branching(self, monkeypatch):
        # a fallback to the whole branching, cached or not, fails here
        calls = []

        def counting(*args):
            calls.append(args)
            return levi_branching(*args)

        monkeypatch.setattr(weights, "levi_branching", counting)
        before = weights._levi_branching_cached.cache_info()
        groups = EIGEN_GROUPS + [((4, 4), (6, 3, 0, -1, -1, -1, -1, -1))]
        hits = 0
        for dims, lam in groups:
            shape = LParamShape.from_dims(dims)
            for chi in product(range(-1, 3), repeat=shape.r):
                hits += bool(sigma_chi(shape, lam, chi).terms)
                hits += bool(harris_viehmann(shape, chi, lam).pieces)
        assert hits and not calls
        assert weights._levi_branching_cached.cache_info() == before
        # the slices, by contrast, do branch on a miss of their own cache
        isotypic_slices.cache_clear()
        isotypic_slices(LParamShape.from_dims((1, 1)), (4, 0))
        assert calls == [(2, (4, 0), (1, 1))]

    def test_peels_sized_and_lists_no_weights(self, monkeypatch):
        # the whole peel filtered by character would pass the oracles; here
        # every top-level call of the LR peel carries the block size, and no
        # weight is listed from a Kostka table, not even on the torus
        groups = EIGEN_GROUPS + [((1,) * n, (2, 1) + (0,) * (n - 3) + (-1,)) for n in range(3, 7)]
        cases = []
        for dims, lam in groups:
            shape = LParamShape.from_dims(dims)
            cases += [(shape, lam, chi, sym) for chi, sym in isotypic_slices(shape, lam)]
        peel = weights._lr_peel
        sizes = []

        def sized_peel(lam, a, i, alpha, ends, content, v, q, row_ends, row_content, out, left):
            if i == 0 and v < 0:
                sizes.append(left)
            peel(lam, a, i, alpha, ends, content, v, q, row_ends, row_content, out, left)

        def no_weights(lam):
            raise AssertionError(f"weights of {lam} listed")

        monkeypatch.setattr(weights, "_lr_peel", sized_peel)
        monkeypatch.setattr(weights, "_weights", no_weights)
        for shape, lam, chi, sym in cases:
            assert sigma_chi(shape, lam, chi) == sym
        assert sizes and None not in sizes


class TestIsotypicSlices:
    """The cached (chi, slice) pairs against the filter oracle and the
    one-slice peel, and the cache that holds them."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_the_oracles(self, n):
        for dims in all_compositions(n):
            shape = LParamShape.from_dims(dims)
            for norm in normalized_weights(n, 4):
                for c in (0, -1):
                    lam = tuple(x + c for x in norm)
                    pairs = isotypic_slices(shape, lam)
                    assert pairs == tuple(slices_oracle(shape, lam)), (dims, lam)
                    for chi, sym in pairs:
                        assert sym == sigma_chi(shape, lam, chi), (dims, lam, chi)

    def test_second_hecke_shares_the_symbols(self):
        shape = LParamShape.from_dims((1, 2))
        lam = (2, 1, 0)
        isotypic_slices.cache_clear()
        first = hecke(shape, lam, make_F(shape, (0, 0)))
        before = isotypic_slices.cache_info()
        second = hecke(shape, lam, make_F(shape, (1, -1)))
        after = isotypic_slices.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert [sym for _, _, sym in first.terms] == [sym for _, _, sym in second.terms]
        assert all(a[2] is b[2] for a, b in zip(first.terms, second.terms))

    def test_labels_key_the_cache_and_torsion_does_not(self):
        lam = (1, 0, 0)
        isotypic_slices.cache_clear()
        plain = isotypic_slices(LParamShape.from_dims((1, 2)), lam)
        named = isotypic_slices(LParamShape.from_dims((1, 2), labels=("a", "b")), lam)
        twisted = isotypic_slices(LParamShape.from_dims((1, 2), torsion=(2, 3)), lam)
        assert isotypic_slices.cache_info().currsize == 2
        assert twisted is plain
        assert [chi for chi, _ in named] == [chi for chi, _ in plain] == [(1, 0), (0, 1)]
        assert [sym.describe() for _, sym in plain] == ["phi1", "phi2"]
        assert [sym.describe() for _, sym in named] == ["a", "b"]

    def test_cache_clear_empties_the_cache(self):
        isotypic_slices(LParamShape.from_dims((1, 1)), (2, 0))
        assert isotypic_slices.cache_info().currsize >= 1
        isotypic_slices.cache_clear()
        info = isotypic_slices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


class TestDuals:
    def test_dual_weight(self):
        assert dual_weight((3, 0)) == (0, -3)
        assert dual_weight((1, 1, 0)) == (0, -1, -1)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    def test_involution(self, raw):
        lam = tuple(sorted(raw, reverse=True))
        assert dual_weight(dual_weight(lam)) == lam
