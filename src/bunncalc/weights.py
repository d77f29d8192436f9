"""Weight multiplicities, Levi branching, and centralizer-isotypic slices of
highest-weight representations of GL_n.

After the determinant twist that makes lam a partition, the multiplicity of
a weight is a Kostka number K_{lam, mu}, mu the weight sorted, and so is the
same on every S_n-orbit.  Only the dominant weights are counted, by peeling
horizontal strips, into one cached table per partition; every other weight
is listed from the orbit of a dominant one, with the twist put back once.
Branching to a block Levi peels off one block at a time by the
Littlewood-Richardson rule, counting LR fillings rather than weights, and
recurses on the remainder with a memo that lives for one call; a tail of
size-1 blocks is the torus, whose terms are the weights themselves.  The
isotypic slices are that branching's terms grouped once by their
per-block central characters, for the callers that read every slice.  One
slice alone (sigma_chi) is branched by the same peel with the size of each
block's weight fixed by the character, so the other slices are never built.
Everything is exact and desk scale by design.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from .bundles import BudgetError, DomainError, as_int, check_dominant, record

if TYPE_CHECKING:
    from .lparams import Character, LParamShape

HighestWeight = tuple[int, ...]

# caps on weight counting; weight size is measured after the
# determinant-twist normalization
MAX_N = 8
MAX_WEIGHT_SIZE = 12


def dual_weight(lam) -> HighestWeight:
    """Highest weight of the dual representation: negated and reversed."""
    lam = check_dominant(lam)
    return tuple(-x for x in reversed(lam))


def weyl_dim(lam, m: int) -> int:
    """prod_{a<b} (lam_a - lam_b + b - a)/(b - a), as one exact division."""
    lam = check_dominant(lam, m)
    num = 1
    den = 1
    for a in range(m):
        for b in range(a + 1, m):
            num *= lam[a] - lam[b] + b - a
            den *= b - a
    return num // den


def _check_budget(n: int, norm: HighestWeight) -> None:
    """Refuse ranks above MAX_N and normalized sizes above MAX_WEIGHT_SIZE."""
    if n > MAX_N or sum(norm) > MAX_WEIGHT_SIZE:
        raise BudgetError(
            f"weight enumeration out of budget: n={n} (max {MAX_N}), "
            f"normalized size {sum(norm)} (max {MAX_WEIGHT_SIZE})"
        )


def _dominated(bounds: tuple[int, ...], mu: tuple, cap: int, left: int, out: list) -> None:
    """Append to ``out`` every partition that extends ``mu`` by parts of at
    most ``cap`` summing to ``left``, has at most len(bounds) parts, and is
    dominated by the partition whose partial sums are ``bounds``."""
    if left == 0:
        out.append(mu)
        return
    i = len(mu)
    top = min(cap, left, bounds[i] - bounds[-1] + left)
    # the parts still to come are at most v each and fill the other slots
    for v in range(top, -(-left // (len(bounds) - i)) - 1, -1):
        _dominated(bounds, mu + (v,), v, left - v, out)


def _strips(lam: tuple, i: int, left: int, nu: tuple, out: list) -> None:
    """Append to ``out`` every nu (trailing zeros dropped) with lam/nu a
    horizontal strip that takes ``left`` cells from rows i, i + 1, ...

    Row i gives up at most lam[i] - lam[i + 1] cells, and rows i, i + 1, ...
    together at most lam[i], so every row's range leaves a strip to finish,
    and there is none when ``left`` exceeds lam[i].
    """
    if i == len(lam) - 1:
        last = lam[i] - left
        out.append(nu + (last,) if last else nu)
        return
    below = lam[i + 1]
    for r in range(min(left, lam[i] - below), max(0, left - below) - 1, -1):
        _strips(lam, i + 1, left - r, nu + (lam[i] - r,), out)


def _kostka(nu: tuple, rest: tuple, memo: dict) -> int:
    """K_{nu, rest}, the semistandard tableaux of shape nu and content rest
    (both partitions, with |nu| = |rest|).

    The count does not depend on the order of the content, so the entries
    rest[0] may be taken as the largest: they fill a horizontal strip at the
    rim of nu.  Peel every such strip and count the rest, memoised by (shape,
    remaining content).  This is the one-row case of the LR peel below.
    """
    if len(nu) <= 1:
        return 1
    # a tableau with entries 1..len(rest) has at most len(rest) rows
    if len(nu) > len(rest):
        return 0
    key = (nu, rest)
    count = memo.get(key)
    if count is None:
        strips: list = []
        _strips(nu, 0, rest[0], (), strips)
        tail = rest[1:]
        count = memo[key] = sum(_kostka(sub, tail, memo) for sub in strips)
    return count


@lru_cache(maxsize=None)
def _weight_mults_cached(n: int, norm: HighestWeight) -> tuple[tuple[HighestWeight, int], ...]:
    """(mu, K_{norm, mu}) for every dominant weight mu of r_norm, that is,
    every partition mu dominated by the partition ``norm`` with at most n
    parts, padded to length n.  Every other weight is a permutation of one of
    these, with the same multiplicity."""
    _check_budget(n, norm)
    bounds = tuple(accumulate(norm))
    mus: list = []
    _dominated(bounds, (), norm[0], bounds[-1], mus)
    shape = tuple(x for x in norm if x)
    memo: dict = {}
    return tuple((mu + (0,) * (n - len(mu)), _kostka(shape, mu, memo)) for mu in mus)


def _orbit(mu: HighestWeight, memo: dict) -> list[HighestWeight]:
    """The distinct permutations of the weakly decreasing ``mu``, descending
    lexicographically: each distinct entry in turn, followed by the orbit of
    the rest.  ``memo`` keeps the orbit of every sub-multiset met."""
    out = memo.get(mu)
    if out is None:
        if len(mu) == 1:
            out = [mu]
        else:
            out = []
            for i, v in enumerate(mu):
                if i == 0 or v != mu[i - 1]:
                    head = (v,)
                    out += [head + w for w in _orbit(mu[:i] + mu[i + 1:], memo)]
        memo[mu] = out
    return out


def _weights(lam: HighestWeight) -> list[tuple[HighestWeight, int]]:
    """(weight, multiplicity) pairs of r_lam for dominant lam, ascending
    lexicographically.

    The Kostka table of the normalized weight lam - c, c = lam_n, gives each
    dominant weight with its multiplicity; shift it by c once and list its
    orbit, so every pair listed is a weight of r_lam itself.
    """
    c = lam[-1]
    orbits: dict = {}
    out: list = []
    for mu, mult in _weight_mults_cached(len(lam), tuple(x - c for x in lam)):
        out.extend(zip(_orbit(tuple(x + c for x in mu), orbits), repeat(mult)))
    # each orbit is one sorted run, so the sort only merges the runs
    out.sort(key=itemgetter(0))
    return out


def weight_multiplicities(n: int, lam) -> dict[HighestWeight, int]:
    """Map weight -> multiplicity for r_lam on GL_n, in ascending order.

    Dominant lam may have negative entries; they are absorbed into a
    determinant twist.  The multiplicity of a weight w is the Kostka number
    K_{lam - c, sort(w) - c}, c = lam_n, which is the same on the whole
    S_n-orbit of w, so only the dominant weights are counted.
    """
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    lam = check_dominant(lam, n)
    return dict(_weights(lam))


def _lr_rows(lam, a, i, alpha, ends, content, out, left=None) -> None:
    """Fill rows i, i + 1, ... of an LR tableau of shape lam/alpha and count
    each finished filling in ``out`` under (alpha, content).

    ``ends[v]`` is the column just past the entries <= v of row i - 1 (the
    cells of alpha count as entries 0), so an entry v + 1 of row i must stand
    left of it; ``content[v]`` counts the entries v + 1 in rows above i.
    ``left``, when given, is the number of cells of alpha still to place:
    row i takes at most that many, and at least what rows i + 1, ..., a - 1
    cannot hold, so every alpha filled has the size asked for.
    """
    if i == len(lam) or lam[i] == 0:
        key = (alpha + (0,) * (a - len(alpha)), content)
        out[key] = out.get(key, 0) + 1
        return
    if i >= a:
        _lr_cells(lam, a, i, alpha, ends, content, 0, 0, (0,), (), out, left)
        return
    top, low = min(lam[i], ends[0]), 0
    if left is not None:
        top, low = min(top, left), max(0, left - sum(lam[i + 1:a]))
    for s in range(top, low - 1, -1):
        rest = None if left is None else left - s
        _lr_cells(lam, a, i, alpha + (s,), ends, content, 0, s, (s,), (), out, rest)


def _lr_cells(lam, a, i, alpha, ends, content, v, q, row_ends, row_content, out, left) -> None:
    """Place the entries v + 1 of row i from column q on, then the larger ones.

    Rows weakly increase, so the entries v + 1 are one run; columns strictly
    increase, so the run ends by ``ends[v]``; and the reading word (rows top
    down, each right to left) stays a lattice word exactly when no row holds
    more entries v + 1 than the rows above hold entries v beyond entries v + 1.
    """
    m = len(content)
    end = lam[i]
    if v == m:
        _lr_rows(lam, a, i + 1, alpha, row_ends[:m], row_content, out, left)
        return
    top = min(end, max(q, ends[v]))
    if v:
        top = min(top, q + content[v - 1] - content[v])
    # the largest entry fills the rest of the row
    low = end if v == m - 1 else q
    for stop in range(top, low - 1, -1):
        _lr_cells(
            lam, a, i, alpha, ends, content, v + 1, stop,
            row_ends + (stop,), row_content + (content[v] + stop - q,), out, left,
        )


def _branch(lam: HighestWeight, blocks: tuple[int, ...], memo: dict):
    """Branching of the partition ``lam`` to ``blocks`` as (block weights,
    multiplicity) pairs.  ``memo`` maps each peeled remainder met so far to
    its branching; the remainder's length fixes which tail of ``blocks`` it
    meets.  A torus tail lists the weights of its remainder, each weight
    one block per entry, from the cached Kostka table each time; the
    one-entry blocks (v,) are built once per call and shared by its terms.
    """
    if len(blocks) == 1:
        return (((lam,), 1),)
    if len(blocks) == len(lam):
        one = {v: (v,) for v in range(lam[-1], lam[0] + 1)}.__getitem__
        return ((tuple(map(one, w)), mult) for w, mult in reversed(_weights(lam)))
    out = memo.get(lam)
    if out is None:
        a = blocks[0]
        m = len(lam) - a
        peel: dict = {}
        # the first row has no row above it to bound its columns
        _lr_rows(lam, a, 0, (), (lam[0],) * m, (0,) * m, peel)
        out = memo[lam] = {}
        for (alpha, beta), c in peel.items():
            for rest, mult in _branch(beta, blocks[1:], memo):
                key = (alpha,) + rest
                out[key] = out.get(key, 0) + c * mult
    return out.items()


def _slice(lam: HighestWeight, blocks: tuple[int, ...], sizes: tuple[int, ...], memo: dict):
    """The terms of ``_branch(lam, blocks, ...)`` whose block weights have
    the sizes ``sizes``, as a mapping (block weights) -> multiplicity.  The
    first block is peeled with |alpha| = sizes[0], and not at all when that
    lies outside 0..lam_1 + ... + lam_a.  ``memo`` maps each peeled
    remainder to its terms for this call; as in ``_branch``, the
    remainder's length fixes the blocks and sizes it still meets.  |lam| =
    sum(sizes) is the caller's to check."""
    if len(blocks) == 1:
        return {(lam,): 1}
    out = memo.get(lam)
    if out is None:
        a = blocks[0]
        m = len(lam) - a
        peel: dict = {}
        if 0 <= sizes[0] <= sum(lam[:a]):
            _lr_rows(lam, a, 0, (), (lam[0],) * m, (0,) * m, peel, sizes[0])
        out = memo[lam] = {}
        for (alpha, beta), c in peel.items():
            for rest, mult in _slice(beta, blocks[1:], sizes[1:], memo).items():
                ws = (alpha,) + rest
                out[ws] = out.get(ws, 0) + c * mult
    return out


def _descending(terms, c: int) -> tuple:
    """Branching terms of a normalized weight, sorted descending, with the
    shift c added back to every block weight."""
    terms = sorted(terms, reverse=True)
    if c == 0:
        return tuple(terms)
    return tuple((tuple(tuple(x + c for x in w) for w in ws), mult) for ws, mult in terms)


def levi_branching(
    n: int, lam: HighestWeight, blocks: tuple[int, ...]
) -> tuple[tuple[tuple[HighestWeight, ...], int], ...]:
    """Restrict r_lam to GL_{n_1} x ... x GL_{n_r}.

    Returns ((lam^(1), ..., lam^(r)), mult) pairs, descending lexicographically
    on the concatenated weights.  After the determinant shift that makes
    lam a partition, peel off the first block by the Littlewood-Richardson
    rule: alpha (x) beta occurs c^lam_{alpha,beta} times, one for each LR
    filling of lam/alpha with content beta and entries at most n - n_1.  Then
    branch each beta to the remaining blocks the same way, memoised for this
    call only.  A remainder of size-1 blocks is the torus, whose terms are
    the weights with their multiplicities, listed from the orbits of the
    dominant ones.  Branching to the torus itself skips the shift: it lists
    the weights of lam, twist included, in the order of the result.
    """
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    lam = check_dominant(lam, n)
    blocks = tuple(as_int(b, "block size") for b in blocks)
    if sum(blocks) != n or any(b < 1 for b in blocks):
        raise DomainError(f"blocks {blocks} do not partition {n}")
    return _levi_branching_cached(n, lam, blocks)


@lru_cache(maxsize=None)
def _levi_branching_cached(n: int, lam: HighestWeight, blocks: tuple[int, ...]):
    # n blocks partitioning n are the torus
    if len(blocks) == n:
        return tuple(_branch(lam, blocks, {}))
    c = lam[-1]
    norm = tuple(x - c for x in lam)
    _check_budget(n, norm)
    # one cache entry per request: the normalized terms are shifted here
    return _descending(_branch(norm, blocks, {}), c)


levi_branching.cache_info = _levi_branching_cached.cache_info
levi_branching.cache_clear = _levi_branching_cached.cache_clear


def _monomial_str(w: HighestWeight, label: str) -> str:
    if all(x == 0 for x in w):
        return "1"
    if len(w) == 1:
        k = w[0]
        return label if k == 1 else f"{label}^{k}"
    if all(x in (0, 1) for x in w):
        d = sum(w)
        return label if d == 1 else f"Λ^{d} {label}"
    if w[0] > 1 and all(x == 0 for x in w[1:]):
        return f"Sym^{w[0]} {label}"
    return f"S_({','.join(map(str, w))})({label})"


@record
class WeilSymbol:
    """Formal sum of tensor monomials of per-component highest weights."""

    blocks: tuple[int, ...]
    labels: tuple[str, ...]
    terms: tuple[tuple[tuple[HighestWeight, ...], int], ...]

    def __post_init__(self) -> None:
        monos = [ws for ws, _ in self.terms]
        if len(set(monos)) != len(monos):
            raise DomainError("monomials must be pairwise distinct")
        if any(m < 1 for _, m in self.terms):
            raise DomainError("multiplicities must be positive")

    @property
    def dim(self) -> int:
        total = 0
        for ws, mult in self.terms:
            prod = 1
            for w, m in zip(ws, self.blocks):
                prod *= weyl_dim(w, m)
            total += mult * prod
        return total

    def describe(self, dual: bool = False) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for ws, mult in self.terms:
            factors = [_monomial_str(w, label) for w, label in zip(ws, self.labels)]
            mono = "⊗".join([f for f in factors if f != "1"] or ["1"])
            if dual:
                mono = f"({mono})∨"
            if mult != 1:
                mono = f"{mult}·{mono}"
            rendered.append(mono)
        return " ⊕ ".join(rendered)


def isotypic_slices(shape: LParamShape, lam: HighestWeight) -> dict[Character, tuple]:
    """The branching terms of r_lam to the component blocks, grouped by their
    character chi (the per-block central characters |lam^(i)|); each group
    keeps branching order.  lam must already be checked.  For the callers
    that read every slice; one slice is ``sigma_chi``'s, which branches
    only that slice."""
    slices: dict[Character, list] = {}
    for ws, mult in levi_branching(shape.n, lam, shape.dims):
        slices.setdefault(tuple(map(sum, ws)), []).append((ws, mult))
    return {chi: tuple(terms) for chi, terms in slices.items()}


def sigma_chi(shape: LParamShape, lam, chi: Character) -> WeilSymbol:
    """Isotypic slice of r_lam for the centralizer character chi: the terms
    of the branching whose per-block central characters match the exponents
    d_i, descending, none if no term does; the same terms as
    ``isotypic_slices(shape, lam).get(chi, ())``.

    Only this slice is branched.  After the shift c = lam_n, chi fixes the
    size d_i - n_i c of every block's weight, so each block is peeled with
    its size fixed and the rest of the branching is never built.
    """
    chi = shape.check_chi(chi)
    lam = check_dominant(lam, shape.n)
    c = lam[-1]
    norm = tuple(x - c for x in lam)
    _check_budget(shape.n, norm)
    sizes = tuple(d - m * c for d, m in zip(chi, shape.dims))
    terms = ()
    if sum(sizes) == sum(norm):
        terms = _descending(_slice(norm, shape.dims, sizes, {}).items(), c)
    return WeilSymbol(blocks=shape.dims, labels=shape.labels, terms=terms)


def dualize_symbol(sym: WeilSymbol) -> WeilSymbol:
    """Replace every monomial weight by its dual; dims are unchanged."""
    terms = tuple(
        (tuple(dual_weight(w) for w in ws), mult) for ws, mult in sym.terms
    )
    return WeilSymbol(blocks=sym.blocks, labels=sym.labels, terms=terms)
