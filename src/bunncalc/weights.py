"""Weight multiplicities, Levi branching, and centralizer-isotypic slices of
highest-weight representations of GL_n.

After the determinant twist that makes lam a partition, the multiplicity of
a weight is a Kostka number K_{lam, mu}, mu the weight sorted, and so is the
same on every S_n-orbit.  Only the dominant weights are counted, into one
cached table per partition, by one walk that builds each a part at a time
and peels each part as a horizontal strip; every other weight is listed
from the orbit of a dominant one, with the twist put back once.
Branching to a block Levi peels off one block at a time by the
Littlewood-Richardson rule, counting LR fillings rather than weights, in
one loop that branches each remainder it reaches once; a tail of size-1
blocks is the torus, whose terms are the weights themselves.  The isotypic
slices group that branching's terms by their per-block central characters
into (character, symbol) pairs, cached per weight and shape.  One slice
alone (sigma_chi) is branched by that one peel, each block's weight sized
by the character, so the other slices are never built.
Everything is exact and desk scale by design.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
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

# entries each of the three caches keeps, least recently used first out; a
# session of sweeps over dozens of weights still never evicts
CACHE_SIZE = 256


def dual_weight(lam) -> HighestWeight:
    """Highest weight of the dual representation: negated and reversed."""
    lam = check_dominant(lam)
    return tuple(-x for x in reversed(lam))


def weyl_dim(lam, m: int) -> int:
    """prod_{a<b} (lam_a - lam_b + b - a)/(b - a), as one exact division."""
    m = as_int(m, "rank m")
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


def _strips(lam: tuple, i: int, left: int, nu: tuple, out: list) -> None:
    """Append to ``out`` every nu (trailing zeros dropped) with lam/nu a
    horizontal strip that takes ``left`` cells from rows i, i + 1, ...

    Row i gives up at most lam[i] - lam[i + 1] cells, and rows i, i + 1, ...
    together at most lam[i], so every row's range leaves a strip to finish,
    and there is none when ``left`` exceeds lam[i].
    """
    if i == len(lam) - 1:
        last = lam[i] - left
        if last >= 0:
            out.append(nu + (last,) if last else nu)
        return
    below = lam[i + 1]
    for r in range(min(left, lam[i] - below), max(0, left - below) - 1, -1):
        _strips(lam, i + 1, left - r, nu + (lam[i] - r,), out)


@lru_cache(maxsize=CACHE_SIZE)
def _weight_mults_cached(n: int, norm: HighestWeight) -> tuple[tuple[HighestWeight, int], ...]:
    """(mu, K_{norm, mu}) for every dominant weight mu of r_norm, that is,
    every partition mu dominated by the partition ``norm`` with at most n
    parts, padded to length n, descending lexicographically.  Every other
    weight is a permutation of one of these, with the same multiplicity.

    K_{norm, mu} counts the semistandard tableaux of shape norm and content
    mu.  The count does not depend on the order of the content, so the
    largest entries may be taken first: they fill a horizontal strip at the
    rim.  One walk builds mu a part at a time, each part at most the one
    before, and each prefix carries the shapes its parts leave when peeled
    as strips, with the number of ways to reach each.  A prefix that leaves
    no shape is dropped, so only the mu dominated by norm are reached, and a
    finished one leaves the empty shape alone, reached K_{norm, mu} ways.
    """
    _check_budget(n, norm)
    out: list = []
    # (parts so far, cells left to peel, {shape left: ways to reach it})
    stack = [((), sum(norm), {tuple(x for x in norm if x): 1})]
    while stack:
        mu, left, shapes = stack.pop()
        if not left:
            out.append((mu + (0,) * (n - len(mu)), shapes[()]))
            continue
        top = min(mu[-1], left) if mu else norm[0]
        # the parts still to come are at most v each and fill the other
        # slots; pushed ascending, so the largest is popped first
        for v in range(-(-left // (n - len(mu))), top + 1):
            peeled: dict = {}
            for nu, ways in shapes.items():
                strips: list = []
                _strips(nu, 0, v, (), strips)
                for sub in strips:
                    peeled[sub] = peeled.get(sub, 0) + ways
            if peeled:
                stack.append((mu + (v,), left - v, peeled))
    return tuple(out)


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
    S_n-orbit of w, so only the dominant weights are counted.  The table of
    each normalized weight is kept in a cache of ``CACHE_SIZE`` entries that
    ``weight_multiplicities.cache_info`` and ``cache_clear`` expose.
    """
    n = as_int(n, "rank n")
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    lam = check_dominant(lam, n)
    return dict(_weights(lam))


weight_multiplicities.cache_info = _weight_mults_cached.cache_info
weight_multiplicities.cache_clear = _weight_mults_cached.cache_clear


def _lr_peel(lam, a, i, alpha, ends, content, v, q, row_ends, row_content, out, left) -> None:
    """Count in ``out``, under (alpha, content), each LR filling of lam/alpha,
    alpha of at most a rows, that extends the rows above i and the runs of
    row i before run v, which starts at column q.  Run v = -1 is the row's
    cells of alpha: at most ``left`` when that is given, and at least what
    rows i + 1, ..., a - 1 cannot hold, so every alpha has the size asked
    for.  Run v >= 0 is the row's entries v + 1, which end by ``ends[v]``,
    the column just past the entries <= v of row i - 1 (cells of alpha count
    as entries 0), so columns strictly increase.  With ``content[v]`` the
    entries v + 1 above row i, the reading word (rows top down, each right
    to left) stays a lattice word exactly when no row holds more entries
    v + 1 than the rows above hold entries v beyond entries v + 1.
    ``row_ends`` and ``row_content`` are row i's so far.
    """
    m = len(content)
    if v == m:
        i, v, ends, content = i + 1, -1, row_ends[:m], row_content
    if v < 0:
        if i == len(lam) or lam[i] == 0:
            if not left:  # an empty lam has only the empty alpha
                key = (alpha + (0,) * (a - len(alpha)), content)
                out[key] = out.get(key, 0) + 1
            return
        if i < a:
            top, low = min(lam[i], ends[0]), 0
            if left is not None:
                top, low = min(top, left), max(0, left - sum(lam[i + 1:a]))
            for s in range(top, low - 1, -1):
                rest = None if left is None else left - s
                _lr_peel(lam, a, i, alpha + (s,), ends, content, 0, s, (s,), (), out, rest)
            return
        v, q, row_ends, row_content = 0, 0, (0,), ()
    top = min(lam[i], max(q, ends[v]))
    if v:
        top = min(top, q + content[v - 1] - content[v])
    # the largest entry fills the rest of the row
    low = lam[i] if v == m - 1 else q
    for stop in range(top, low - 1, -1):
        _lr_peel(lam, a, i, alpha, ends, content, v + 1, stop, row_ends + (stop,),
                 row_content + (content[v] + stop - q,), out, left)


def _branch(lam: HighestWeight, blocks: tuple[int, ...], sizes=None):
    """Branching of the partition ``lam`` to ``blocks`` as (block weights,
    multiplicity) pairs; with ``sizes``, only the terms whose block weights
    have those sizes: block k is peeled off each remainder with |alpha| =
    sizes[k] (|lam| = sum(sizes) is the caller's to check).  Each layer maps
    every remainder to {block weights peeled above it: multiplicity}, so a
    remainder reached twice is branched once.  Without sizes, a tail of
    size-1 blocks lists each remainder's weights from the cached Kostka
    table, with one (v,) per entry v shared by all the terms.
    """
    layer, k, m = {lam: {(): 1}}, 0, len(lam)
    # the last peel writes the terms; one block is lam itself
    out: dict = {} if len(blocks) > 1 else {(lam,): 1}
    # peel every block but the last; without sizes, stop at a torus tail
    while k < len(blocks) - 1 and (sizes is not None or len(blocks) - k < m):
        a, left, m = blocks[k], None if sizes is None else sizes[k], m - blocks[k]
        k += 1
        last = k == len(blocks) - 1
        peeled: dict = {}
        for beta, heads in layer.items():
            peel: dict = {}
            # the first row has no row above it to bound its columns
            _lr_peel(beta, a, 0, (), (beta[0],) * m, (0,) * m, -1, 0, (), (), peel, left)
            for (alpha, rest), c in peel.items():
                below = out if last else peeled.setdefault(rest, {})
                piece = (alpha, rest) if last else (alpha,)
                for head, mult in heads.items():
                    key = head + piece
                    below[key] = below.get(key, 0) + c * mult
        layer = peeled
    if k < len(blocks) - 1:
        one = {v: (v,) for v in range(lam[0] + 1)}.__getitem__
        for beta, heads in layer.items():
            for w, mult in _weights(beta):
                tail = tuple(map(one, w))
                for head, c in heads.items():
                    key = head + tail
                    out[key] = out.get(key, 0) + c * mult
    return out.items()


def _terms(lam: HighestWeight, blocks: tuple[int, ...], chi=None) -> tuple:
    """Branching terms of the dominant ``lam`` to ``blocks``, descending;
    with ``chi``, only those whose per-block central characters are chi.
    After the budget check on the partition lam - c, c = lam_n, chi fixes
    each block's size d_i - n_i c (none fit unless they add up to |lam - c|),
    and c is added back to every block weight."""
    c = lam[-1]
    norm = tuple(x - c for x in lam)
    _check_budget(len(lam), norm)
    sizes = None
    if chi is not None:
        sizes = tuple(d - m * c for d, m in zip(chi, blocks))
        if sum(sizes) != sum(norm):
            return ()
    terms = sorted(_branch(norm, blocks, sizes), reverse=True)
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
    branch each distinct beta to the remaining blocks the same way.  A
    remainder of size-1 blocks is the torus, whose terms are the weights
    with their multiplicities, listed from the orbits of the dominant ones.
    Branching to the torus itself skips the shift: it lists the weights of
    lam, twist included, in the order of the result.  Each request's terms
    are kept in a cache of ``CACHE_SIZE`` entries that
    ``levi_branching.cache_info`` and ``cache_clear`` expose.
    """
    n = as_int(n, "rank n")
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    lam = check_dominant(lam, n)
    blocks = tuple(as_int(b, "block size") for b in blocks)
    if sum(blocks) != n or any(b < 1 for b in blocks):
        raise DomainError(f"blocks {blocks} do not partition {n}")
    return _levi_branching_cached(n, lam, blocks)


@lru_cache(maxsize=CACHE_SIZE)
def _levi_branching_cached(n: int, lam: HighestWeight, blocks: tuple[int, ...]):
    # n blocks partitioning n are the torus: the weights, twist included
    if len(blocks) == n:
        # listed first: _weights refuses an oversized lam before the map is sized by lam[0]
        weights = _weights(lam)
        one = {v: (v,) for v in range(lam[-1], lam[0] + 1)}.__getitem__
        return tuple((tuple(map(one, w)), mult) for w, mult in reversed(weights))
    # one cache entry per request: _terms shifts the normalized terms back
    return _terms(lam, blocks)


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


def isotypic_slices(
    shape: LParamShape, lam: HighestWeight
) -> tuple[tuple[Character, WeilSymbol], ...]:
    """(chi, slice) pairs of r_lam, descending in chi (the per-block central
    characters |lam^(i)|), one per character a branching term has; lam must
    already be checked.  A miss groups the terms of ``levi_branching`` once;
    the pairs depend only on lam, dims and labels, and are kept, frozen
    symbols shared by every caller, in a cache of ``CACHE_SIZE`` entries
    that ``isotypic_slices.cache_info`` and ``cache_clear`` expose."""
    return _slices_cached(lam, shape.dims, shape.labels)


@lru_cache(maxsize=CACHE_SIZE)
def _slices_cached(lam: HighestWeight, dims: tuple[int, ...], labels: tuple[str, ...]):
    slices: dict = {}
    for ws, mult in levi_branching(sum(dims), lam, dims):
        slices.setdefault(tuple(map(sum, ws)), []).append((ws, mult))
    return tuple(
        (chi, WeilSymbol(dims, labels, tuple(terms)))
        for chi, terms in sorted(slices.items(), reverse=True)
    )


isotypic_slices.cache_info = _slices_cached.cache_info
isotypic_slices.cache_clear = _slices_cached.cache_clear


def sigma_chi(shape: LParamShape, lam, chi: Character) -> WeilSymbol:
    """Isotypic slice of r_lam for the centralizer character chi: the terms
    of the branching whose per-block central characters match the exponents
    d_i, descending, none if no term does; the slice that
    ``isotypic_slices(shape, lam)`` pairs with chi, if it has one.  No cache
    is read, and only this slice is branched: chi fixes the size of every
    block's weight, and the one LR peel, ``_lr_peel``, keeps to those sizes.
    """
    chi = shape.check_chi(chi)
    lam = check_dominant(lam, shape.n)
    return WeilSymbol(blocks=shape.dims, labels=shape.labels, terms=_terms(lam, shape.dims, chi))


def dualize_symbol(sym: WeilSymbol) -> WeilSymbol:
    """Replace every monomial weight by its dual; dims are unchanged."""
    terms = tuple(
        (tuple(dual_weight(w) for w in ws), mult) for ws, mult in sym.terms
    )
    return WeilSymbol(blocks=sym.blocks, labels=sym.labels, terms=terms)
