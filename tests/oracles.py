"""Independent brute-force oracles used by the test suite.

Schur polynomials are expanded through the Jacobi-Trudi determinant over
complete homogeneous polynomials (no pattern enumeration), and admissible
Newton points are re-derived from concave lattice paths with an explicit
pointwise bound check.  Both paths are deliberately different from the
library's own algorithms.  The Hasse diagram, weight multiplicity, Levi
branching, Hecke decomposition, eigen checks, character dictionary and
polygon dominance oracles are the library's earlier, slower
implementations: the cubic transitive reduction and the down-sets built by
pairwise dominance tests, one visit per triangular
pattern, the count of triangular patterns one row length at a time,
extraction against the whole character (once from the largest remaining
weight, once in one walk over the block-dominant weights), a slice filter
over every branching term per character, one pass per stratum keyed by
symbols and one pass over the window translating every source by every
slice, bundles merged and split through Fraction slopes, and polygons
interpolated in Fractions.  The renderers of bundles, automorphism groups and
representation symbols are the earlier ones, which read Fraction slopes.
The stored values are checked against ``dataclasses.dataclass(frozen=True)``
twins of the record classes, and the per-command parser against the earlier
parser that adds the options of every command.  The integer check is the
earlier one, which sends every value, a plain int too, through ``int()``.
"""

from __future__ import annotations

import argparse
import dataclasses
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from numbers import Number
from operator import le

from bunncalc.bundles import DomainError, normalize_bundle
from bunncalc.cli import _COMMANDS, _add_option
from bunncalc.kottwitz import bundle_to_b
from bunncalc.lparams import (
    RepSymbol,
    b_to_chis,
    character_of_rep,
    character_of_sheaf,
    chi_inv,
    chi_mul,
    make_F,
)
from bunncalc.spectral import HeckeDecomposition
from bunncalc.weights import (
    WeilSymbol,
    check_dominant,
    levi_branching,
    weight_multiplicities,
)

Monomials = dict[tuple[int, ...], int]


@lru_cache(maxsize=None)
def h_poly(k: int, nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Complete homogeneous polynomial of degree k in nvars variables."""
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, rem: int, cur: list[int]):
        if i == nvars - 1:
            out.append((tuple(cur + [rem]), 1))
            return
        for v in range(rem + 1):
            rec(i + 1, rem - v, cur + [v])

    rec(0, k, [])
    return tuple(out)


def poly_mul(a: Monomials, b) -> Monomials:
    out: Monomials = {}
    for ma, ca in a.items():
        for mb, cb in b:
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def schur_monomials(lam: tuple[int, ...], nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of the Schur polynomial of a nonnegative dominant
    weight, via det(h_{lam_i - i + j})."""
    assert all(x >= 0 for x in lam)
    l = len(lam)
    total: Monomials = {}
    for perm in permutations(range(l)):
        ks = [lam[i] - i + perm[i] for i in range(l)]
        if any(k < 0 for k in ks):
            continue
        term: Monomials = {(0,) * nvars: 1}
        for k in ks:
            if k > 0:
                term = poly_mul(term, h_poly(k, nvars))
        sign = _perm_sign(perm)
        for m, c in term.items():
            total[m] = total.get(m, 0) + sign * c
    return tuple(sorted((m, c) for m, c in total.items() if c != 0))


def branching_expansion(n: int, terms, blocks) -> Monomials:
    """Expand sum_t mult * prod_i s_{nu^(i)}(block vars) into n-variable
    monomials, for comparison against the Schur expansion of the input."""
    out: Monomials = {}
    for ws, mult in terms:
        acc: Monomials = {(): 1}
        for w, b in zip(ws, blocks):
            block_poly = schur_monomials(tuple(w), b)
            nxt: Monomials = {}
            for m0, c0 in acc.items():
                for m1, c1 in block_poly:
                    nxt[m0 + m1] = nxt.get(m0 + m1, 0) + c0 * c1
            acc = nxt
        for m, c in acc.items():
            out[m] = out.get(m, 0) + mult * c
    return {m: c for m, c in out.items() if c != 0}


def newton_points_oracle(n: int, mu) -> set[tuple[Fraction, ...]]:
    """Slope vectors of all admissible points, from concave integer-vertex
    paths checked pointwise against the bounding polygon."""
    mu = tuple(int(x) for x in mu)
    total = sum(mu)
    pref = [0]
    for x in mu:
        pref.append(pref[-1] + x)

    def bound_at(x: int) -> int:
        return pref[x]

    out: set[tuple[Fraction, ...]] = set()

    def extend(verts: list[tuple[int, int]]):
        x, y = verts[-1]
        if x == n:
            if y != total:
                return
            # explicit pointwise check of every integer abscissa
            for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                for t in range(x0, x1 + 1):
                    val = Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (t - x0)
                    if val > bound_at(t):
                        return
            vec: list[Fraction] = []
            for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                vec.extend([Fraction(y1 - y0, x1 - x0)] * (x1 - x0))
            if any(a < b for a, b in zip(vec, vec[1:])):
                return
            out.add(tuple(vec))
            return
        prev = (
            Fraction(verts[-1][1] - verts[-2][1], verts[-1][0] - verts[-2][0])
            if len(verts) > 1
            else None
        )
        for nx in range(x + 1, n + 1):
            lo = y + (nx - x) * min(mu)
            hi = y + (nx - x) * max(mu)
            for ny in range(lo, hi + 1):
                slope = Fraction(ny - y, nx - x)
                if prev is not None and slope >= prev:
                    continue
                extend(verts + [(nx, ny)])

    extend([(0, 0)])
    return out


def leq_oracle(b1, b2) -> bool:
    """Dominance through Fraction partial sums of the slope vectors."""
    if b1.kappa != b2.kappa:
        return False
    s1 = Fraction(0)
    s2 = Fraction(0)
    for a, b in zip(b1.slope_vector(), b2.slope_vector()):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


def hasse_oracle(points):
    """Covering relations by the cubic transitive reduction of all pairs."""
    pts = list(points)
    if not pts:
        return []
    below = {
        (i, j)
        for i, a in enumerate(pts)
        for j, b in enumerate(pts)
        if i != j and leq_oracle(a, b)
    }
    edges = []
    for i, j in below:
        if not any((i, k) in below and (k, j) in below for k in range(len(pts))):
            edges.append((pts[i], pts[j]))
    edges.sort(key=lambda e: (e[0].slope_vector(), e[1].slope_vector()), reverse=True)
    return edges


def hasse_pairwise_oracle(points):
    """Covering relations from down-sets built by pairwise dominance tests,
    bottom up over a linear extension, then the same nearest-first walk."""
    pts = list(points)
    if not pts:
        return []
    sums = [p.tops for p in pts]
    if len({(len(s), s[-1]) for s in sums}) > 1:
        raise DomainError("hasse requires points of equal rank and endpoint")
    order = sorted(range(len(pts)), key=sums.__getitem__, reverse=True)
    pts = [pts[i] for i in order]
    sums = [sums[i] for i in order]
    if any(a == b for a, b in zip(sums, sums[1:])):
        raise DomainError("hasse requires distinct points")
    size = len(sums)
    down = [0] * size
    for i in range(size - 1, -1, -1):
        # bottom up, so a point already known below i brings its down-set
        # along and the points in it need no comparison
        top, mask = sums[i], 0
        for j in range(i + 1, size):
            if not mask >> j & 1 and all(map(le, sums[j], top)):
                mask |= 1 << j | down[j]
        down[i] = mask
    pairs = []
    for i, rest in enumerate(down):
        while rest:
            j = (rest & -rest).bit_length() - 1
            pairs.append((j, i))
            rest &= (rest - 1) & ~down[j]
    # ascending ranks = descending (lower, upper) slope vectors
    pairs.sort()
    return [(pts[j], pts[i]) for j, i in pairs]


def _gt_weights(top):
    """Yield the weight of every interlacing triangular pattern under ``top``."""

    def rows_below(upper):
        # one entry shorter, interlacing: upper[i] >= lower[i] >= upper[i+1];
        # weak decrease of the lower row is then automatic
        k = len(upper) - 1
        cur = [0] * k

        def fill(i):
            if i == k:
                yield tuple(cur)
                return
            for v in range(upper[i], upper[i + 1] - 1, -1):
                cur[i] = v
                yield from fill(i + 1)

        yield from fill(0)

    def descend(upper, sums):
        sums = sums + [sum(upper)]
        if len(upper) == 1:
            yield sums
            return
        for lower in rows_below(upper):
            yield from descend(lower, sums)

    for sums in descend(tuple(top), []):
        # sums lists row totals top row first; successive differences give the
        # weight coordinates from the top down
        incr = [a - b for a, b in zip(sums, sums[1:] + [0])]
        yield tuple(incr[::-1])


def weight_mults_oracle(n: int, lam) -> dict[tuple[int, ...], int]:
    """Weight multiplicities by visiting every triangular pattern, one at a
    time, after the determinant twist that makes the last entry 0."""
    lam = tuple(lam)
    assert len(lam) == n
    c = lam[-1]
    norm = tuple(x - c for x in lam)
    counts: dict[tuple[int, ...], int] = {}
    for w in _gt_weights(norm):
        shifted = tuple(x + c for x in w)
        counts[shifted] = counts.get(shifted, 0) + 1
    return counts


def _rows(top, k: int):
    """Every row of length ``k`` that a triangular pattern under ``top`` has.

    Entry i lies between top[i] and top[i + len(top) - k]; conversely every
    weakly decreasing row within those bounds lies in some pattern.
    """
    shift = len(top) - k
    bounds = [range(top[i], top[i + shift] - 1, -1) for i in range(k)]
    for row in product(*bounds):
        if all(a >= b for a, b in zip(row, row[1:])):
            yield row


def weight_mults_rows_oracle(n: int, lam) -> dict[tuple[int, ...], int]:
    """Weight multiplicities in ascending order, counted over triangular
    patterns one row length at a time, from the bottom row up, after the
    determinant twist that makes the last entry 0."""
    lam = tuple(lam)
    assert len(lam) == n
    c = lam[-1]
    norm = tuple(x - c for x in lam)
    # level maps each row of length k to the weight -> count dict of the
    # patterns from that row down; weight coordinate k is |row k| - |row k-1|
    level = {row: {row: 1} for row in _rows(norm, 1)}
    for k in range(2, n + 1):
        upper = {}
        for row in _rows(norm, k):
            total = sum(row)
            acc: dict[tuple[int, ...], int] = {}
            # rows interlacing from below: row[i] >= lower[i] >= row[i+1]
            below = [range(row[i], row[i + 1] - 1, -1) for i in range(k - 1)]
            for lower in product(*below):
                tail = (total - sum(lower),)
                for w, cnt in level[lower].items():
                    key = w + tail
                    acc[key] = acc.get(key, 0) + cnt
            upper[row] = acc
        level = upper
    return {tuple(x + c for x in w): cnt for w, cnt in sorted(level[norm].items())}


def _product_weight_char(parts) -> dict:
    """Weight character of an outer tensor product across blocks."""
    acc: dict[tuple[int, ...], int] = {(): 1}
    for m, lam in parts:
        block = weight_mults_oracle(m, lam)
        nxt: dict[tuple[int, ...], int] = {}
        for w0, c0 in acc.items():
            for w1, c1 in block.items():
                key = w0 + w1
                nxt[key] = nxt.get(key, 0) + c0 * c1
        acc = nxt
    return acc


def levi_branching_oracle(n: int, lam, blocks):
    """Branching by splitting the largest remaining weight off the whole
    character, together with its full product character, until nothing is
    left."""
    lam = tuple(lam)
    c = lam[-1]
    if c != 0:
        shifted = levi_branching_oracle(n, tuple(x - c for x in lam), blocks)
        return tuple(
            (tuple(tuple(x + c for x in w) for w in ws), mult)
            for ws, mult in shifted
        )
    char = weight_mults_oracle(n, lam)
    cuts = []
    start = 0
    for b in blocks:
        cuts.append((start, start + b))
        start += b
    out = []
    while char:
        w = max(char)
        mult = char[w]
        ws = tuple(w[a:b] for a, b in cuts)
        for piece in ws:
            assert all(a >= b for a, b in zip(piece, piece[1:]))
        term = _product_weight_char(tuple(zip(blocks, ws)))
        for tw, tc in term.items():
            left = char.get(tw, 0) - mult * tc
            if left < 0:
                raise AssertionError("branching extraction went negative")
            if left:
                char[tw] = left
            else:
                char.pop(tw, None)
        out.append((ws, mult))
    out.sort(key=lambda t: tuple(x for w in t[0] for x in w), reverse=True)
    return tuple(out)


def levi_branching_extraction_oracle(n: int, lam, blocks):
    """Branching by one walk over the block-dominant weights of the whole
    character, in descending lexicographic order: a weight's remaining count
    is the multiplicity of the product representation it is the highest
    weight of, and subtracting the block-dominant part of that product's
    character changes only weights further down the walk."""
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    lam = check_dominant(lam, n)
    blocks = tuple(int(b) for b in blocks)
    if sum(blocks) != n or any(b < 1 for b in blocks):
        raise DomainError(f"blocks {blocks} do not partition {n}")
    c = lam[-1]
    if c != 0:
        shifted = levi_branching_extraction_oracle(n, tuple(x - c for x in lam), blocks)
        return tuple(
            (tuple(tuple(x + c for x in w) for w in ws), mult)
            for ws, mult in shifted
        )
    cuts = []
    start = 0
    for b in blocks:
        cuts.append((start, start + b))
        start += b
    descents = [i for a, b in cuts for i in range(a, b - 1)]
    left = {
        w: cnt
        for w, cnt in weight_multiplicities(n, lam).items()
        if all(w[i] >= w[i + 1] for i in descents)
    }
    # block piece -> dominant weights of its character, with multiplicities
    piece_dominant: dict[tuple[int, ...], list] = {}
    out = []
    for w in sorted(left, reverse=True):
        mult = left[w]
        if not mult:
            continue
        ws = tuple(w[a:b] for a, b in cuts)
        out.append((ws, mult))
        term = {(): 1}
        for piece in ws:
            dom = piece_dominant.get(piece)
            if dom is None:
                dom = piece_dominant[piece] = [
                    (v, cnt)
                    for v, cnt in weight_multiplicities(len(piece), piece).items()
                    if all(a >= b for a, b in zip(v, v[1:]))
                ]
            term = {v0 + v1: c0 * c1 for v0, c0 in term.items() for v1, c1 in dom}
        for v, cnt in term.items():
            rest = left[v] - mult * cnt
            if rest < 0:
                raise AssertionError("branching extraction went negative")
            left[v] = rest
    return tuple(out)


def as_int_oracle(x, what: str) -> int:
    """x as an int through int() and an equality test, whatever its type."""
    try:
        if not isinstance(x, str) and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} {x if isinstance(x, Number) else repr(x)} is not an integer")


def merge_segments_oracle(segments) -> tuple[tuple[int, int], ...]:
    """Sort the segments (rise, run) by Fraction slope, decreasing, and sum
    each run of equal slopes."""
    out: list[list[int]] = []
    last = None
    for rise, run in sorted(segments, key=lambda seg: Fraction(*seg), reverse=True):
        if Fraction(rise, run) == last:
            out[-1][0] += rise
            out[-1][1] += run
        else:
            out.append([rise, run])
            last = Fraction(rise, run)
    return tuple(map(tuple, out))


def parts_of(e) -> tuple[tuple[Fraction, int], ...]:
    """A bundle's (slope, multiplicity) pairs, slopes strictly decreasing:
    the Fraction view of its segments (deg, rank)."""
    return tuple((Fraction(deg, rank), gcd(deg, rank)) for deg, rank in e.segments)


def slope_classes_of(e) -> tuple[tuple[Fraction, int], ...]:
    """A bundle's (slope, entry count) pairs, the count being the class rank."""
    return tuple((Fraction(deg, rank), rank) for deg, rank in e.segments)


def split_at_oracle(e, m):
    """Split the stable summands (decreasing slope) into a top part of rank m,
    one Fraction slope and multiplicity at a time."""
    top = []
    bottom = []
    remaining = m
    for s, mult in parts_of(e):
        den = s.denominator
        if remaining >= mult * den:
            top.append((s, mult))
            remaining -= mult * den
        elif remaining > 0:
            if remaining % den != 0:
                return None
            k = remaining // den
            top.append((s, k))
            bottom.append((s, mult - k))
            remaining = 0
        else:
            bottom.append((s, mult))
    if remaining != 0 or not top or not bottom:
        return None
    return normalize_bundle(top), normalize_bundle(bottom)


def hn_polygon_oracle(e):
    """HN vertices as running sums of the Fraction slope vector, with a
    vertex wherever the slope changes and at the end."""
    vec = [s for s, mult in parts_of(e) for _ in range(mult * s.denominator)]
    verts, y = [(0, Fraction(0))], Fraction(0)
    for x, s in enumerate(vec, 1):
        y += s
        if x == len(vec) or vec[x] != s:
            verts.append((x, y))
    return tuple(verts)


def chi_to_bundle_oracle(shape, chi):
    """Component i contributes O(d_i/n_i) with multiplicity gcd(d_i, n_i)."""
    chi = shape.check_chi(chi)
    parts = []
    for d, dim in zip(chi, shape.dims):
        g = gcd(abs(d), dim) if d != 0 else dim
        parts.append((Fraction(d, dim), g))
    return normalize_bundle(parts)


def chi_to_rep_oracle(shape, chi):
    """The representation symbol from one Fraction slope per component."""
    chi = shape.check_chi(chi)
    e = chi_to_bundle_oracle(shape, chi)
    fibers: dict[Fraction, set[int]] = {}
    for i, (d, dim) in enumerate(zip(chi, shape.dims)):
        fibers.setdefault(Fraction(d, dim), set()).add(i)
    members = tuple(tuple(sorted(fibers[s])) for s in sorted(fibers, reverse=True))
    return RepSymbol(stratum=bundle_to_b(e), members=members)


def sigma_chi_oracle(shape, lam, chi):
    """The isotypic slice of r_lam for chi: a filter over every branching
    term, keeping those whose per-block central characters are chi."""
    chi = shape.check_chi(chi)
    lam = check_dominant(lam, shape.n)
    terms = [
        (ws, mult)
        for ws, mult in levi_branching(shape.n, lam, shape.dims)
        if all(sum(w) == d for w, d in zip(ws, chi))
    ]
    return WeilSymbol(blocks=shape.dims, labels=shape.labels, terms=tuple(terms))


def slices_oracle(shape, lam):
    """(chi, slice) in descending chi, one sigma_chi_oracle filter for each
    character that a branching term has."""
    chis = {tuple(sum(w) for w in ws) for ws, _ in levi_branching(shape.n, lam, shape.dims)}
    return [(chi, sigma_chi_oracle(shape, lam, chi)) for chi in sorted(chis, reverse=True)]


def hecke_oracle(shape, lam, sheaf):
    """The Hecke decomposition from slices_oracle, one make_F per term."""
    lam = check_dominant(lam, shape.n)
    xi = character_of_sheaf(shape, sheaf)
    terms = tuple(
        (chi, make_F(shape, chi_mul(chi, xi)), sym) for chi, sym in slices_oracle(shape, lam)
    )
    return HeckeDecomposition(weight=lam, source=xi, terms=terms)


def verify_eigen_oracle(shape, lam, strata) -> bool:
    """The termwise eigen identity one stratum at a time: for each listed b,
    the sources eta * chi^{-1} of b are translated by every slice, and the
    products on b are compared with b's pieces as a multiset of
    (sheaf symbol, slice) pairs."""
    lam = check_dominant(lam, shape.n)
    slices = slices_oracle(shape, lam)
    memo: dict = {}

    def sheaf_of(chi):
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

    for b in strata:
        rhs: Counter = Counter()
        sources: set = set()
        for eta in b_to_chis(shape, b):
            piece = sheaf_of(eta)
            for chi, sym in slices:
                rhs[(piece, sym)] += 1
                sources.add(chi_mul(eta, chi_inv(chi)))
        lhs: Counter = Counter()
        for src in sorted(sources):
            xi = character_of_sheaf(shape, sheaf_of(src))
            for chi, sym in slices:
                sheaf = sheaf_of(chi_mul(chi, xi))
                if sheaf.stratum == b:
                    lhs[(sheaf, sym)] += 1
        if lhs != rhs:
            return False
    return True


def verify_eigen_window_oracle(shape, lam, strata) -> bool:
    """The termwise eigen identity in one pass over the whole window: the
    sources of every stratum are collected into one set and each is
    translated by every slice; a product counts at the stratum of its symbol
    when that stratum is in the window, and both sides are compared as
    multisets of (character, slice index) pairs."""
    lam = check_dominant(lam, shape.n)
    slices = [chi for chi, _ in slices_oracle(shape, lam)]
    memo: dict = {}

    def sheaf_of(chi):
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

    rhs: dict = {}
    sources: set = set()
    for b in strata:
        if b in rhs:
            continue
        pairs = rhs[b] = Counter()
        for eta in b_to_chis(shape, b):
            for j, chi in enumerate(slices):
                pairs[(eta, j)] += 1
                sources.add(chi_mul(eta, chi_inv(chi)))
    lhs: dict = {b: Counter() for b in rhs}
    for src in sorted(sources):
        sheaf = sheaf_of(src)
        xi = character_of_rep(shape, sheaf.rep)
        if sheaf_of(xi) != sheaf:
            raise DomainError("sheaf symbol is not of the canonical translated shape")
        for j, chi in enumerate(slices):
            product = chi_mul(chi, xi)
            pairs = lhs.get(sheaf_of(product).stratum)
            if pairs is not None:
                pairs[(product, j)] += 1
    return lhs == rhs


@lru_cache(maxsize=None)
def _value_at(vertices, x):
    x = Fraction(x)
    if x < 0 or x > vertices[-1][0]:
        raise DomainError(f"abscissa {x} outside polygon span")
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


def hn_lies_above_oracle(upper, lower):
    """Pointwise >= comparison of two polygons given by their vertices; spans
    must agree.

    Both polygons have integer breakpoints, so comparing at the integer
    abscissae is equivalent to the pointwise statement.  Vertices must be
    hashable: each interpolated value is computed once per polygon and x.
    """
    if upper[-1][0] != lower[-1][0]:
        raise DomainError("polygon spans differ")
    n = int(upper[-1][0])
    return all(_value_at(upper, x) >= _value_at(lower, x) for x in range(n + 1))


# The text and JSON renderers of bundles, groups and representation symbols
# as they were written on Fraction slopes, one Fraction per class.


def slope_str_oracle(s: Fraction) -> str:
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def format_bundle_oracle(b, pretty: bool = False) -> str:
    """Canonical text form; with pretty=True uses a direct-sum glyph."""
    terms = []
    for s, m in parts_of(b):
        base = "O" if s == 0 else f"O({slope_str_oracle(s)})"
        terms.append(base if m == 1 else f"{base}^{m}")
    return (" ⊕ " if pretty else "+").join(terms)


def bundle_to_json_oracle(b) -> dict:
    return {
        "parts": [
            {"num": s.numerator, "den": s.denominator, "mult": m} for s, m in parts_of(b)
        ]
    }


def group_factors_oracle(e) -> tuple[tuple[int, Fraction], ...]:
    """The automorphism group of a bundle as (m, slope), one per slope class."""
    return tuple((m, s) for s, m in parts_of(e))


def group_describe_oracle(factors, ascii_mode: bool = False) -> str:
    times = " x " if ascii_mode else " × "
    out = []
    for m, s in factors:
        if s.denominator == 1:
            out.append(f"GL_{m}")
        elif m == 1:
            dx = "D^x" if ascii_mode else "D^×"
            out.append(f"{dx}_{{{slope_str_oracle(-s)}}}")
        else:
            out.append(f"GL_{m}(D_{{{slope_str_oracle(-s)}}})")
    return times.join(out)


def group_json_factors_oracle(factors) -> list[dict]:
    return [
        {"size": m, "inv_num": s.numerator, "inv_den": s.denominator}
        for m, s in factors
    ]


def rep_describe_oracle(rep, shape, ascii_mode: bool = False) -> str:
    """The symbol's classes as (bundle slope, members), read off the Fraction
    classes of its stratum."""
    slope_classes = tuple(
        (-s, m) for (s, _), m in zip(reversed(rep.stratum.classes), rep.members)
    )
    boxtimes = " x " if ascii_mode else " ⊠ "
    parts = []
    for s, members in slope_classes:
        labels = "+".join(shape.labels[i] for i in members)
        parts.append(f"pi[{labels}]@{slope_str_oracle(s)}")
    return boxtimes.join(parts)


# what ``bundles.record`` adds to a class; a twin gets its own from dataclasses
_RECORD_MADE = {
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__match_args__", "__dict__", "__weakref__",
}


def dataclass_twin(cls):
    """The frozen dataclass of the record class cls: a class of the same name,
    module, annotations, class values and methods, decorated with
    ``dataclasses.dataclass(frozen=True)`` in place of ``bundles.record``."""
    body = {name: value for name, value in vars(cls).items() if name not in _RECORD_MADE}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def build_parser_oracle() -> argparse.ArgumentParser:
    """The parser with the options of every command, whatever is parsed."""
    top = argparse.ArgumentParser(
        prog="bunncalc",
        description="exact slope calculus, Newton strata, and character/stratum "
        "bookkeeping for spectral Hecke actions",
    )
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, help_text, view, keys in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], help=help_text)
        if view is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for key in keys + ("json", "ascii"):
            if isinstance(key, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in key:
                    _add_option(group, member)
            else:
                _add_option(p, key)
        p.set_defaults(view=view)
    return top
