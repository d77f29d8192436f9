"""Newton points with their endpoint invariant, the dominance order, and
enumeration of the points lying under a dominant cocharacter.

A Newton point is a dominant rational vector with integral breakpoints,
recorded as the integer segments (rise, run) of its polygon; dominance reads
its lattice tops floor(nu(x)).  The dictionary between points and bundles is
nu_b = (-nu_E)_dom, so the endpoint invariant kappa(b) equals -deg(E_b).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import accumulate, groupby, islice
from math import gcd
from operator import le, or_

from .bundles import (
    BudgetError,
    BundleSpec,
    DomainError,
    Slope,
    as_int,
    check_segments,
    enumeration_budget,
    lattice_tops,
    record,
    segment_pairing,
    slope_str,
)


@record
class NewtonPoint:
    """Maximal segments (rise, run) of integers, slopes rise/run strictly decreasing."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_segments(self.segments)

    @property
    def rank(self) -> int:
        return sum(run for _, run in self.segments)

    @property
    def kappa(self) -> int:
        return sum(rise for rise, _ in self.segments)

    @cached_property
    def tops(self) -> tuple[int, ...]:
        """floor(nu(x)) for x = 0..rank; dominance is <= entry by entry.
        Computed once per point: the sorts, leq and hasse all read it."""
        return lattice_tops(self.segments)

    @property
    def classes(self) -> tuple[tuple[Slope, int], ...]:
        return tuple((Fraction(rise, run), run) for rise, run in self.segments)

    def slope_vector(self) -> tuple[Fraction, ...]:
        out: list[Fraction] = []
        for s, c in self.classes:
            out.extend([s] * c)
        return tuple(out)

    def __str__(self) -> str:
        return "(" + ",".join(
            ",".join([slope_str(rise, run)] * run) for rise, run in self.segments
        ) + ")"


def check_rank(b: NewtonPoint, n: int) -> None:
    """The one check of a stratum against the rank it must have."""
    if b.rank != n:
        raise DomainError(f"rank mismatch: stratum has rank {b.rank}, expected {n}")


def bundle_to_b(e: BundleSpec) -> NewtonPoint:
    """Negate the bundle's segments and reverse them into dominant order."""
    return NewtonPoint(tuple((-deg, rank) for deg, rank in reversed(e.segments)))


def b_to_bundle(b: NewtonPoint) -> BundleSpec:
    """Inverse of bundle_to_b: negate and reverse the point's segments."""
    return BundleSpec(tuple((-rise, run) for rise, run in reversed(b.segments)))


def d_point(b: NewtonPoint) -> int:
    """<2rho, nu_b> evaluated on the point's segments."""
    return segment_pairing(b.segments)


def point_label(b: NewtonPoint) -> str:
    """The point's slope vector, endpoint invariant and pairing value."""
    return f"ν={b} κ={b.kappa} d={d_point(b)}"


def point_from_vector(vec) -> NewtonPoint:
    """Build a point from a weakly decreasing slope vector, one segment per run."""
    entries = [v if isinstance(v, int) else Fraction(v) for v in vec]
    if any(a < b for a, b in zip(entries, entries[1:])):
        raise DomainError("slope vector must be weakly decreasing")
    segments = []
    for s, equal in groupby(entries):
        c, num, den = len(list(equal)), s.numerator, s.denominator
        if c % den:
            raise DomainError(
                f"breakpoints not integral: den({slope_str(num, den)}) does not divide {c}"
            )
        segments.append((num * c // den, c))
    return NewtonPoint(tuple(segments))


def leq(b1: NewtonPoint, b2: NewtonPoint) -> bool:
    """Dominance order within a fixed endpoint slice.

    True iff the endpoints agree and every lattice top of b1 is <= the
    corresponding top of b2.  Points with different endpoints compare as
    False (not an error), so poset utilities run on mixed lists.
    """
    check_rank(b1, b2.rank)
    t1, t2 = b1.tops, b2.tops
    return t1[-1] == t2[-1] and all(map(le, t1, t2))


def enumerate_B(n: int, mu) -> list[NewtonPoint]:
    """All Newton points with endpoint sum(mu) lying under the mu-polygon.

    mu is a weakly decreasing integer n-tuple.  Points are produced in
    descending dominance order, ties broken lexicographically (the output is
    sorted lexicographically descending on lattice tops, which is that order
    on slope vectors and linearizes the dominance order).

    The search is output-sensitive: a segment is only tried if its path can
    still be completed.  From (x, y), every later slope is smaller, so a
    segment (dy, dx) ending short of x = n must rise faster than the chord
    to (n, sum(mu)): dy >= dx*(total - y)//(n - x) + 1.  The chord itself
    always completes the path: it stays under the concave mu-polygon, its
    slope is at least mu_n and below that of the segment before it.  So every
    node emits the point that ends in its chord when it is popped, and the
    search charges 2 * points - 1 nodes, at most points * n.
    """
    mu = tuple(as_int(x, "mu entry") for x in mu)
    if len(mu) != n:
        raise DomainError(f"mu must have length {n}, got {len(mu)}")
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise DomainError("mu must be weakly decreasing (dominant)")
    total = sum(mu)
    prefix = list(accumulate(mu, initial=0))
    budget = enumeration_budget()

    results: list[NewtonPoint] = []
    pushed = 0
    # depth-first over partial paths: segments acc of (rise, run) reach (x, y)
    stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 0, ())]
    while stack:
        x, y, acc = stack.pop()
        rest, left = n - x, total - y
        # dy from above the chord to the mu-polygon, below the last slope
        ranges = []
        for dx in range(1, rest):
            lo = dx * left // rest + 1
            hi = prefix[x + dx] - y
            if acc:
                last_dy, last_dx = acc[-1]
                hi = min(hi, (last_dy * dx - 1) // last_dx)
            if lo <= hi:
                ranges.append((dx, lo, hi))
        # charged before anything is pushed, the chord leaf included
        pushed += 1 + sum(hi - lo + 1 for _, lo, hi in ranges)
        if pushed > budget:
            raise BudgetError(f"{pushed} search nodes exceed budget of {budget}")
        results.append(NewtonPoint(acc + ((left, rest),)))
        for dx, lo, hi in ranges:
            for dy in range(lo, hi + 1):
                stack.append((x + dx, y + dy, acc + ((dy, dx),)))
    # the first differing top has the sign of the first differing slope
    results.sort(key=lambda p: p.tops, reverse=True)
    return results


def hasse(points) -> list[tuple[NewtonPoint, NewtonPoint]]:
    """Covering relations (lower, upper) of the dominance order on the list.

    Points are ranked descending on their lattice tops, which is a linear
    extension of dominance, so only points ranked after i can lie below i.
    Down-sets are bitmasks over that ranking, built one coordinate at a
    time: for x = 2..n-1 the threshold mask M_x[v] holds the points whose top
    at x is <= v (one bucket pass and a prefix OR), and down[i] is the AND
    of M_x[tops_i[x]] over those x.  Its bits above i are the strict
    down-set of i.  Coordinates 0 and n are equal on the list, and
    coordinate 1 needs no mask: tops start at 0, so a point ranked after i
    is lexicographically smaller and its top at 1 is already <= that of i.
    Walking the down-set of u nearest first, a point is covered by u exactly
    when it lies in the down-set of no cover of u found before it
    (transitive reduction against a linear extension, Aho-Garey-Ullman 1972).
    The P^2 bits of down-sets are charged to the budget in kibibits before
    any mask is built.
    """
    pts = list(points)
    if not pts:
        return []
    kibibits = len(pts) ** 2 // 1024
    if kibibits:
        budget = enumeration_budget()
        if kibibits > budget:
            raise BudgetError(f"{kibibits} kibibits of down-set masks exceed budget of {budget}")
    sums = [p.tops for p in pts]
    if len({(len(s), s[-1]) for s in sums}) > 1:
        raise DomainError("hasse requires points of equal rank and endpoint")
    order = sorted(range(len(pts)), key=sums.__getitem__, reverse=True)
    pts = [pts[i] for i in order]
    sums = [sums[i] for i in order]
    if any(a == b for a, b in zip(sums, sums[1:])):
        raise DomainError("hasse requires distinct points")
    down = [(1 << len(sums)) - 1] * len(sums)
    for column in islice(zip(*sums), 2, len(sums[0]) - 1):
        lo = min(column)
        masks = [0] * (max(column) - lo + 1)
        for j, v in enumerate(column):
            masks[v - lo] |= 1 << j
        masks = list(accumulate(masks, or_))
        down = [d & masks[v - lo] for d, v in zip(down, column)]
    pairs = []
    for i, below in enumerate(down):
        rest = below >> i + 1 << i + 1
        while rest:
            j = (rest & -rest).bit_length() - 1
            pairs.append((j, i))
            # the bits up to j are clear, and above j down[j] is exact
            rest &= (rest - 1) & ~down[j]
    # ascending ranks = descending (lower, upper) slope vectors
    pairs.sort()
    return [(pts[j], pts[i]) for j, i in pairs]


def dot_export(points) -> str:
    """DOT digraph of the covering relations; node labels carry the slope
    vector, the endpoint invariant, and the pairing value."""
    pts = list(points)
    return dot_text(pts, hasse(pts))


def dot_text(points, edges) -> str:
    """dot_export's rendering, given the covering edges of the points."""
    # lattice tops order lexicographically as the slope vectors do
    pts = sorted(points, key=lambda p: p.tops, reverse=True)
    names = {p: f"b{i}" for i, p in enumerate(pts)}
    lines = ["digraph kottwitz {"]
    for p in pts:
        lines.append(f'  {names[p]} [label="{point_label(p)}"];')
    for lo, hi in edges:
        lines.append(f"  {names[lo]} -> {names[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parabolic_type(b: NewtonPoint) -> tuple[int, ...]:
    """Block sizes of the standard Levi on which nu_b is strictly dominant."""
    return tuple(run for _, run in b.segments)


@record
class InnerFormGroup:
    """Product of factors GL_m(D_{-lam}), one per bundle segment (deg, rank):
    lam = deg/rank, m = gcd(deg, rank); integral lam gives the split GL_m."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_segments(self.segments)

    def __str__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        out = []
        for deg, rank in self.segments:
            m = gcd(deg, rank)
            if m == rank:
                out.append(f"GL_{m}")
            elif m == 1:
                out.append(f"D^×_{{{slope_str(-deg, rank)}}}")
            else:
                out.append(f"GL_{m}(D_{{{slope_str(-deg, rank)}}})")
        return " × ".join(out)


def automorphism_group(e: BundleSpec) -> InnerFormGroup:
    """One factor per slope class of the bundle, in decreasing slope order."""
    return InnerFormGroup(e.segments)


@record
class CharacterExponents:
    """Exponents e_i of a character prod_i |det_i|^{e_i} of an inner form
    group, e_i at the position of factor i."""

    exps: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(f"e_{i}={e}" for i, e in enumerate(self.exps, 1)) + ")"


def modulus_exponents(e: BundleSpec) -> CharacterExponents:
    """|det| exponents of the half-modulus source character delta_b.

    The underlying parabolic is the standard one whose Levi blocks follow the
    decreasing-nu_b order (increasing bundle slope); in that order
    e_i = sum_{j>i} n_j - sum_{j<i} n_j with n_j the block ranks.  Exponents
    are reported indexed by the bundle-order factors of automorphism_group.
    """
    ranks = [rank for _, rank in e.segments]
    total = sum(ranks)
    exps = []
    before = 0
    for r in ranks:
        after = total - before - r
        # bundle order is the reverse of the nu_b order, so the sign flips
        exps.append(before - after)
        before += r
    return CharacterExponents(tuple(exps))


def kappa_exponents(e: BundleSpec) -> CharacterExponents:
    """The inverse character of the modulus: negated exponents."""
    return CharacterExponents(tuple(-x for x in modulus_exponents(e).exps))
