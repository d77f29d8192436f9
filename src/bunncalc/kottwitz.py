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
from itertools import accumulate, groupby
from math import gcd
from operator import le

from .bundles import (
    BundleSpec,
    DomainError,
    Meter,
    Slope,
    as_int,
    as_rational,
    check_segments,
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
        Seeded by enumerate_B, else computed once: the sorts, leq and hasse all read it."""
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
    """Build a point from a weakly decreasing slope vector, one segment per run;
    an entry that is not a rational number is refused."""
    entries = [v if isinstance(v, int) else as_rational(v, "slope entry") for v in vec]
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


def _with_tops(point: NewtonPoint, tops: tuple[int, ...]) -> NewtonPoint:
    vars(point)["tops"] = tops  # the slot that cached_property fills itself
    return point


def enumerate_B(n: int, mu) -> list[NewtonPoint]:
    """All Newton points with endpoint sum(mu) lying under the mu-polygon.

    n >= 1 and mu is a weakly decreasing integer n-tuple.  Points are
    produced in descending dominance order, ties broken lexicographically
    (the output is sorted lexicographically descending on lattice tops, which
    is that order on slope vectors and linearizes the dominance order).

    The search is output-sensitive: a segment is only tried if its path can
    still be completed.  From (x, y), every later slope is smaller, so a
    segment (dy, dx) ending short of x = n must rise faster than the chord
    to (n, sum(mu)): dy >= dx*(total - y)//(n - x) + 1.  The chord itself
    always completes the path: it stays under the concave mu-polygon, its
    slope is at least mu_n and below that of the segment before it.  So every
    node emits the point that ends in its chord when it is popped, and the
    search charges 2 * points - 1 nodes, at most points * n.  Each node
    carries the lattice tops of its path, extended by those of each segment,
    so every point leaves with its tops cache seeded.
    """
    n = as_int(n, "rank n")
    if n < 1:
        raise DomainError(f"rank n must be >= 1, got {n}")
    mu = tuple(as_int(x, "mu entry") for x in mu)
    if len(mu) != n:
        raise DomainError(f"mu must have length {n}, got {len(mu)}")
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise DomainError("mu must be weakly decreasing (dominant)")
    total = sum(mu)
    prefix = list(accumulate(mu, initial=0))
    meter = Meter("{} search nodes exceed")

    results: list[NewtonPoint] = []
    # depth-first over partial paths: segments acc of (rise, run) with tops reach (x, y)
    stack = [(0, 0, (), (0,))]
    while stack:
        x, y, acc, tops = stack.pop()
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
        meter.charge(1 + sum(hi - lo + 1 for _, lo, hi in ranges))
        chord = tuple([y + left * k // rest for k in range(1, rest + 1)])
        results.append(_with_tops(NewtonPoint(acc + ((left, rest),)), tops + chord))
        for dx, lo, hi in ranges:
            for dy in range(lo, hi + 1):
                seg = tuple([y + dy * k // dx for k in range(1, dx + 1)])
                stack.append((x + dx, y + dy, acc + ((dy, dx),), tops + seg))
    # the first differing top has the sign of the first differing slope
    results.sort(key=lambda p: p.tops, reverse=True)
    return results


def hasse(points) -> list[tuple[NewtonPoint, NewtonPoint]]:
    """Covering relations (lower, upper) of the dominance order that join two
    listed points.

    The dominance order with a fixed endpoint is graded by the sum of the
    lattice tops (C.-L. Chai, "Newton polygons as lattice points", Amer. J.
    Math. 122 (2000)), and dominance compares the tops entry by entry, so v
    covers u exactly when tops(v) = tops(u) + e_x for one interior x.  Each
    point's interior tops are packed into one integer, with a field wide
    enough that a unit step never carries, and every unit step up is one
    dict lookup.  On a whole class, as enumerate_B lists it in any order,
    these are the class's own covers.  On any other list they are covers
    too, but a cover that skips points missing from the list is not
    returned.  Edges are listed by the ranks of their ends, descending on
    lattice tops, lower end first.
    """
    # ranked descending on lattice tops, a linear extension of dominance
    pts = sorted(points, key=lambda p: p.tops, reverse=True)
    if not pts:
        return []
    tops = [p.tops for p in pts]
    if len({(len(t), t[-1]) for t in tops}) > 1:
        raise DomainError("hasse requires points of equal rank and endpoint")
    if any(a == b for a, b in zip(tops, tops[1:])):
        raise DomainError("hasse requires distinct points")
    lo = min(map(min, tops))
    # every field keeps room for one more unit, so a step stays in its field
    bits = (max(map(max, tops)) - lo + 1).bit_length()
    keys = []
    for t in tops:
        key = 0
        for v in t[1:-1]:
            key = key << bits | v - lo
        keys.append(key)
    rank = {key: i for i, key in enumerate(keys)}
    # coordinate 1 in the top field: a step at an earlier coordinate reaches
    # larger tops, ranked first, so the edges come out ascending in (lower,
    # upper) rank, that is descending in their slope vectors
    steps = [1 << bits * x for x in reversed(range(len(tops[0]) - 2))]
    return [(pts[j], pts[i]) for j, key in enumerate(keys) for step in steps
            if (i := rank.get(key + step)) is not None]


def dot_export(points) -> str:
    """DOT digraph of the covering relations; node labels carry the slope
    vector, the endpoint invariant, and the pairing value."""
    pts = list(points)
    return dot_text(pts, hasse(pts))


def dot_text(points, edges) -> str:
    """dot_export's rendering, given the covering edges of the points.  Nodes are
    named b0, b1, ... by rank descending on lattice tops, which are injective, and
    edges find their names by tops; a point listed twice or an edge endpoint
    not among the points raises DomainError."""
    # lattice tops order lexicographically as the slope vectors do
    pts = sorted(points, key=lambda p: p.tops, reverse=True)
    names = {p.tops: f"b{i}" for i, p in enumerate(pts)}
    if len(names) < len(pts):
        twice = next(a for a, b in zip(pts, pts[1:]) if a.tops == b.tops)
        raise DomainError(f"dot_text requires distinct points: {twice} is listed twice")
    lines = ["digraph kottwitz {"]
    lines += [f'  b{i} [label="{point_label(p)}"];' for i, p in enumerate(pts)]
    for lo, hi in edges:
        a, b = names.get(lo.tops), names.get(hi.tops)
        if a is None or b is None:
            raise DomainError(f"edge endpoint {lo if a is None else hi} is not among the points")
        lines.append(f"  {a} -> {b};")
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
