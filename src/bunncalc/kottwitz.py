"""Newton points with their endpoint invariant, the dominance order, and
enumeration of the points lying under a dominant cocharacter.

A Newton point is a dominant rational vector with integral breakpoints,
recorded as slope classes (slope, entry count) with den(slope) | count.  The
dictionary between points and bundles is nu_b = (-nu_E)_dom, so the endpoint
invariant kappa(b) equals -deg(E_b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .bundles import (
    BudgetError,
    BundleSpec,
    DomainError,
    Slope,
    check_slope,
    common_scale,
    enumeration_budget,
    partial_sums,
    rho_pairing,
    slope_str,
)


@dataclass(frozen=True)
class NewtonPoint:
    """Dominant slope vector as classes (slope, count), slopes strictly decreasing."""

    classes: tuple[tuple[Slope, int], ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise DomainError("a Newton point needs at least one slope class")
        for s, c in self.classes:
            check_slope(s)
            if c < 1:
                raise DomainError(f"class count must be >= 1, got {c}")
            if c % s.denominator != 0:
                raise DomainError(
                    f"breakpoints not integral: den({slope_str(s)}) does not divide {c}"
                )
        slopes = [s for s, _ in self.classes]
        if any(a >= b for a, b in zip(slopes[1:], slopes)):
            raise DomainError("Newton point slopes must be strictly decreasing")

    @property
    def rank(self) -> int:
        return sum(c for _, c in self.classes)

    @property
    def kappa(self) -> int:
        # exact: __post_init__ checks that den(s) divides c
        return sum(s.numerator * (c // s.denominator) for s, c in self.classes)

    def slope_vector(self) -> tuple[Fraction, ...]:
        out: list[Fraction] = []
        for s, c in self.classes:
            out.extend([s] * c)
        return tuple(out)

    def __str__(self) -> str:
        return "(" + ",".join(slope_str(s) for s in self.slope_vector()) + ")"


def bundle_to_b(e: BundleSpec) -> NewtonPoint:
    """Negate the bundle's slope multiset and re-sort dominantly."""
    classes = tuple((-s, m * s.denominator) for s, m in reversed(e.parts))
    return NewtonPoint(classes)


def b_to_bundle(b: NewtonPoint) -> BundleSpec:
    return BundleSpec(tuple((-s, c // s.denominator) for s, c in reversed(b.classes)))


def d_point(b: NewtonPoint) -> int:
    """<2rho, nu_b> evaluated on the point's slope classes."""
    return rho_pairing(b.classes)


def point_label(b: NewtonPoint, ascii_mode: bool = False) -> str:
    """The point's slope vector, endpoint invariant and pairing value."""
    nu, ka = ("nu", "kappa") if ascii_mode else ("ν", "κ")
    return f"{nu}={b} {ka}={b.kappa} d={d_point(b)}"


def point_from_vector(vec) -> NewtonPoint:
    """Build a point from a weakly decreasing slope vector (merging runs)."""
    entries = [Fraction(v) for v in vec]
    if any(a < b for a, b in zip(entries, entries[1:])):
        raise DomainError("slope vector must be weakly decreasing")
    classes: list[tuple[Fraction, int]] = []
    for v in entries:
        if classes and classes[-1][0] == v:
            classes[-1] = (v, classes[-1][1] + 1)
        else:
            classes.append((v, 1))
    return NewtonPoint(tuple(classes))


def leq(b1: NewtonPoint, b2: NewtonPoint) -> bool:
    """Dominance order within a fixed endpoint slice.

    True iff the endpoints agree and every partial sum of b1's slope vector is
    <= the corresponding partial sum of b2's.  Points with different endpoints
    compare as False (not an error), so poset utilities run on mixed lists.
    """
    if b1.rank != b2.rank:
        raise DomainError(f"rank mismatch: {b1.rank} vs {b2.rank}")
    scale = common_scale((b1.classes, b2.classes))
    s1, s2 = partial_sums(b1.classes, scale), partial_sums(b2.classes, scale)
    return s1[-1] == s2[-1] and all(map(le, s1, s2))


def enumerate_B(n: int, mu) -> list[NewtonPoint]:
    """All Newton points with endpoint sum(mu) lying under the mu-polygon.

    mu is a weakly decreasing integer n-tuple.  Points are produced in
    descending dominance order, ties broken lexicographically (the output is
    sorted lexicographically descending on slope vectors, which linearizes
    the dominance order).
    """
    mu = tuple(int(x) for x in mu)
    if len(mu) != n:
        raise DomainError(f"mu must have length {n}, got {len(mu)}")
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise DomainError("mu must be weakly decreasing (dominant)")
    total = sum(mu)
    prefix = [0]
    for x in mu:
        prefix.append(prefix[-1] + x)
    budget = enumeration_budget()
    lo_slope = mu[-1] if n else 0

    results: list[NewtonPoint] = []
    pushed = 0
    # depth-first over partial paths: segments acc of (rise, run) reach (x, y)
    stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, 0, ())]
    while stack:
        x, y, acc = stack.pop()
        if x == n:
            if y == total:
                results.append(NewtonPoint(tuple((Fraction(dy, dx), dx) for dy, dx in acc)))
            continue
        for dx in range(1, n - x + 1):
            # slope of the next maximal segment is dy/dx; classes strictly
            # decrease, stay under the concave mu-polygon (endpoint checks
            # suffice), and never drop below mu_n (cannot recover afterwards).
            hi = prefix[x + dx] - y
            if acc:
                # largest dy with dy/dx < the previous slope
                last_dy, last_dx = acc[-1]
                hi = min(hi, (last_dy * dx - 1) // last_dx)
            if hi < lo_slope * dx:
                continue
            # every point is a pushed node, so this also bounds the output
            pushed += hi - lo_slope * dx + 1
            if pushed > budget:
                raise BudgetError(f"{pushed} search nodes exceed budget of {budget}")
            for dy in range(hi, lo_slope * dx - 1, -1):
                stack.append((x + dx, y + dy, acc + ((dy, dx),)))
    # integer partial sums order lexicographically as the slope vectors do
    scale = common_scale(p.classes for p in results)
    results.sort(key=lambda p: partial_sums(p.classes, scale), reverse=True)
    return results


def hasse(points) -> list[tuple[NewtonPoint, NewtonPoint]]:
    """Covering relations (lower, upper) of the dominance order on the list.

    Points are ranked descending on their integer partial sums, which is a
    linear extension of dominance, and each point's strict down-set is kept as
    a bitmask over that ranking.  Walking the down-set of u nearest first, a
    point is covered by u exactly when it lies in the down-set of no cover of
    u found before it (transitive reduction against a linear extension,
    Aho-Garey-Ullman 1972).
    """
    pts = list(points)
    if not pts:
        return []
    scale = common_scale(p.classes for p in pts)
    sums = [partial_sums(p.classes, scale) for p in pts]
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


def dot_export(points, ascii_mode: bool = False) -> str:
    """DOT digraph of the covering relations; node labels carry the slope
    vector, the endpoint invariant, and the pairing value."""
    pts = list(points)
    return _dot_text(pts, hasse(pts), ascii_mode)


def _dot_text(points, edges, ascii_mode: bool) -> str:
    """dot_export's rendering, given the covering edges of the points."""
    # integer partial sums order lexicographically as the slope vectors do
    scale = common_scale(p.classes for p in points)
    pts = sorted(points, key=lambda p: partial_sums(p.classes, scale), reverse=True)
    names = {p: f"b{i}" for i, p in enumerate(pts)}
    lines = ["digraph kottwitz {"]
    for p in pts:
        lines.append(f'  {names[p]} [label="{point_label(p, ascii_mode)}"];')
    for lo, hi in edges:
        lines.append(f"  {names[lo]} -> {names[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parabolic_type(b: NewtonPoint) -> tuple[int, ...]:
    """Block sizes of the standard Levi on which nu_b is strictly dominant."""
    return tuple(c for _, c in b.classes)


@dataclass(frozen=True)
class InnerFormGroup:
    """Product of factors GL_m(D_{-inv}); inv = 0 is the split factor GL_m."""

    factors: tuple[tuple[int, Slope], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("automorphism group needs at least one factor")
        for m, s in self.factors:
            if m < 1:
                raise DomainError(f"factor size must be >= 1, got {m}")
            check_slope(s)

    def __str__(self) -> str:
        return self.describe()

    def describe(self, ascii_mode: bool = False) -> str:
        times = " x " if ascii_mode else " × "
        out = []
        for m, s in self.factors:
            if s.denominator == 1:
                out.append(f"GL_{m}")
            elif m == 1:
                dx = "D^x" if ascii_mode else "D^×"
                out.append(f"{dx}_{{{slope_str(-s)}}}")
            else:
                out.append(f"GL_{m}(D_{{{slope_str(-s)}}})")
        return times.join(out)


def automorphism_group(e: BundleSpec) -> InnerFormGroup:
    """One factor per slope class of the bundle, in decreasing slope order."""
    return InnerFormGroup(tuple((m, s) for s, m in e.parts))


@dataclass(frozen=True)
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
    ranks = [m * s.denominator for s, m in e.parts]
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
