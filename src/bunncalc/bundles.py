"""Exact slope arithmetic for vector bundles given by their stable summands.

A bundle is a finite direct sum of stable pieces O(lam), one isomorphism class
per rational slope lam = p/q in lowest terms; O(p/q) has rank q and degree p.
All arithmetic is exact (``fractions.Fraction``); floats never appear, so
equality tests on slopes, polygons and pairings are reliable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Slope = Fraction


class DomainError(ValueError):
    """A mathematical precondition on the input was violated."""


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""


def reduce_slope(num: int, den: int) -> Slope:
    """Return num/den in lowest terms.  The denominator must be >= 1."""
    if den < 1:
        raise DomainError(f"slope denominator must be >= 1, got {den}")
    return Fraction(num, den)


def slope_str(s: Slope) -> str:
    if s.denominator == 1:
        return str(s.numerator)
    return f"{s.numerator}/{s.denominator}"


def h0_vanishes(s: Slope) -> bool:
    """Global sections of a semistable piece of slope s vanish iff s < 0."""
    return s < 0


def h1_vanishes(s: Slope) -> bool:
    """H^1 of a semistable piece of slope s vanishes iff s >= 0."""
    return s >= 0


@dataclass(frozen=True)
class BundleSpec:
    """Multiset of stable slopes: parts (slope, mult) with slopes strictly decreasing."""

    parts: tuple[tuple[Slope, int], ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError("a bundle must have at least one summand")
        for s, m in self.parts:
            if not isinstance(s, Fraction):
                raise DomainError(f"slope {s!r} is not an exact rational")
            if m < 1:
                raise DomainError(f"multiplicity must be >= 1, got {m}")
        slopes = [s for s, _ in self.parts]
        if any(a >= b for a, b in zip(slopes[1:], slopes)):
            raise DomainError("slopes must be strictly decreasing")

    @property
    def rank(self) -> int:
        return sum(m * s.denominator for s, m in self.parts)

    @property
    def deg(self) -> int:
        return sum(m * s.numerator for s, m in self.parts)

    def slope_classes(self) -> tuple[tuple[Slope, int], ...]:
        """(slope, entry count) pairs, where the count is mult * den(slope)."""
        return tuple((s, m * s.denominator) for s, m in self.parts)

    def direct_sum(self, other: "BundleSpec") -> "BundleSpec":
        return normalize_bundle(list(self.parts) + list(other.parts))

    def twist(self, a: int) -> "BundleSpec":
        """Tensor by the degree-a line bundle: every slope shifts by a."""
        return BundleSpec(tuple((s + a, m) for s, m in self.parts))

    def __str__(self) -> str:
        return format_bundle(self)


def normalize_bundle(raw: Iterable[tuple[Slope, int]]) -> BundleSpec:
    """Merge equal slopes and sort strictly decreasing."""
    merged: dict[Slope, int] = {}
    empty = True
    for s, m in raw:
        empty = False
        if m < 1:
            raise DomainError(f"multiplicity must be >= 1, got {m}")
        merged[Fraction(s)] = merged.get(Fraction(s), 0) + m
    if empty:
        raise DomainError("empty summand list")
    parts = tuple(sorted(merged.items(), key=lambda p: p[0], reverse=True))
    return BundleSpec(parts)


def bundle(*parts: tuple[int, int, int]) -> BundleSpec:
    """Convenience builder from (num, den, mult) triples."""
    return normalize_bundle([(reduce_slope(n, d), m) for n, d, m in parts])


@dataclass(frozen=True)
class Polygon:
    """Concave piecewise-linear path from (0,0); vertices left to right."""

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 2 or v[0] != (Fraction(0), Fraction(0)):
            raise DomainError("polygon must start at (0,0) and have >= 2 vertices")
        xs = [p[0] for p in v]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise DomainError("polygon abscissae must strictly increase")
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(v, v[1:])
        ]
        if any(a >= b for a, b in zip(slopes[1:], slopes)):
            raise DomainError("polygon must be concave (strictly decreasing slopes)")

    @property
    def endpoint(self) -> tuple[Fraction, Fraction]:
        return self.vertices[-1]

    def value_at(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        if x < 0 or x > self.vertices[-1][0]:
            raise DomainError(f"abscissa {x} outside polygon span")
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def lies_above(self, other: "Polygon") -> bool:
        """Pointwise >= comparison; spans must agree.

        Both polygons have integer breakpoints, so comparing at the integer
        abscissae is equivalent to the pointwise statement.
        """
        if self.endpoint[0] != other.endpoint[0]:
            raise DomainError("polygon spans differ")
        n = int(self.endpoint[0])
        return all(self.value_at(x) >= other.value_at(x) for x in range(n + 1))


def hn_polygon(b: BundleSpec) -> Polygon:
    """One segment per slope class; breakpoints are lattice points."""
    x = Fraction(0)
    y = Fraction(0)
    verts = [(x, y)]
    for s, m in b.parts:
        x += m * s.denominator
        y += m * s.numerator
        verts.append((x, y))
    return Polygon(tuple(verts))


def rho_pairing(classes: Sequence[tuple[Slope, int]]) -> int:
    """Pairing of a dominant slope vector against the sum of positive coroots.

    ``classes`` lists (slope, entry count) with slopes strictly decreasing and
    each class of integral total degree; the value is
    sum_{i<j} m_i m_j (lam_i - lam_j), always an integer.  It is computed on
    the slopes scaled by the lcm of their denominators, then divided exactly.
    """
    slopes = [s if isinstance(s, Fraction) else Fraction(s) for s, _ in classes]
    scale = lcm(*(s.denominator for s in slopes))
    scaled = [s.numerator * (scale // s.denominator) for s in slopes]
    if any(a >= b for a, b in zip(scaled[1:], scaled)):
        raise DomainError("slope classes must be strictly decreasing")
    for s, (_, m) in zip(slopes, classes):
        if m < 1:
            raise DomainError(f"class count must be >= 1, got {m}")
        if s.numerator * m % s.denominator:
            raise DomainError(
                f"class {slope_str(s)}^({m}) has fractional total degree"
            )
    # class i pairs with the counts after it positively, before it negatively
    total = 0
    before = 0
    after = sum(m for _, m in classes)
    for x, (_, m) in zip(scaled, classes):
        after -= m
        total += m * x * (after - before)
        before += m
    return total // scale


def rho_pairing_bundle(b: BundleSpec) -> int:
    """<2rho, nu> of the bundle's slope vector (equal for nu and its negate)."""
    return rho_pairing(b.slope_classes())


# A specific rank-10 configuration for which a published worked value of the
# pairing (26, giving defect 19) disagrees with the defining sum (27, defect
# 20).  The formula is normative here; outputs on this exact instance carry a
# note so the difference stays visible.
_FLAGGED_CLASSES = (
    (Fraction(3, 2), 2),
    (Fraction(1, 2), 2),
    (Fraction(1, 3), 3),
    (Fraction(0), 3),
)


def pairing_note(classes: Sequence[tuple[Slope, int]]) -> str | None:
    """Annotation for the known tabulated-value discrepancy, else None."""
    cl = tuple((Fraction(s), m) for s, m in classes)
    negated = tuple((-s, m) for s, m in reversed(cl))
    if cl == _FLAGGED_CLASSES or negated == _FLAGGED_CLASSES:
        return (
            "for slope data (3/2^2, 1/2^2, 1/3^3, 0^3) a published worked "
            "value of the pairing is 26 (defect 19); the defining sum "
            "sum_{i<j} m_i m_j (lam_i - lam_j) gives 27 (defect 20), reported here"
        )
    return None


_TERM_RE = re.compile(
    r"O(?:\((?P<num>-?\d+)(?:/(?P<den>\d+))?\))?(?:\^(?P<mult>\d+))?"
)


def parse_bundle(text: str) -> BundleSpec:
    """Parse the summand grammar ``O(a/b)^m + O(a/b) + O^m + O``.

    Whitespace-insensitive; equal slopes are merged and sorted on output, so
    ``format_bundle(parse_bundle(t))`` is the canonical form of ``t``.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty bundle expression")
    parts: list[tuple[Slope, int]] = []
    pos = 0
    while True:
        m = _TERM_RE.match(compact, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"bad bundle syntax at position {pos}: {compact[pos:]!r}")
        num = int(m.group("num")) if m.group("num") is not None else 0
        den = int(m.group("den")) if m.group("den") is not None else 1
        mult = int(m.group("mult")) if m.group("mult") is not None else 1
        if den == 0:
            raise ParseError(f"zero denominator at position {pos}")
        if mult == 0:
            raise ParseError(f"zero multiplicity at position {pos}")
        parts.append((reduce_slope(num, den), mult))
        pos = m.end()
        if pos == len(compact):
            break
        if compact[pos] != "+":
            raise ParseError(f"expected '+' at position {pos}: {compact[pos:]!r}")
        pos += 1
    return normalize_bundle(parts)


def format_bundle(b: BundleSpec, pretty: bool = False) -> str:
    """Canonical text form; with pretty=True uses a direct-sum glyph."""
    terms = []
    for s, m in b.parts:
        base = "O" if s == 0 else f"O({slope_str(s)})"
        terms.append(base if m == 1 else f"{base}^{m}")
    return (" ⊕ " if pretty else "+").join(terms)


def bundle_to_json(b: BundleSpec) -> dict:
    return {
        "parts": [
            {"num": s.numerator, "den": s.denominator, "mult": m} for s, m in b.parts
        ]
    }
