"""Exact slope arithmetic for vector bundles given by their stable summands.

A bundle is a finite direct sum of stable pieces O(lam), one isomorphism class
per rational slope lam = p/q in lowest terms; O(p/q) has rank q and degree p.
A bundle is stored as the integer segments (deg, rank) of its HN polygon, one
per stable class: O(p/q)^m is the segment (m*p, m*q), so m = gcd(deg, rank).
Newton points are stored the same way, and both are checked by one validator.
Polygons with lattice breakpoints compare by their lattice tops and pair with
2rho in integers, and parsing and the text and JSON forms run in integers.
``fractions.Fraction`` is left in ``reduce_slope``, ``bundle()``,
``normalize_bundle``'s input and ``rho_pairing``.

Every stored value of the package is a frozen record made by ``record``: one
compiled source per class gives it ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` over its fields, as ``dataclasses.dataclass(frozen=True)`` would,
without loading ``dataclasses`` (and with it ``inspect``) on a CLI start.

Every enumeration charges its work to a ``Meter``, which reads the budget
once and words each ``BudgetError`` the same way.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd
from numbers import Number
from typing import Iterable, Sequence

Slope = Fraction


class DomainError(ValueError):
    """A mathematical precondition on the input was violated."""


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""


class BudgetError(RuntimeError):
    """An enumeration exceeded the configured desk-scale budget."""


def enumeration_budget() -> int:
    """Cap on enumerated objects, overridable via BUNNCALC_BUDGET."""
    raw = os.environ.get("BUNNCALC_BUDGET", "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise BudgetError(f"BUNNCALC_BUDGET is not an integer: {raw!r}") from exc
    return 1_000_000


class Meter:
    """Work charged against the budget read when the meter is made; the charge
    that takes ``used`` past it raises "<stem with used> budget of <limit>"."""

    __slots__ = ("stem", "limit", "used")

    def __init__(self, stem: str) -> None:
        self.stem, self.limit, self.used = stem, enumeration_budget(), 0

    def charge(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise BudgetError(f"{self.stem.format(self.used)} budget of {self.limit}")


def reduce_slope(num: int, den: int) -> Slope:
    """Return num/den in lowest terms.  The denominator must be >= 1."""
    num, den = as_int(num, "slope numerator"), as_int(den, "slope denominator")
    if den < 1:
        raise DomainError(f"slope denominator must be >= 1, got {den}")
    return Fraction(num, den)


def slope_str(rise: int, run: int) -> str:
    """The slope rise/run, run >= 1, in lowest terms: "p" or "p/q"."""
    g = gcd(rise, run)
    return str(rise // g) if g == run else f"{rise // g}/{run // g}"


# reduced slopes (p, q), q >= 1, in decreasing order
_DECREASING_SLOPE = cmp_to_key(lambda a, b: b[0] * a[1] - a[0] * b[1])


def slope_groups(segments: Sequence[tuple[int, int]]) -> list[tuple[int, int, list[int]]]:
    """The segments (rise, run), run >= 1, grouped by slope in one pass: per
    class its summed (rise, run) and its member indices in input order, the
    classes in strictly decreasing slope (compared by cross products)."""
    groups: dict[tuple[int, int], list] = {}
    for i, (rise, run) in enumerate(segments):
        g = gcd(rise, run)
        key = (rise // g, run // g)
        cls = groups.get(key)
        if cls is None:
            groups[key] = [rise, run, [i]]
        else:
            cls[0] += rise
            cls[1] += run
            cls[2].append(i)
    return [tuple(groups[k]) for k in sorted(groups, key=_DECREASING_SLOPE)]


def check_segments(segments: Sequence[tuple[int, int]]) -> None:
    """Segments (rise, run) of ints, not bools, run >= 1, slopes rise/run
    strictly decreasing: the storage of bundles and of Newton points alike."""
    if not segments:
        raise DomainError("at least one slope class is needed")
    for rise, run in segments:
        if not (type(rise) is int and type(run) is int):
            raise DomainError(f"segment ({rise!r}, {run!r}) is not a pair of integers")
        if run < 1:
            raise DomainError(f"class count must be >= 1, got {run}")
    pairs = iter(segments)
    r1, m1 = next(pairs)
    for r2, m2 in pairs:
        if r2 * m1 >= r1 * m2:
            raise DomainError("slopes must be strictly decreasing")
        r1, m1 = r2, m2


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def record(cls):
    """Make cls a frozen record of its annotated fields, ``ClassVar``s left out.

    As ``collections.namedtuple`` does, one source per class is compiled: an
    ``__init__`` taking the fields by position or keyword, a value set in the
    class body being its default, that ends in ``self.__post_init__()`` if the
    class defines one; ``__eq__`` between records of one class, and
    ``__hash__`` as the hash of the field tuple.  These and ``__repr__`` are
    those of ``dataclasses.dataclass(frozen=True)``.  Assigning or deleting
    an attribute raises ``AttributeError``; ``__match_args__`` lists the fields.
    """
    fields = tuple(
        name
        for name, ann in cls.__dict__.get("__annotations__", {}).items()
        if not str(ann).startswith(("ClassVar", "typing.ClassVar"))
    )
    defaults = {f"_default_{name}": cls.__dict__[name] for name in fields if name in cls.__dict__}
    scope = {"_setattr": object.__setattr__, **defaults}
    params = [f"{n}=_default_{n}" if f"_default_{n}" in defaults else n for n in fields]
    body = [f"    _setattr(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    own = "".join(f"self.{name}, " for name in fields)
    other = "".join(f"other.{name}, " for name in fields)
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *body,
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({own}) == ({other})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({own}))",
    ]), scope)
    for name in ("__init__", "__eq__", "__hash__"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, scope[name])
    cls.__repr__ = _record_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = fields
    return cls


@record
class BundleSpec:
    """A bundle as its HN segments (deg, rank), one per stable class, slopes
    strictly decreasing.  The class O(p/q)^m is the segment (m*p, m*q), so its
    multiplicity is gcd(deg, rank)."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        check_segments(self.segments)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.segments)

    @property
    def deg(self) -> int:
        return sum(deg for deg, _ in self.segments)

    def __str__(self) -> str:
        return format_bundle(self)


def merge_segments(segments: Sequence[tuple[int, int]]) -> BundleSpec:
    """The bundle of segments (deg, rank) in any order: equal slopes merge.
    Its rank may not exceed the enumeration budget."""
    spec = BundleSpec(tuple((deg, rank) for deg, rank, _ in slope_groups(segments)))
    Meter("bundle rank {} exceeds").charge(spec.rank)
    return spec


def normalize_bundle(raw: Iterable[tuple[Slope, int]]) -> BundleSpec:
    """Merge equal slopes and sort strictly decreasing; the rank may not
    exceed the enumeration budget."""
    segments = []
    for s, m in raw:
        if m < 1:
            raise DomainError(f"multiplicity must be >= 1, got {m}")
        s = Fraction(s)
        segments.append((s.numerator * m, s.denominator * m))
    if not segments:
        raise DomainError("empty summand list")
    return merge_segments(segments)


def bundle(*parts: tuple[int, int, int]) -> BundleSpec:
    """Convenience builder from (num, den, mult) triples."""
    return normalize_bundle([(reduce_slope(n, d), m) for n, d, m in parts])


def hn_polygon(b: BundleSpec) -> tuple[tuple[int, int], ...]:
    """Vertices (rank, degree) of the HN polygon from (0, 0), one segment per
    slope class; breakpoints are lattice points."""
    ranks = accumulate((rank for _, rank in b.segments), initial=0)
    degs = accumulate((deg for deg, _ in b.segments), initial=0)
    return tuple(zip(ranks, degs))


def as_int(x, what: str) -> int:
    """x as an int; a value with a fractional part is rejected, not truncated,
    and so are a string and any value int() refuses, named by its repr."""
    if type(x) is int:
        return x
    try:
        if not isinstance(x, str) and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} {x if isinstance(x, Number) else repr(x)} is not an integer")


def check_dominant(lam, n: int | None = None) -> tuple[int, ...]:
    """lam as a tuple of ints, weakly decreasing, of length n if n is given."""
    lam = tuple(as_int(x, "weight entry") for x in lam)
    if n is not None and len(lam) != n:
        raise DomainError(f"weight must have length {n}, got {len(lam)}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise DomainError(f"weight {lam} is not dominant (weakly decreasing)")
    return lam


def lattice_tops(segments: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """floor(nu(x)), x = 0..n, along the segments (rise, run) from the origin;
    concave lattice polygons lie under each other iff their tops do."""
    tops = [0]
    for rise, run in segments:
        y = tops[-1]
        tops += [y + rise * k // run for k in range(1, run + 1)]
    return tuple(tops)


def segment_pairing(segments: Iterable[tuple[int, int]]) -> int:
    """<2rho, nu> = sum_{i<j} (r_i m_j - r_j m_i) over segments (r_i, m_i), slopes decreasing."""
    total = rise_before = run_before = 0
    for rise, run in segments:
        total += rise_before * run - rise * run_before
        rise_before += rise
        run_before += run
    return total


def rho_weight(vec) -> int:
    """<2rho, v> = sum_{i<j} (v_i - v_j) for a weakly decreasing integer vector."""
    return segment_pairing((x, 1) for x in check_dominant(vec))


def is_minuscule(vec) -> bool:
    """Entries lie in {0, 1} after subtracting the smallest one."""
    vec = tuple(as_int(x, "weight entry") for x in vec)
    base = min(vec)
    return all(x - base in (0, 1) for x in vec)


def rho_pairing(classes: Sequence[tuple[Slope, int]]) -> int:
    """Pairing of a dominant slope vector against the sum of positive coroots.

    ``classes`` lists (slope, entry count) with slopes strictly decreasing and
    each class of integral total degree; the value is
    sum_{i<j} m_i m_j (lam_i - lam_j), always an integer, computed on the
    segments (total degree, count).
    """
    if any(a >= b for (a, _), (b, _) in zip(classes[1:], classes)):
        raise DomainError("slope classes must be strictly decreasing")
    for s, m in classes:
        if m < 1:
            raise DomainError(f"class count must be >= 1, got {m}")
        if s.numerator * m % s.denominator:
            raise DomainError(
                f"class {slope_str(s.numerator, s.denominator)}^({m}) has fractional total degree"
            )
    return segment_pairing((s.numerator * m // s.denominator, m) for s, m in classes)


# A specific rank-10 configuration for which a published worked value of the
# pairing (26, giving defect 19) disagrees with the defining sum (27, defect
# 20).  The formula is normative here; outputs on this exact instance carry a
# note so the difference stays visible.  Segments (deg, rank) of the bundle
# O(3/2)+O(1/2)+O(1/3)+O^3; its Newton point is the negated reversal.
_FLAGGED_SEGMENTS = ((3, 2), (1, 2), (1, 3), (0, 3))


def pairing_note(segments: Sequence[tuple[int, int]]) -> str | None:
    """Annotation for the known tabulated-value discrepancy, else None; the
    segments are a bundle's or its Newton point's."""
    seg = tuple(segments)
    if _FLAGGED_SEGMENTS in (seg, tuple((-d, r) for d, r in reversed(seg))):
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
    ``format_bundle(parse_bundle(t))`` is the canonical form of ``t``.  The
    rank may not exceed the enumeration budget.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty bundle expression")
    segments: list[tuple[int, int]] = []
    pos = 0
    while True:
        m = _TERM_RE.match(compact, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"bad bundle syntax at position {pos}: {compact[pos:]!r}")
        try:
            num, den, mult = (int(g) if g else d for g, d in zip(m.groups(), (0, 1, 1)))
        except ValueError as exc:
            raise ParseError(f"number too long in the term at position {pos}") from exc
        if den == 0:
            raise ParseError(f"zero denominator at position {pos}")
        if mult == 0:
            raise ParseError(f"zero multiplicity at position {pos}")
        g = gcd(num, den)
        segments.append((num // g * mult, den // g * mult))
        pos = m.end()
        if pos == len(compact):
            break
        if compact[pos] != "+":
            raise ParseError(f"expected '+' at position {pos}: {compact[pos:]!r}")
        pos += 1
    return merge_segments(segments)


def format_bundle(b: BundleSpec, pretty: bool = False) -> str:
    """Canonical grammar form; pretty=True gives the display form, joined by " ⊕ "."""
    terms = []
    for deg, rank in b.segments:
        m = gcd(deg, rank)
        base = "O" if deg == 0 else f"O({slope_str(deg, rank)})"
        terms.append(base if m == 1 else f"{base}^{m}")
    return (" ⊕ " if pretty else "+").join(terms)


# the ASCII spelling of every math glyph the renderers draw
_ASCII = str.maketrans({"ν": "nu", "κ": "kappa", "χ": "chi", "×": "x", "⊠": "x", "⊗": "(x)",
                        "⊕": "+", "∨": "^v", "·": "*", "Λ": "Lam"})


def ascii_text(text: str) -> str:
    """text with each math glyph spelled in ASCII: the ``--ascii`` form."""
    return text.translate(_ASCII)


def bundle_to_json(b: BundleSpec) -> dict:
    """Each class O(num/den)^mult of the segment (deg, rank), mult = gcd(deg, rank)."""
    parts = [(deg, rank, gcd(deg, rank)) for deg, rank in b.segments]
    return {"parts": [{"num": d // m, "den": r // m, "mult": m} for d, r, m in parts]}
