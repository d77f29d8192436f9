"""Semisimple parameter skeletons, their character lattice, and the
character <-> (stratum, representation) dictionary.

A parameter shape is a formal direct sum of r pairwise-distinct irreducible
components, recorded only by label, dimension and torsion number.  Characters
of the centralizer torus are integer r-vectors; the character chi = (d_i)
corresponds to the stratum of the bundle sum_i O(d_i/n_i)^{gcd(d_i, n_i)} and
to the representation symbol cut out by the fibers of i -> d_i/n_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .bundles import BundleSpec, DomainError, Slope, normalize_bundle, slope_str
from .kottwitz import (
    BudgetError,
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    d_point,
    enumeration_budget,
)

Character = tuple[int, ...]


def chi_id(r: int) -> Character:
    return (0,) * r


def chi_mul(a: Character, b: Character) -> Character:
    if len(a) != len(b):
        raise DomainError(f"character length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def chi_inv(a: Character) -> Character:
    return tuple(-x for x in a)


@dataclass(frozen=True)
class Component:
    label: str
    dim: int
    torsion: int = 1
    frobenius_symbols: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"component dimension must be >= 1, got {self.dim}")
        if self.torsion < 1:
            raise DomainError(f"torsion number must be >= 1, got {self.torsion}")
        if self.frobenius_symbols is not None and len(self.frobenius_symbols) != self.dim:
            raise DomainError(
                f"component {self.label!r} needs {self.dim} frobenius symbols"
            )


@dataclass(frozen=True)
class LParamShape:
    components: tuple[Component, ...]
    disjointness_asserted: bool = True

    def __post_init__(self) -> None:
        if not self.components:
            raise DomainError("parameter shape needs at least one component")
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise DomainError("component labels must be pairwise distinct")

    @classmethod
    def from_dims(cls, dims, labels=None, torsion=None) -> "LParamShape":
        dims = tuple(int(d) for d in dims)
        if labels is None:
            labels = tuple(f"phi{i + 1}" for i in range(len(dims)))
        if torsion is None:
            torsion = (1,) * len(dims)
        comps = tuple(
            Component(label=l, dim=d, torsion=k)
            for l, d, k in zip(labels, dims, torsion)
        )
        return cls(comps)

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return sum(c.dim for c in self.components)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def check_chi(self, chi: Character) -> Character:
        chi = tuple(int(x) for x in chi)
        if len(chi) != self.r:
            raise DomainError(
                f"character length {len(chi)} does not match {self.r} components"
            )
        return chi


def chi_to_bundle(shape: LParamShape, chi: Character) -> BundleSpec:
    """Component i contributes O(d_i/n_i) with multiplicity gcd(d_i, n_i)."""
    chi = shape.check_chi(chi)
    parts = []
    for d, comp in zip(chi, shape.components):
        g = gcd(abs(d), comp.dim) if d != 0 else comp.dim
        parts.append((Fraction(d, comp.dim), g))
    return normalize_bundle(parts)


@dataclass(frozen=True)
class RepSymbol:
    """Representation symbol: the stratum plus the component partition by slope."""

    stratum: NewtonPoint
    slope_classes: tuple[tuple[Slope, frozenset[int]], ...]
    group: InnerFormGroup

    def describe(self, shape: LParamShape, ascii_mode: bool = False) -> str:
        boxtimes = " x " if ascii_mode else " ⊠ "
        parts = []
        for s, members in self.slope_classes:
            labels = "+".join(shape.components[i].label for i in sorted(members))
            parts.append(f"pi[{labels}]@{slope_str(s)}")
        return boxtimes.join(parts)


def chi_to_rep(shape: LParamShape, chi: Character) -> RepSymbol:
    chi = shape.check_chi(chi)
    e = chi_to_bundle(shape, chi)
    fibers: dict[Fraction, set[int]] = {}
    for i, (d, comp) in enumerate(zip(chi, shape.components)):
        fibers.setdefault(Fraction(d, comp.dim), set()).add(i)
    classes = tuple(
        (s, frozenset(fibers[s]))
        for s in sorted(fibers, reverse=True)
    )
    return RepSymbol(
        stratum=bundle_to_b(e), slope_classes=classes, group=automorphism_group(e)
    )


@dataclass(frozen=True)
class SheafSymbol:
    """Shifted extension-by-zero of a twisted representation symbol."""

    stratum: NewtonPoint
    rep: RepSymbol
    modulus_half_exponent: Fraction
    shift: int
    tate_twist: Fraction


def make_F(shape: LParamShape, chi: Character) -> SheafSymbol:
    """The sheaf of chi: half-modulus twist, shift by -<2rho, nu> of its stratum."""
    rep = chi_to_rep(shape, chi)
    return SheafSymbol(
        stratum=rep.stratum,
        rep=rep,
        modulus_half_exponent=Fraction(-1, 2),
        shift=-d_point(rep.stratum),
        tate_twist=Fraction(0),
    )


def character_of_rep(shape: LParamShape, rep: RepSymbol) -> Character:
    """Recover chi from the slope-class partition; d_i = slope(class of i) * n_i."""
    chi = [0] * shape.r
    seen: set[int] = set()
    for s, members in rep.slope_classes:
        for i in members:
            if i in seen or not 0 <= i < shape.r:
                raise DomainError("invalid component partition in representation symbol")
            seen.add(i)
            d = Fraction(s) * shape.components[i].dim
            if d.denominator != 1:
                raise DomainError(
                    f"slope {slope_str(Fraction(s))} is not integral on component {i + 1}"
                )
            chi[i] = int(d)
    if len(seen) != shape.r:
        raise DomainError("representation symbol does not cover all components")
    return tuple(chi)


def character_of_sheaf(shape: LParamShape, sheaf: SheafSymbol) -> Character:
    """Recover chi from a sheaf symbol, rejecting anything not of that shape."""
    chi = character_of_rep(shape, sheaf.rep)
    if sheaf != make_F(shape, chi):
        raise DomainError("sheaf symbol is not of the canonical translated shape")
    return chi


def b_to_chis(shape: LParamShape, b: NewtonPoint) -> list[Character]:
    """All characters whose stratum is b, in ascending lexicographic order.

    Components are distributed over the slope classes of the bundle of b;
    class of slope p/q (lowest terms) may host component j only if q | n_j,
    and the hosted dimensions must sum to the class rank.
    """
    if b.rank != shape.n:
        raise DomainError(f"rank mismatch: point has {b.rank}, shape has {shape.n}")
    e = b_to_bundle(b)
    slopes = [s for s, _ in e.parts]
    order = sorted(range(shape.r), key=lambda i: -shape.components[i].dim)
    budget = enumeration_budget()

    out: list[Character] = []
    # depth-first: the first len(chi) components of order are placed, and
    # remaining is the rank each class still has to host
    stack = [((), tuple(m * s.denominator for s, m in e.parts))]
    while stack:
        chi, remaining = stack.pop()
        if len(chi) == shape.r:
            if not any(remaining):
                placed = dict(zip(order, chi))
                out.append(tuple(placed[i] for i in range(shape.r)))
                if len(out) > budget:
                    raise BudgetError(f"character enumeration exceeded {budget}")
            continue
        ni = shape.components[order[len(chi)]].dim
        for cls, s in enumerate(slopes):
            if ni % s.denominator == 0 and remaining[cls] >= ni:
                rest = remaining[:cls] + (remaining[cls] - ni,) + remaining[cls + 1 :]
                stack.append((chi + (s.numerator * ni // s.denominator,), rest))
    return sorted(set(out))


def check_a1(shape: LParamShape) -> bool:
    """The caller's disjointness assertion flag (label distinctness is
    enforced when the shape is built)."""
    return shape.disjointness_asserted


@dataclass(frozen=True)
class ComponentShape:
    r: int
    torsion: tuple[int, ...]
    stack: str
    closed_point_law: str

    def __str__(self) -> str:
        return f"{self.stack} with closed points {self.closed_point_law}"


def component_shape(shape: LParamShape) -> ComponentShape:
    """Connected-component description: a trivially-acted torus quotient."""
    if not check_a1(shape):
        raise DomainError("component description requires the distinctness hypothesis")
    r = shape.r
    torsion = tuple(c.torsion for c in shape.components)
    if r == 1:
        coords = f"t^{torsion[0]}" if torsion[0] != 1 else "t"
    else:
        coords = (
            "("
            + ", ".join(
                f"t_{i + 1}^{k}" if k != 1 else f"t_{i + 1}"
                for i, k in enumerate(torsion)
            )
            + ")"
        )
    return ComponentShape(
        r=r,
        torsion=torsion,
        stack=f"[G_m^{r}/G_m^{r}]" if r > 1 else "[G_m/G_m]",
        closed_point_law=coords,
    )
