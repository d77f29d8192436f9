"""Semisimple parameter skeletons, their character lattice, and the
character <-> (stratum, representation) dictionary.

A parameter shape is a formal direct sum of r pairwise-distinct irreducible
components, recorded only by label, dimension and torsion number.  Characters
of the centralizer torus are integer r-vectors; the character chi = (d_i)
corresponds to the stratum of the bundle sum_i O(d_i/n_i)^{gcd(d_i, n_i)} and
to the representation symbol cut out by the fibers of i -> d_i/n_i; a fiber
is the stratum segment (-sum d_i, sum n_i), so all of it runs in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .bundles import (
    BudgetError,
    BundleSpec,
    DomainError,
    as_int,
    enumeration_budget,
    slope_groups,
    slope_str,
)
from .kottwitz import (
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    b_to_bundle,
    d_point,
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

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"component dimension must be >= 1, got {self.dim}")
        if self.torsion < 1:
            raise DomainError(f"torsion number must be >= 1, got {self.torsion}")


@dataclass(frozen=True)
class LParamShape:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise DomainError("parameter shape needs at least one component")
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise DomainError("component labels must be pairwise distinct")
        if self.n > enumeration_budget():
            raise BudgetError(f"shape rank {self.n} exceeds budget of {enumeration_budget()}")

    @classmethod
    def from_dims(cls, dims, labels=None, torsion=None) -> "LParamShape":
        dims = tuple(as_int(d, "dimension") for d in dims)
        if labels is None:
            labels = tuple(f"phi{i + 1}" for i in range(len(dims)))
        if torsion is None:
            torsion = (1,) * len(dims)
        if not len(labels) == len(torsion) == len(dims):
            raise DomainError(f"{len(dims)} dims need as many labels and torsion numbers")
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
        chi = tuple(as_int(x, "character entry") for x in chi)
        if len(chi) != self.r:
            raise DomainError(
                f"character length {len(chi)} does not match {self.r} components"
            )
        return chi


def chi_to_bundle(shape: LParamShape, chi: Character) -> BundleSpec:
    """Component i contributes O(d_i/n_i) with multiplicity gcd(d_i, n_i)."""
    return b_to_bundle(chi_to_rep(shape, chi).stratum)


@dataclass(frozen=True)
class RepSymbol:
    """Representation symbol: the stratum plus one component-index tuple per
    slope class of the stratum, in decreasing bundle slope."""

    stratum: NewtonPoint
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.stratum.segments):
            raise DomainError("representation symbol needs one member tuple per slope class")

    @property
    def group(self) -> InnerFormGroup:
        """The automorphism group J_b of the stratum's bundle."""
        return automorphism_group(b_to_bundle(self.stratum))

    def describe(self, shape: LParamShape, ascii_mode: bool = False) -> str:
        boxtimes = " x " if ascii_mode else " ⊠ "
        parts = []
        for (rise, run), members in zip(reversed(self.stratum.segments), self.members):
            labels = "+".join(shape.components[i].label for i in members)
            parts.append(f"pi[{labels}]@{slope_str(-rise, run)}")
        return boxtimes.join(parts)


def chi_to_rep(shape: LParamShape, chi: Character) -> RepSymbol:
    """Components grouped by their slope d_i/n_i, in decreasing slope; each
    group is one stratum segment."""
    chi = shape.check_chi(chi)
    classes = slope_groups(tuple(zip(chi, shape.dims)))
    segments = tuple(
        (-sum(chi[i] for i in members), sum(shape.components[i].dim for i in members))
        for members in reversed(classes)
    )
    return RepSymbol(
        stratum=NewtonPoint(segments),
        members=tuple(tuple(members) for members in classes),
    )


@dataclass(frozen=True)
class SheafSymbol:
    """Shifted extension-by-zero of a twisted representation symbol."""

    rep: RepSymbol
    modulus_half_exponent: ClassVar[Fraction] = Fraction(-1, 2)
    tate_twist: ClassVar[Fraction] = Fraction(0)

    @property
    def stratum(self) -> NewtonPoint:
        return self.rep.stratum

    @property
    def shift(self) -> int:
        return -d_point(self.rep.stratum)


def make_F(shape: LParamShape, chi: Character) -> SheafSymbol:
    """The sheaf of chi: half-modulus twist, shift by -<2rho, nu> of its stratum."""
    return SheafSymbol(chi_to_rep(shape, chi))


def character_of_rep(shape: LParamShape, rep: RepSymbol) -> Character:
    """Recover chi from the slope-class partition; d_i = -rise * n_i / run."""
    chi = [0] * shape.r
    seen: set[int] = set()
    for (rise, run), members in zip(reversed(rep.stratum.segments), rep.members):
        for i in members:
            if i in seen or not 0 <= i < shape.r:
                raise DomainError("invalid component partition in representation symbol")
            seen.add(i)
            chi[i], frac = divmod(-rise * shape.components[i].dim, run)
            if frac:
                slope = slope_str(-rise, run)
                raise DomainError(f"slope {slope} is not integral on component {i + 1}")
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
    the class of segment (rise, run) may host component j only if
    run | rise * n_j, and the hosted dimensions must sum to the class rank.
    """
    if b.rank != shape.n:
        raise DomainError(f"rank mismatch: point has {b.rank}, shape has {shape.n}")
    segments = tuple(reversed(b.segments))
    order = sorted(range(shape.r), key=lambda i: -shape.components[i].dim)
    budget = enumeration_budget()

    out: list[Character] = []
    pushed = 0
    # depth-first: the first len(chi) components of order are placed, and
    # remaining is the rank each class still has to host
    stack = [((), tuple(run for _, run in segments))]
    while stack:
        chi, remaining = stack.pop()
        if len(chi) == shape.r:
            if not any(remaining):
                placed = dict(zip(order, chi))
                out.append(tuple(placed[i] for i in range(shape.r)))
            continue
        ni = shape.components[order[len(chi)]].dim
        for cls, (rise, run) in enumerate(segments):
            if rise * ni % run == 0 and remaining[cls] >= ni:
                # every character is a pushed node, so this also bounds the output
                pushed += 1
                if pushed > budget:
                    raise BudgetError(f"{pushed} search nodes exceed budget of {budget}")
                rest = remaining[:cls] + (remaining[cls] - ni,) + remaining[cls + 1 :]
                stack.append((chi + (-rise * ni // run,), rest))
    # class slopes are distinct, so distinct placements give distinct characters
    return sorted(out)


@dataclass(frozen=True)
class ComponentShape:
    stack: str
    closed_point_law: str

    def __str__(self) -> str:
        return f"{self.stack} with closed points {self.closed_point_law}"


def component_shape(shape: LParamShape) -> ComponentShape:
    """Connected-component description: a trivially-acted torus quotient."""
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
        stack=f"[G_m^{r}/G_m^{r}]" if r > 1 else "[G_m/G_m]",
        closed_point_law=coords,
    )
