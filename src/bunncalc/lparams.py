"""Semisimple parameter skeletons, their character lattice, and the
character <-> (stratum, representation) dictionary.

A parameter shape is a formal direct sum of r pairwise-distinct irreducible
components, recorded only by label, dimension and torsion number.  Characters
of the centralizer torus are integer r-vectors; the character chi = (d_i)
corresponds to the stratum of the bundle sum_i O(d_i/n_i)^{gcd(d_i, n_i)} and
to the representation symbol cut out by the fibers of i -> d_i/n_i; a fiber
is the stratum segment (-sum d_i, sum n_i), so all of it runs in integers.

The other way round, the box of a stratum b (``stratum_box``) lists for each
component the values d_i that can sit on a segment of b; a character lies on
b exactly when each d_i is in the box and the dimensions placed at each
segment sum to its run.  ``b_to_chis`` walks the box, and
``spectral.hecke_stalk`` and ``spectral.verify_eigen`` read it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import ClassVar

from .bundles import (
    BudgetError,
    BundleSpec,
    DomainError,
    as_int,
    enumeration_budget,
    record,
    slope_groups,
    slope_str,
)
from .kottwitz import (
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    b_to_bundle,
    check_rank,
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


@record
class LParamShape:
    """r pairwise-distinct components as three columns: position i of dims,
    labels and torsion is component i."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, tuple) for c in (self.dims, self.labels, self.torsion)):
            raise DomainError("dims, labels and torsion must be tuples")
        r = len(self.dims)
        if not len(self.labels) == len(self.torsion) == r:
            raise DomainError(f"{r} dims need as many labels and torsion numbers")
        if not r:
            raise DomainError("parameter shape needs at least one component")
        for dim, k, label in zip(self.dims, self.torsion, self.labels):
            for what, v in (("component dimension", dim), ("torsion number", k)):
                if not isinstance(v, int):
                    raise DomainError(f"{what} {v!r} is not an integer")
                if v < 1:
                    raise DomainError(f"{what} must be >= 1, got {v}")
            if not isinstance(label, str):
                raise DomainError(f"component label {label!r} is not a string")
        if len(set(self.labels)) != r:
            raise DomainError("component labels must be pairwise distinct")
        budget = enumeration_budget()
        if self.n > budget:
            raise BudgetError(f"shape rank {self.n} exceeds budget of {budget}")

    @classmethod
    def from_dims(cls, dims, labels=None, torsion=None) -> "LParamShape":
        dims = tuple(as_int(d, "dimension") for d in dims)
        if labels is None:
            labels = (f"phi{i + 1}" for i in range(len(dims)))
        if torsion is None:
            torsion = (1,) * len(dims)
        return cls(dims, tuple(labels), tuple(as_int(k, "torsion number") for k in torsion))

    @property
    def r(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    def check_chi(self, chi: Character) -> Character:
        chi = tuple(as_int(x, "character entry") for x in chi)
        if len(chi) != self.r:
            raise DomainError(
                f"character length {len(chi)} does not match {self.r} components"
            )
        return chi


def chi_to_bundle(shape: LParamShape, chi: Character) -> BundleSpec:
    """The i-th component contributes O(d_i/n_i) with multiplicity gcd(d_i, n_i)."""
    return b_to_bundle(chi_to_rep(shape, chi).stratum)


@record
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

    def describe(self, shape: LParamShape) -> str:
        parts = []
        for (rise, run), members in zip(reversed(self.stratum.segments), self.members):
            labels = "+".join(shape.labels[i] for i in members)
            parts.append(f"pi[{labels}]@{slope_str(-rise, run)}")
        return " ⊠ ".join(parts)


def chi_to_rep(shape: LParamShape, chi: Character) -> RepSymbol:
    """Components grouped by their slope d_i/n_i, in decreasing slope; each
    group is one stratum segment."""
    chi = shape.check_chi(chi)
    classes = slope_groups(tuple(zip(chi, shape.dims)))
    return RepSymbol(
        stratum=NewtonPoint(tuple((-d, n) for d, n, _ in reversed(classes))),
        members=tuple(tuple(members) for _, _, members in classes),
    )


@record
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
            chi[i], frac = divmod(-rise * shape.dims[i], run)
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


def stratum_box(shape: LParamShape, b: NewtonPoint) -> list[dict[int, int]]:
    """The box of b: for component i, each d_i = -rise * n_i / run with
    run | rise * n_i, mapped to the index of its segment (rise, run) of b."""
    check_rank(b, shape.n)
    return [
        {-rise * ni // run: j for j, (rise, run) in enumerate(b.segments) if rise * ni % run == 0}
        for ni in shape.dims
    ]


def b_to_chis(shape: LParamShape, b: NewtonPoint) -> list[Character]:
    """All characters whose stratum is b, in ascending lexicographic order:
    each component takes a value of the box of b, and the dimensions placed
    at a segment may not exceed its run."""
    box = stratum_box(shape, b)
    order = sorted(range(shape.r), key=lambda i: -shape.dims[i])
    budget = enumeration_budget()

    out: list[Character] = []
    pushed = 0
    # depth-first: the first len(chi) components of order are placed, and
    # remaining is the rank each segment still has to host; the ranks sum to
    # n, so a node with every component placed has filled every segment
    stack = [((), tuple(run for _, run in b.segments))]
    while stack:
        chi, remaining = stack.pop()
        if len(chi) == shape.r:
            placed = dict(zip(order, chi))
            out.append(tuple(placed[i] for i in range(shape.r)))
            continue
        i = order[len(chi)]
        ni = shape.dims[i]
        for d, j in box[i].items():
            if remaining[j] >= ni:
                # every character is a pushed node, so this also bounds the output
                pushed += 1
                if pushed > budget:
                    raise BudgetError(f"{pushed} search nodes exceed budget of {budget}")
                rest = remaining[:j] + (remaining[j] - ni,) + remaining[j + 1 :]
                stack.append((chi + (d,), rest))
    # segment slopes are distinct, so distinct placements give distinct characters
    return sorted(out)


@record
class ComponentShape:
    stack: str
    closed_point_law: str

    def __str__(self) -> str:
        return f"{self.stack} with closed points {self.closed_point_law}"


def component_shape(shape: LParamShape) -> ComponentShape:
    """Connected-component description: a trivially-acted torus quotient."""
    r = shape.r
    names = ["t"] if r == 1 else [f"t_{i + 1}" for i in range(r)]
    coords = ", ".join(t if k == 1 else f"{t}^{k}" for t, k in zip(names, shape.torsion))
    return ComponentShape(
        stack=f"[G_m^{r}/G_m^{r}]" if r > 1 else "[G_m/G_m]",
        closed_point_law=coords if r == 1 else f"({coords})",
    )
