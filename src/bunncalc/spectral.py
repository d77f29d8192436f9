"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation.  The slices
depend only on the shape and the weight, never on the source: one pass over
the weight's branching to the component blocks sorts its terms into them.
The eigen check makes one pass over its whole stratum window: it builds the
slices once, collects the sources of every stratum into one set, charges
sources times slices translations to the enumeration budget before the
first one, and then translates each source by each slice once, building
each symbol once per call and still checking every source's canonical shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bundles import BudgetError, DomainError, enumeration_budget
from .kottwitz import NewtonPoint
from .lparams import (
    Character,
    LParamShape,
    SheafSymbol,
    b_to_chis,
    character_of_rep,
    character_of_sheaf,
    chi_inv,
    chi_mul,
    make_F,
)
from .weights import WeilSymbol, check_dominant, levi_branching


def spectral_act(shape: LParamShape, chi: Character, sheaf: SheafSymbol) -> SheafSymbol:
    """Translate a canonical symbol by a character.

    The input must be the canonical symbol of some character xi (anything else
    is rejected; the translation law only holds on that orbit).  The result is
    the canonical symbol of chi * xi.
    """
    chi = shape.check_chi(chi)
    xi = character_of_sheaf(shape, sheaf)
    return make_F(shape, chi_mul(chi, xi))


@dataclass(frozen=True)
class HeckeDecomposition:
    """Terms (chi, translated sheaf, isotypic slice), zero slices omitted."""

    weight: tuple[int, ...]
    source: Character
    terms: tuple[tuple[Character, SheafSymbol, WeilSymbol], ...]

    def __post_init__(self) -> None:
        chis = [chi for chi, _, _ in self.terms]
        if len(set(chis)) != len(chis):
            raise DomainError("decomposition characters must be pairwise distinct")

    @property
    def total_dim(self) -> int:
        return sum(sym.dim for _, _, sym in self.terms)


def _slices(shape: LParamShape, lam) -> list[tuple[Character, WeilSymbol]]:
    """The isotypic slices of r_lam, as (chi, slice) in descending chi.

    One pass over the branching of r_lam to the component blocks groups its
    terms by their character chi (the per-block central characters); each
    slice keeps its terms in branching order.  lam must already be checked.
    """
    slices: dict[Character, list] = {}
    for ws, mult in levi_branching(shape.n, lam, shape.dims):
        slices.setdefault(tuple(map(sum, ws)), []).append((ws, mult))
    return [
        (chi, WeilSymbol(blocks=shape.dims, labels=shape.labels, terms=tuple(slices[chi])))
        for chi in sorted(slices, reverse=True)
    ]


def hecke(shape: LParamShape, lam, sheaf: SheafSymbol) -> HeckeDecomposition:
    """Decompose the weight-lam operator applied to a canonical symbol.

    Each isotypic slice of r_lam, of character chi, is paired with the
    translated symbol of chi * xi.  Terms are ordered by descending character.
    """
    lam = check_dominant(lam, shape.n)
    xi = character_of_sheaf(shape, sheaf)
    terms = tuple(
        (chi, make_F(shape, chi_mul(chi, xi)), sym) for chi, sym in _slices(shape, lam)
    )
    return HeckeDecomposition(weight=lam, source=xi, terms=terms)


def stalk(dec: HeckeDecomposition, b: NewtonPoint) -> list[tuple[SheafSymbol, WeilSymbol]]:
    """Terms of the decomposition supported on the stratum b."""
    if b.rank != len(dec.weight):
        raise DomainError(
            f"stratum rank {b.rank} does not match weight length {len(dec.weight)}"
        )
    return [(sheaf, sym) for _, sheaf, sym in dec.terms if sheaf.stratum == b]


@dataclass(frozen=True)
class EigensheafStalk:
    stratum: NewtonPoint
    pieces: tuple[SheafSymbol, ...]

    @property
    def count(self) -> int:
        return len(self.pieces)


def eigensheaf_stalk(shape: LParamShape, b: NewtonPoint) -> EigensheafStalk:
    """All canonical symbols supported on b: one per character of the stratum."""
    pieces = tuple(make_F(shape, chi) for chi in b_to_chis(shape, b))
    return EigensheafStalk(stratum=b, pieces=pieces)


def verify_eigen(shape: LParamShape, lam, strata) -> bool:
    """Termwise eigen identity on a finite stratum window.

    For each listed stratum b, applying the weight-lam operator to the full
    symbol sum and restricting to b must reproduce, as a multiset, every
    (piece at b) x (isotypic slice) pair.  Only finitely many source
    characters can contribute at b; they are exactly eta * chi^{-1} for eta a
    character of b and chi a character with nonzero slice.

    The check is one pass over the whole window: the sources of all its
    strata are collected once, and each is translated by every slice once.
    A product counts at the stratum of its symbol when that stratum is in
    the window, so one landing on the wrong window stratum fails the check.
    Both sides are keyed by (character, slice index); the symbols they stand
    for come from one memo that lives only as long as the call, and every
    source's symbol has its canonical shape checked before it is translated.
    The translation count, sources times slices, is charged to the
    enumeration budget before the first translation.
    """
    lam = check_dominant(lam, shape.n)
    slices = [chi for chi, _ in _slices(shape, lam)]
    memo: dict[Character, SheafSymbol] = {}

    def sheaf_of(chi: Character) -> SheafSymbol:
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

    rhs: dict[NewtonPoint, Counter] = {}
    sources: set[Character] = set()
    for b in strata:
        if b in rhs:
            continue
        pairs = rhs[b] = Counter()
        for eta in b_to_chis(shape, b):
            for j, chi in enumerate(slices):
                pairs[(eta, j)] += 1
                sources.add(chi_mul(eta, chi_inv(chi)))
    translations = len(sources) * len(slices)
    budget = enumeration_budget()
    if translations > budget:
        raise BudgetError(f"{translations} translations exceed budget of {budget}")

    lhs: dict[NewtonPoint, Counter] = {b: Counter() for b in rhs}
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
