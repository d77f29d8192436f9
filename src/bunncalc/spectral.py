"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation.  The slices
depend only on the shape and the weight, never on the source: one pass over
the weight's branching to the component blocks sorts its terms into them.
The eigen check builds the slices once per call and each translated symbol
once per call, and still checks every source's canonical shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bundles import DomainError
from .kottwitz import NewtonPoint
from .lparams import (
    Character,
    LParamShape,
    SheafSymbol,
    b_to_chis,
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
    labels = tuple(c.label for c in shape.components)
    return [
        (chi, WeilSymbol(blocks=shape.dims, labels=labels, terms=tuple(slices[chi])))
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
    character of b and chi a character with nonzero slice, so the check runs
    over that window.

    The slices are built once per call and each character's symbol once per
    call, in a memo that lives only as long as the call.  Every source's
    symbol still has its canonical shape checked before it is translated.
    """
    lam = check_dominant(lam, shape.n)
    slices = _slices(shape, lam)
    memo: dict[Character, SheafSymbol] = {}

    def sheaf_of(chi: Character) -> SheafSymbol:
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

    for b in strata:
        rhs: Counter = Counter()
        sources: set[Character] = set()
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
