"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation.
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
    check_a1,
    chi_id,
    chi_inv,
    chi_mul,
    make_F,
)
from .weights import WeilSymbol, check_dominant, levi_branching, sigma_chi


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

    shape: LParamShape
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


def hecke(shape: LParamShape, lam, sheaf: SheafSymbol) -> HeckeDecomposition:
    """Decompose the weight-lam operator applied to a canonical symbol.

    Every character with a nonzero isotypic slice contributes the translated
    symbol paired with that slice.  Terms are ordered by descending character.
    """
    lam = check_dominant(lam, shape.n)
    xi = character_of_sheaf(shape, sheaf)
    chis: set[Character] = set()
    for ws, _ in levi_branching(shape.n, lam, shape.dims):
        chis.add(tuple(sum(w) for w in ws))
    terms = []
    for chi in sorted(chis, reverse=True):
        sym = sigma_chi(shape, lam, chi)
        if sym.is_zero:
            continue
        terms.append((chi, make_F(shape, chi_mul(chi, xi)), sym))
    return HeckeDecomposition(shape=shape, weight=lam, source=xi, terms=tuple(terms))


def stalk(dec: HeckeDecomposition, b: NewtonPoint) -> list[tuple[SheafSymbol, WeilSymbol]]:
    """Terms of the decomposition supported on the stratum b."""
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
    if not check_a1(shape):
        raise DomainError("eigen-stalk bookkeeping requires the distinctness hypothesis")
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
    """
    lam = check_dominant(lam, shape.n)
    dec_id = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
    slice_chis = [(chi, sym) for chi, _, sym in dec_id.terms]
    for b in strata:
        etas = b_to_chis(shape, b)
        rhs: Counter = Counter()
        sources: set[Character] = set()
        for eta in etas:
            piece = make_F(shape, eta)
            for chi, sym in slice_chis:
                rhs[(piece, sym)] += 1
                sources.add(chi_mul(eta, chi_inv(chi)))
        lhs: Counter = Counter()
        for xi in sorted(sources):
            for sheaf, sym in stalk(hecke(shape, lam, make_F(shape, xi)), b):
                lhs[(sheaf, sym)] += 1
        if lhs != rhs:
            return False
    return True
