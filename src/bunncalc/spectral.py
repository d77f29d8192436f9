"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation.  The slices
depend only on the shape and the weight, never on the source: one pass over
the weight's branching to the component blocks sorts its terms into them.
The eigen check works in the size of each stratum's fiber, not in source
and slice pairs: at a window stratum b it checks that (a) every character
listed for b is listed once and its symbol lies on b, and (b) no other
character p of b has p * chi^{-1} among the sources for a slice chi, where p
ranges over the box of b (component i takes d_i = -rise * n_i / run for a
segment (rise, run) of b with run | rise * n_i).
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import add

from .bundles import BudgetError, DomainError, check_dominant, enumeration_budget, record
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
    chi_to_rep,
    make_F,
)
from .weights import WeilSymbol, levi_branching


def spectral_act(shape: LParamShape, chi: Character, sheaf: SheafSymbol) -> SheafSymbol:
    """Translate a canonical symbol by a character.

    The input must be the canonical symbol of some character xi (anything else
    is rejected; the translation law only holds on that orbit).  The result is
    the canonical symbol of chi * xi.
    """
    chi = shape.check_chi(chi)
    xi = character_of_sheaf(shape, sheaf)
    return make_F(shape, chi_mul(chi, xi))


@record
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


@record
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
    (piece at b) x (isotypic slice) pair.  The sources that can contribute
    are eta * chi^{-1} for eta a listed character of a window stratum and chi
    a slice character.  Multiplying by chi is a bijection, so the two sides
    agree at b exactly when (a) every eta listed for b is listed once and its
    symbol lies on b, and (b) no other character p of b has p * chi^{-1}
    among the sources for any slice chi.  For (b), component i of p can only
    take d_i = -rise * n_i / run for a segment (rise, run) of b with
    run | rise * n_i; the product of those choices (the box of b) is walked
    with set lookups, and only a point that hits a source and is not listed
    has its stratum computed, so (b) does not rest on b_to_chis.

    Symbols come from one memo that lives only as long as the call; every
    source's symbol has its canonical shape checked.  The lookups, slices
    times the listed characters plus the box of each stratum, are charged to
    the enumeration budget before the first symbol is built.
    """
    lam = check_dominant(lam, shape.n)
    slices = [chi for chi, _ in _slices(shape, lam)]
    window = {b: b_to_chis(shape, b) for b in dict.fromkeys(strata)}
    boxes = {
        b: [[-rise * ni // run for rise, run in b.segments if rise * ni % run == 0]
            for ni in shape.dims]
        for b in window
    }
    lookups = len(slices) * sum(len(window[b]) + prod(map(len, box)) for b, box in boxes.items())
    budget = enumeration_budget()
    if lookups > budget:
        raise BudgetError(f"{lookups} window lookups exceed budget of {budget}")
    memo: dict[Character, SheafSymbol] = {}

    def sheaf_of(chi: Character) -> SheafSymbol:
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

    inverses = [chi_inv(chi) for chi in slices]
    sources = {chi_mul(eta, inv) for chis in window.values() for eta in chis for inv in inverses}
    for src in sorted(sources):
        sheaf = sheaf_of(src)
        if sheaf_of(character_of_rep(shape, sheaf.rep)) != sheaf:
            raise DomainError("sheaf symbol is not of the canonical translated shape")
    for b, chis in window.items():
        listed = set(chis)
        if len(listed) != len(chis) or any(sheaf_of(eta).stratum != b for eta in chis):
            return False
        for p in product(*boxes[b]):
            if p in listed or not any(tuple(map(add, p, inv)) in sources for inv in inverses):
                continue
            if chi_to_rep(shape, p).stratum == b:
                return False
    return True
