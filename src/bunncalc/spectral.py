"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation, which
``weights.isotypic_slices`` groups from one pass over the branching; they
depend only on the shape and the weight, never on the source.

Stalks and the eigen check read the box of a stratum b from
``lparams.stratum_box``.  ``hecke_stalk`` builds a symbol only for a term
chi * xi in the box whose components fill each segment's run, so it works in
the size of the stalk, not of the decomposition.  The eigen check works in
the size of each stratum's fiber, not in source and slice pairs: at a window
stratum b it checks that (a) every character listed for b is listed once and
its symbol lies on b, and (b) no other character p of the box of b has
p * chi^{-1} among the sources for a slice chi.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import add

from .bundles import BudgetError, DomainError, check_dominant, enumeration_budget, record
from .kottwitz import NewtonPoint, check_rank
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
    stratum_box,
)
from .weights import WeilSymbol, isotypic_slices


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


def hecke(shape: LParamShape, lam, sheaf: SheafSymbol) -> HeckeDecomposition:
    """Decompose the weight-lam operator applied to a canonical symbol.

    Each isotypic slice of r_lam, of character chi, is paired with the
    translated symbol of chi * xi.  Terms are ordered by descending character.
    """
    lam = check_dominant(lam, shape.n)
    xi = character_of_sheaf(shape, sheaf)
    slices = isotypic_slices(shape, lam)
    terms = tuple(
        (chi, make_F(shape, chi_mul(chi, xi)), WeilSymbol(shape.dims, shape.labels, slices[chi]))
        for chi in sorted(slices, reverse=True)
    )
    return HeckeDecomposition(weight=lam, source=xi, terms=terms)


def stalk(dec: HeckeDecomposition, b: NewtonPoint) -> list[tuple[SheafSymbol, WeilSymbol]]:
    """Terms of the decomposition supported on the stratum b."""
    check_rank(b, len(dec.weight))
    return [(sheaf, sym) for _, sheaf, sym in dec.terms if sheaf.stratum == b]


def hecke_stalk(
    shape: LParamShape, lam, xi: Character, b: NewtonPoint
) -> list[tuple[SheafSymbol, WeilSymbol]]:
    """``stalk(hecke(shape, lam, make_F(shape, xi)), b)`` in the stalk's size.

    The term of a slice chi lies on b exactly when every component of
    chi * xi is in the box of b and the dimensions placed at each segment sum
    to its run; only those terms get a symbol and a slice, and the source
    gets none.  The checks are hecke's (with xi checked as a character), then
    stalk's, in that order.
    """
    lam = check_dominant(lam, shape.n)
    xi = shape.check_chi(xi)
    slices = isotypic_slices(shape, lam)
    box = stratum_box(shape, b)
    runs = [run for _, run in b.segments]
    terms = []
    for chi in sorted(slices, reverse=True):
        p = chi_mul(chi, xi)
        slots = [js.get(d) for js, d in zip(box, p)]
        if None in slots:
            continue
        placed = [0] * len(runs)
        for j, ni in zip(slots, shape.dims):
            placed[j] += ni
        if placed == runs:
            terms.append((make_F(shape, p), WeilSymbol(shape.dims, shape.labels, slices[chi])))
    return terms


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
    among the sources for any slice chi.  For (b), every point of the box of
    b (``lparams.stratum_box``) is walked with set lookups, and only a point
    that hits a source and is not listed has its stratum computed, by
    chi_to_rep, so (b) does not rest on the search inside b_to_chis.

    Symbols come from one memo that lives only as long as the call; every
    source's symbol has its canonical shape checked.  The lookups, slices
    times the listed characters plus the box of each stratum, are charged to
    the enumeration budget before the first symbol is built.
    """
    lam = check_dominant(lam, shape.n)
    inverses = [chi_inv(chi) for chi in isotypic_slices(shape, lam)]
    window = {b: b_to_chis(shape, b) for b in dict.fromkeys(strata)}
    boxes = {b: stratum_box(shape, b) for b in window}
    lookups = len(inverses) * sum(len(window[b]) + prod(map(len, box)) for b, box in boxes.items())
    budget = enumeration_budget()
    if lookups > budget:
        raise BudgetError(f"{lookups} window lookups exceed budget of {budget}")
    memo: dict[Character, SheafSymbol] = {}

    def sheaf_of(chi: Character) -> SheafSymbol:
        sheaf = memo.get(chi)
        if sheaf is None:
            sheaf = memo[chi] = make_F(shape, chi)
        return sheaf

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
