"""Translation action of centralizer characters on canonical sheaf symbols,
the resulting operator decompositions, and eigen-stalk bookkeeping.

On the orbit of canonical symbols the action of a character is a pure
translation: acting by chi on the symbol of xi yields the symbol of chi*xi.
An operator attached to a highest weight decomposes into these translations
weighted by the isotypic slices of the weight representation.  They depend
only on the shape and the weight, never on the source, so every call shares
the cached (chi, slice) pairs of ``weights.isotypic_slices``.

Stalks read the box of a stratum b from ``lparams.stratum_box``:
``hecke_stalk`` builds a symbol only for a term chi * xi in the box whose
components fill each segment's run, so it works in the size of the stalk,
not of the decomposition.  The eigen check works in the size of each
stratum's list of characters, not in source and slice pairs: at a window
stratum b it checks that (a) every character listed for b is listed once and
its symbol lies on b, and (b) ``lparams.count_chis`` counts as many
characters of b as are listed, so the list holds every character of b.
"""

from __future__ import annotations

from .bundles import DomainError, Meter, check_dominant, record
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
    count_chis,
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
    terms = tuple(
        (chi, make_F(shape, chi_mul(chi, xi)), sym) for chi, sym in isotypic_slices(shape, lam)
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
    for chi, sym in slices:
        p = chi_mul(chi, xi)
        slots = [js.get(d) for js, d in zip(box, p)]
        if None in slots:
            continue
        placed = [0] * len(runs)
        for j, ni in zip(slots, shape.dims):
            placed[j] += ni
        if placed == runs:
            terms.append((make_F(shape, p), sym))
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
    agree at b when (a) every eta listed for b is listed once and its symbol
    lies on b, and (b) the characters of b number as many as are listed, by
    ``lparams.count_chis``, a layered count that does not rest on the search
    inside b_to_chis.  Together (a) and (b) say the list is every character
    of b, so no unlisted character of b is hit from a source, and a
    character missing from the list fails the check even when no source hits
    it.

    Each symbol is built by ``make_F`` where it is used, with no memo: a
    source's degree is |lam| off that of the listed character it comes from,
    so a source is listed too only when window strata differ in degree by
    |lam|.  Every source's symbol must read back as the source (the
    canonical check).  The lookups, slices times the listed characters plus
    the count's states for each stratum, are charged to the enumeration
    budget before the first symbol is built.
    """
    lam = check_dominant(lam, shape.n)
    inverses = [chi_inv(chi) for chi, _ in isotypic_slices(shape, lam)]
    window = {b: b_to_chis(shape, b) for b in dict.fromkeys(strata)}
    counts = {b: count_chis(shape, b) for b in window}
    lookups = sum(len(inverses) * len(chis) + counts[b][1] for b, chis in window.items())
    Meter("{} window lookups exceed").charge(lookups)
    sources = {chi_mul(eta, inv) for chis in window.values() for eta in chis for inv in inverses}
    for src in sorted(sources):
        if character_of_rep(shape, make_F(shape, src).rep) != src:
            raise DomainError("sheaf symbol is not of the canonical translated shape")
    return all(
        len(set(chis)) == len(chis) == counts[b][0]
        and all(make_F(shape, eta).stratum == b for eta in chis)
        for b, chis in window.items()
    )
