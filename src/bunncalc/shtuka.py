"""Cohomology bookkeeping for modification spaces between bundle strata:
shift/twist ledgers, parabolic induction presentations, and the isotypic
output for the global middle-degree computation.  The modification spaces
themselves (split factorization, rank-one sources) are in ``modif``.

Conventions.  "forward" applies the operator of the given weight to the
extension-by-zero of the source symbol; "inverse" applies the operator of the
dual weight and is the direction in which dual flags can appear on the Weil
side.  Shifts are reported against the normalization in which the source
representation is twisted by the positive half-modulus character (the inverse
|det|-character of the source is absorbed there), so a trivial operator at
the source stratum is shift 0 and a basic target reports minus the source
defect.  Every output carries an itemized twist ledger.
"""

from __future__ import annotations

from fractions import Fraction
from typing import ClassVar

from .bundles import (
    BundleSpec,
    DomainError,
    check_dominant,
    is_minuscule,
    pairing_note,
    record,
    rho_weight,
)
from .kottwitz import NewtonPoint, b_to_bundle, check_rank, d_point, leq, point_from_vector
from .lparams import (
    Character,
    LParamShape,
    RepSymbol,
    b_to_chis,
    chi_id,
    chi_inv,
    chi_to_rep,
)
from .spectral import hecke_stalk
from .weights import WeilSymbol, dual_weight, dualize_symbol, sigma_chi


def _canonical_dual(sym: WeilSymbol) -> tuple[WeilSymbol, bool]:
    """Present a symbol with nonpositive (and some negative) monomial weights
    as the dual of its negation; anything else is left alone."""
    entries = [x for ws, _ in sym.terms for w in ws for x in w]
    if entries and all(x <= 0 for x in entries) and any(x < 0 for x in entries):
        return dualize_symbol(sym), True
    return sym, False


@record
class CohomologyPiece:
    rep: RepSymbol
    modulus_half_exponent: Fraction
    sigma: WeilSymbol
    sigma_dual: bool
    shift: int
    tate: Fraction
    induction: str | None = None


@record
class CohomologyOutput:
    direction: str
    source: Character
    pieces: tuple[CohomologyPiece, ...]
    twist_ledger: tuple[tuple[str, Fraction | int], ...]
    notes: tuple[str, ...]


def _sign_convention_notes(source: NewtonPoint) -> tuple[str, ...]:
    notes = []
    flagged = pairing_note(source.segments)
    if flagged:
        notes.append(flagged)
    notes.append(
        "shift magnitudes use the non-negative pairing <2rho, nu> of the "
        "dominant slope vector"
    )
    return tuple(notes)


def shtuka_cohomology(
    shape: LParamShape,
    xi: Character,
    target: NewtonPoint,
    mu_weight,
    direction: str = "forward",
) -> CohomologyOutput:
    """Stalk at the target stratum of the weight operator applied to the
    source symbol, with shifts and twists itemized.

    The source is the canonical symbol of xi, of which only the stratum is
    read.  The stalk comes from ``spectral.hecke_stalk``, which builds symbols
    only for the terms chi * xi that land on the target: not for the whole
    decomposition, and not for the source.  Each term pairs the translated
    representation symbol with its isotypic slice; its shift is
    d(target) - d(source) in the half-modulus source normalization, and the
    Tate twist is half the pairing of the applied weight.
    """
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be forward or inverse, got {direction!r}")
    xi = shape.check_chi(xi)
    check_rank(target, shape.n)
    mu_weight = check_dominant(mu_weight, shape.n)
    applied = mu_weight if direction == "forward" else dual_weight(mu_weight)
    source = chi_to_rep(shape, xi).stratum
    d_src = d_point(source)
    d_tgt = d_point(target)
    tate = Fraction(rho_weight(applied), 2)
    shift = d_tgt - d_src
    ledger = (
        ("translated symbol shift", -d_tgt),
        ("source half-modulus normalization", -d_src),
        ("target stratum renormalization", 2 * d_tgt),
        ("satake normalization (tate)", tate),
    )
    pieces = []
    for sheaf, sym in hecke_stalk(shape, applied, xi, target):
        if direction == "inverse":
            sym_out, dual = _canonical_dual(sym)
        else:
            sym_out, dual = sym, False
        pieces.append(
            CohomologyPiece(
                rep=sheaf.rep,
                modulus_half_exponent=sheaf.modulus_half_exponent,
                sigma=sym_out,
                sigma_dual=dual,
                shift=shift,
                tate=tate,
            )
        )
    notes = (
        "source slot normalized as half-modulus twist of the representation "
        "(the inverse |det|-character of the source stratum is absorbed)",
    ) + _sign_convention_notes(source)
    return CohomologyOutput(
        direction=direction,
        source=xi,
        pieces=tuple(pieces),
        twist_ledger=ledger,
        notes=notes,
    )


def harris_viehmann(shape: LParamShape, xi: Character, mu_inv_weight) -> CohomologyOutput:
    """Single-stratum output at the trivial stratum, with the parabolic
    induction presentation attached when the cocharacter is minuscule.

    The Weil-side content is the isotypic slice of the dual-weight
    representation at the inverse character; it is presented with a dual flag
    whenever all its monomial weights are nonpositive.  The shift is minus the
    defect of the source stratum.
    """
    xi = shape.check_chi(xi)
    mu_inv_weight = check_dominant(mu_inv_weight, shape.n)
    source = chi_to_rep(shape, xi).stratum
    d_src = d_point(source)
    sigma = sigma_chi(shape, mu_inv_weight, chi_inv(xi))
    tate = Fraction(rho_weight(mu_inv_weight), 2)
    ledger = (
        ("source half-modulus normalization", -d_src),
        ("satake normalization (tate)", tate),
    )
    notes = _sign_convention_notes(source)
    pieces = []
    if sigma.terms:
        sym_out, dual = _canonical_dual(sigma)
        pieces.append(
            CohomologyPiece(
                rep=chi_to_rep(shape, chi_id(shape.r)),
                modulus_half_exponent=Fraction(0),
                sigma=sym_out,
                sigma_dual=dual,
                shift=-d_src,
                tate=tate,
                induction=_induction_presentation(b_to_bundle(source), mu_inv_weight),
            )
        )
    else:
        notes += ("no isotypic content: degree of the weight does not match the character",)
    return CohomologyOutput(
        direction="inverse",
        source=xi,
        pieces=tuple(pieces),
        twist_ledger=ledger,
        notes=notes,
    )


def _induction_presentation(source_bundle: BundleSpec, mu_inv_weight) -> str | None:
    """Levi factorization with per-block minuscule cocharacters, when defined."""
    if not is_minuscule(mu_inv_weight):
        return None
    mus = []
    for deg, rank in source_bundle.segments:
        if not 0 <= deg <= rank:
            return None
        mus.append("(" + ",".join(["1"] * deg + ["0"] * (rank - deg)) + ")")
    levi = " x ".join(f"GL_{rank}" for _, rank in source_bundle.segments)
    return f"Ind_P [{levi}] with block cocharacters {' , '.join(mus)}"


@record
class IgusaOutput:
    stratum: NewtonPoint
    degree: int
    pieces: tuple[tuple[Character, RepSymbol], ...]
    multiplicity_symbol: ClassVar[str] = "m"
    similitude_symbol: ClassVar[str] = "omega"
    modulus_half_exponent: ClassVar[Fraction] = Fraction(1, 2)
    notes: ClassVar[tuple[str, ...]] = (
        "multiplicity m is an opaque symbol fixed by global input",
        "distinctness and Frobenius-separation hypotheses are asserted, not verified",
    )

    @property
    def count(self) -> int:
        return len(self.pieces)


def igusa_cohomology(shape: LParamShape, mu, b: NewtonPoint) -> IgusaOutput:
    """Middle-degree isotypic output at an admissible stratum.

    In degree <2rho, nu_b> the output is, up to one abstract multiplicity, the
    sum over the characters of the stratum of the half-modulus twist of their
    representation symbols times a fixed similitude character.
    """
    mu = check_dominant(mu, shape.n)
    if not is_minuscule(mu):
        raise DomainError("cocharacter must be minuscule")
    check_rank(b, shape.n)
    if not leq(b, point_from_vector(dual_weight(mu))):
        raise DomainError("stratum is not in the admissible set for the inverse cocharacter")
    chis = b_to_chis(shape, b)
    pieces = tuple((chi, chi_to_rep(shape, chi)) for chi in chis)
    return IgusaOutput(stratum=b, degree=d_point(b), pieces=pieces)


@record
class MantovanPiece:
    stratum: NewtonPoint
    d: int
    d_b: int
    shift: int
    tate: Fraction
    text: str


def mantovan_pieces(shape: LParamShape, mu, b: NewtonPoint) -> MantovanPiece:
    """Graded piece attached to one stratum: the local complex paired with the
    stratum's tower, shifted by 2 d_b - d and twisted by -d/2."""
    mu = check_dominant(mu, shape.n)
    check_rank(b, shape.n)
    d = rho_weight(mu)
    d_b = d_point(b)
    text = (
        f"RG_c(GL_{shape.n}, b, mu) (x)_H RG_c(tower at b)"
        f"[{2 * d_b - d}]({Fraction(-d, 2)})"
    )
    return MantovanPiece(
        stratum=b, d=d, d_b=d_b, shift=2 * d_b - d, tate=Fraction(-d, 2), text=text
    )
