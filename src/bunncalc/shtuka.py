"""Cohomology bookkeeping for modification spaces between bundle strata:
shift/twist ledgers, factorization along compatible splits, parabolic
induction presentations, rank-one modification targets, and the isotypic
output for the global middle-degree computation.

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

from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    BundleSpec,
    DomainError,
    Slope,
    hn_polygon,
    normalize_bundle,
    pairing_note,
    reduce_slope,
    rho_pairing_bundle,
)
from .kottwitz import (
    CharacterExponents,
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    d_point,
    enumerate_B,
    kappa_exponents,
    point_from_vector,
)
from .lparams import (
    Character,
    LParamShape,
    RepSymbol,
    b_to_chis,
    check_a1,
    chi_id,
    chi_inv,
    chi_to_bundle,
    chi_to_rep,
    make_F,
)
from .spectral import hecke, stalk
from .weights import (
    WeilSymbol,
    check_dominant,
    dual_weight,
    dualize_symbol,
    sigma_chi,
)


def rho_weight(vec) -> int:
    """<2rho, v> for a weakly decreasing integer vector."""
    vec = tuple(int(x) for x in vec)
    if not vec:
        return 0
    return d_point(point_from_vector(vec))


def _as_bundle(x) -> BundleSpec:
    """Accept either a bundle or the Newton point of one."""
    return b_to_bundle(x) if isinstance(x, NewtonPoint) else x


def is_minuscule(vec) -> bool:
    """Entries lie in {0, 1} after subtracting the smallest one."""
    vec = tuple(int(x) for x in vec)
    base = min(vec)
    return all(x - base in (0, 1) for x in vec)


def _canonical_dual(sym: WeilSymbol) -> tuple[WeilSymbol, bool]:
    """Present a symbol with nonpositive (and some negative) monomial weights
    as the dual of its negation; anything else is left alone."""
    entries = [x for ws, _ in sym.terms for w in ws for x in w]
    if entries and all(x <= 0 for x in entries) and any(x < 0 for x in entries):
        return dualize_symbol(sym), True
    return sym, False


@dataclass(frozen=True)
class CohomologyPiece:
    rep: RepSymbol
    modulus_half_exponent: Fraction
    sigma: WeilSymbol
    sigma_dual: bool
    shift: int
    tate: Fraction
    induction: str | None = None


@dataclass(frozen=True)
class CohomologyOutput:
    direction: str
    source: Character
    pieces: tuple[CohomologyPiece, ...]
    twist_ledger: tuple[tuple[str, Fraction], ...]
    notes: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces


def _sign_convention_notes(shape: LParamShape, source_bundle: BundleSpec) -> tuple[str, ...]:
    notes = []
    flagged = pairing_note(source_bundle.slope_classes())
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

    The source is the canonical symbol of xi.  Each surviving term pairs the
    translated representation symbol with its isotypic slice; its shift is
    d(target) - d(source) in the half-modulus source normalization, and the
    Tate twist is half the pairing of the applied weight.
    """
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be forward or inverse, got {direction!r}")
    xi = shape.check_chi(xi)
    if target.rank != shape.n:
        raise DomainError(
            f"target rank {target.rank} does not match shape rank {shape.n}"
        )
    mu_weight = check_dominant(mu_weight, shape.n)
    applied = mu_weight if direction == "forward" else dual_weight(mu_weight)
    source_sheaf = make_F(shape, xi)
    d_src = d_point(source_sheaf.stratum)
    d_tgt = d_point(target)
    dec = hecke(shape, applied, source_sheaf)
    tate = Fraction(rho_weight(applied), 2)
    shift = d_tgt - d_src
    ledger = (
        ("translated symbol shift", Fraction(-d_tgt)),
        ("source half-modulus normalization", Fraction(-d_src)),
        ("target stratum renormalization", Fraction(2 * d_tgt)),
        ("satake normalization (tate)", tate),
    )
    pieces = []
    for sheaf, sym in stalk(dec, target):
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
    ) + _sign_convention_notes(shape, b_to_bundle(source_sheaf.stratum))
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
    source_bundle = chi_to_bundle(shape, xi)
    d_src = d_point(bundle_to_b(source_bundle))
    sigma = sigma_chi(shape, mu_inv_weight, chi_inv(xi))
    tate = Fraction(rho_weight(mu_inv_weight), 2)
    ledger = (
        ("source half-modulus normalization", Fraction(-d_src)),
        ("satake normalization (tate)", tate),
    )
    notes = _sign_convention_notes(shape, source_bundle)
    if sigma.is_zero:
        return CohomologyOutput(
            direction="inverse",
            source=xi,
            pieces=(),
            twist_ledger=ledger,
            notes=notes + ("no isotypic content: degree of the weight does not match the character",),
        )
    sym_out, dual = _canonical_dual(sigma)
    induction = _induction_presentation(shape, source_bundle, mu_inv_weight)
    piece = CohomologyPiece(
        rep=chi_to_rep(shape, chi_id(shape.r)),
        modulus_half_exponent=Fraction(0),
        sigma=sym_out,
        sigma_dual=dual,
        shift=-d_src,
        tate=tate,
        induction=induction,
    )
    return CohomologyOutput(
        direction="inverse",
        source=xi,
        pieces=(piece,),
        twist_ledger=ledger,
        notes=notes,
    )


def _induction_presentation(
    shape: LParamShape, source_bundle: BundleSpec, mu_inv_weight
) -> str | None:
    """Levi factorization with per-block minuscule cocharacters, when defined."""
    if not is_minuscule(mu_inv_weight):
        return None
    mus = []
    for s, m in source_bundle.parts:
        rank = m * s.denominator
        deg = m * s.numerator
        if not 0 <= deg <= rank:
            return None
        mus.append("(" + ",".join(["1"] * deg + ["0"] * (rank - deg)) + ")")
    levi = " x ".join(f"GL_{m * s.denominator}" for s, m in source_bundle.parts)
    return f"Ind_P [{levi}] with block cocharacters {' , '.join(mus)}"


def _split_at(e: BundleSpec, m: int) -> tuple[BundleSpec, BundleSpec] | None:
    """Split the stable summands (decreasing slope) into a top part of rank m."""
    top: list[tuple[Slope, int]] = []
    bottom: list[tuple[Slope, int]] = []
    remaining = m
    for s, mult in e.parts:
        den = s.denominator
        if remaining >= mult * den:
            top.append((s, mult))
            remaining -= mult * den
        elif remaining > 0:
            if remaining % den != 0:
                return None
            k = remaining // den
            top.append((s, k))
            bottom.append((s, mult - k))
            remaining = 0
        else:
            bottom.append((s, mult))
    if remaining != 0 or not top or not bottom:
        return None
    return normalize_bundle(top), normalize_bundle(bottom)


@dataclass(frozen=True)
class BoyerFactorization:
    split_rank: int
    direction: str  # "source-parabolic" or "target-parabolic"
    b1: NewtonPoint
    b2: NewtonPoint
    bp1: NewtonPoint
    bp2: NewtonPoint
    mu1: tuple[int, ...]
    mu2: tuple[int, ...]
    parabolic_group: str
    parabolic_proper: bool
    levi: tuple[InnerFormGroup, InnerFormGroup]
    g_source: InnerFormGroup
    g_target: InnerFormGroup
    d: int
    h: int
    rho_whole: int
    rho_part1: int
    rho_part2: int
    kappa_twist: CharacterExponents
    # the factor groups the twist exponents live on (the two parts of the
    # side that defines d), in order
    kappa_twist_group: tuple[InnerFormGroup, InnerFormGroup]
    notes: tuple[str, ...]


def _boyer_conditions(eb: BundleSpec, ebp: BundleSpec, mu, m: int):
    """Common validation; returns (n, mu, split of eb, split of ebp)."""
    mu = check_dominant(mu)
    n = len(mu)
    if eb.rank != n or ebp.rank != n:
        raise DomainError(
            f"rank mismatch: bundles of rank {eb.rank}, {ebp.rank} with |mu| = {n}"
        )
    if not is_minuscule(mu):
        raise DomainError("cocharacter must be minuscule after central normalization")
    if sum(mu) != ebp.deg - eb.deg:
        raise DomainError(
            f"degree mismatch: deg(mu) = {sum(mu)} but target - source = {ebp.deg - eb.deg}"
        )
    if not 1 <= m < n:
        raise DomainError("split must be proper: need 1 <= m < n")
    sb = _split_at(eb, m)
    if sb is None:
        raise DomainError(f"source bundle does not split at rank {m}")
    sbp = _split_at(ebp, m)
    if sbp is None:
        raise DomainError(f"target bundle does not split at rank {m}")
    return n, mu, sb, sbp


def _kappa_twist(whole: BundleSpec, part1: BundleSpec, part2: BundleSpec) -> CharacterExponents:
    """Exponents of kappa(whole) / (kappa(part1) x kappa(part2)) on the Levi."""
    whole_exp = {
        s: e for (s, _), (_, e) in zip(whole.parts, kappa_exponents(whole).exps)
    }
    exps = []
    idx = 0
    for part in (part1, part2):
        part_exp = kappa_exponents(part)
        for (s, _), (_, e) in zip(part.parts, part_exp.exps):
            exps.append((idx, whole_exp[s] - e))
            idx += 1
    return CharacterExponents(tuple(exps))


def boyer_factorize(eb: BundleSpec, ebp: BundleSpec, mu, m: int) -> BoyerFactorization:
    """Factor the modification space along a compatible rank-m split.

    Two variants are tried.  In the source-parabolic variant the target side
    splits strictly, the head/tail of mu distribute to the parts, and the
    dimension defect and |det|-twist are computed on the target side; the
    mirrored target-parabolic variant applies when mu ends in zeros and the
    top parts agree.  Inapplicable inputs are rejected with the violated
    condition named.  Bundles may be given as Newton points.
    """
    eb, ebp = _as_bundle(eb), _as_bundle(ebp)
    n, mu, (eb1, eb2), (ebp1, ebp2) = _boyer_conditions(eb, ebp, mu, m)
    reasons = []

    # source-parabolic variant: strict split on the target side
    deg_ok = ebp1.deg == eb1.deg + sum(mu[:m])
    strict_ok = ebp1.parts[-1][0] > ebp2.parts[0][0]
    if deg_ok and strict_ok:
        mu1, mu2 = mu[:m], mu[m:]
        whole, p1, p2 = ebp, ebp1, ebp2
        direction = "source-parabolic"
        proper = eb1.parts[-1][0] == eb2.parts[0][0]
        parabolic_group = automorphism_group(eb).describe()
        levi = (automorphism_group(eb1), automorphism_group(eb2))
    else:
        if not deg_ok:
            reasons.append(
                f"target top part degree {ebp1.deg} != source top degree {eb1.deg} "
                f"+ head of mu {sum(mu[:m])}"
            )
        if not strict_ok:
            reasons.append("target-side split is not strict (slope repeats across it)")
        tail_ok = all(x == 0 for x in mu[n - m :])
        iso_ok = ebp1 == eb1
        strict_b_ok = eb1.parts[-1][0] > eb2.parts[0][0]
        if tail_ok and iso_ok and strict_b_ok:
            mu1, mu2 = (0,) * m, mu[: n - m]
            whole, p1, p2 = eb, eb1, eb2
            direction = "target-parabolic"
            proper = ebp1.parts[-1][0] == ebp2.parts[0][0]
            parabolic_group = automorphism_group(ebp).describe()
            levi = (automorphism_group(ebp1), automorphism_group(ebp2))
        else:
            if not tail_ok:
                reasons.append("tail of mu is not zero")
            if not iso_ok:
                reasons.append("top parts are not isomorphic")
            if not strict_b_ok:
                reasons.append("source-side split is not strict (slope repeats across it)")
            raise DomainError("no applicable factorization: " + "; ".join(reasons))

    rho_whole = rho_pairing_bundle(whole)
    rho_p1 = rho_pairing_bundle(p1)
    rho_p2 = rho_pairing_bundle(p2)
    d = rho_whole - rho_p1 - rho_p2
    h = rho_weight(mu) - rho_weight(mu1)
    notes = []
    flagged = pairing_note(whole.slope_classes())
    if flagged:
        notes.append(flagged)
    return BoyerFactorization(
        split_rank=m,
        direction=direction,
        b1=bundle_to_b(eb1),
        b2=bundle_to_b(eb2),
        bp1=bundle_to_b(ebp1),
        bp2=bundle_to_b(ebp2),
        mu1=tuple(mu1),
        mu2=tuple(mu2),
        parabolic_group=parabolic_group,
        parabolic_proper=proper,
        levi=levi,
        g_source=automorphism_group(eb),
        g_target=automorphism_group(ebp),
        d=d,
        h=h,
        rho_whole=rho_whole,
        rho_part1=rho_p1,
        rho_part2=rho_p2,
        kappa_twist=_kappa_twist(whole, p1, p2),
        kappa_twist_group=(automorphism_group(p1), automorphism_group(p2)),
        notes=tuple(notes),
    )


def modification_targets_rank_one(n: int, nprime: int) -> list[BundleSpec]:
    """Sources admitting an elementary (single unit) modification into the
    bundle with one slope-1/n' piece and trivial rest.

    The list is the trivial bundle plus one member per size of the negative
    tail: slope-1/n' piece, trivial middle, and a single slope -1/m' piece
    with n' + middle + m' = n.
    """
    if not 1 <= nprime <= n:
        raise DomainError(f"need 1 <= n' <= n, got n'={nprime}, n={n}")
    out = [normalize_bundle([(Fraction(0), n)])]
    for mprime in range(1, n - nprime + 1):
        mid = n - nprime - mprime
        parts = [(reduce_slope(1, nprime), 1), (reduce_slope(-1, mprime), 1)]
        if mid:
            parts.append((Fraction(0), mid))
        out.append(normalize_bundle(parts))
    return out


def modification_necessary(eb: BundleSpec, ebp: BundleSpec, mu) -> bool:
    """Necessary (not sufficient) conditions for a type-mu modification
    from the source to the target.

    Checks the degree balance, and for effective mu (all entries >= 0) the
    injectivity bound: the target's slope polygon dominates the source's
    pointwise.  Bundles may be given as Newton points.
    """
    eb, ebp = _as_bundle(eb), _as_bundle(ebp)
    mu = check_dominant(mu)
    if eb.rank != len(mu) or ebp.rank != len(mu):
        raise DomainError("rank of both bundles must equal the length of mu")
    if sum(mu) != ebp.deg - eb.deg:
        return False
    if min(mu) >= 0 and not hn_polygon(ebp).lies_above(hn_polygon(eb)):
        return False
    return True


@dataclass(frozen=True)
class IgusaOutput:
    stratum: NewtonPoint
    degree: int
    multiplicity_symbol: str
    similitude_symbol: str
    modulus_half_exponent: Fraction
    pieces: tuple[tuple[Character, RepSymbol], ...]
    notes: tuple[str, ...]

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
    if not check_a1(shape):
        raise DomainError("distinctness hypothesis must hold for the shape")
    admissible = enumerate_B(shape.n, dual_weight(mu))
    if b not in admissible:
        raise DomainError(
            "stratum is not in the admissible set for the inverse cocharacter"
        )
    chis = b_to_chis(shape, b)
    pieces = tuple((chi, chi_to_rep(shape, chi)) for chi in chis)
    return IgusaOutput(
        stratum=b,
        degree=d_point(b),
        multiplicity_symbol="m",
        similitude_symbol="omega",
        modulus_half_exponent=Fraction(1, 2),
        pieces=pieces,
        notes=(
            "multiplicity m is an opaque symbol fixed by global input",
            "distinctness and Frobenius-separation hypotheses are asserted, not verified",
        ),
    )


@dataclass(frozen=True)
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
    if b.rank != shape.n:
        raise DomainError(f"stratum rank {b.rank} does not match {shape.n}")
    d = rho_weight(mu)
    d_b = d_point(b)
    text = (
        f"RG_c(GL_{shape.n}, b, mu) (x)_H RG_c(tower at b)"
        f"[{2 * d_b - d}]({Fraction(-d, 2)})"
    )
    return MantovanPiece(
        stratum=b, d=d, d_b=d_b, shift=2 * d_b - d, tate=Fraction(-d, 2), text=text
    )
