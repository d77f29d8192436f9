"""JSON views of the domain objects (schema ``bunncalc/1``).

Rationals are rendered as {"num", "den"} pairs; every list is emitted in the
deterministic order the producing operation defines, so identical inputs give
byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .bundles import BundleSpec, bundle_to_json, format_bundle, hn_polygon, pairing_note
from .kottwitz import (
    CharacterExponents,
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    bundle_to_b,
    d_point,
    kappa_exponents,
    modulus_exponents,
    parabolic_type,
)
from .lparams import Character, ComponentShape, LParamShape, RepSymbol, SheafSymbol
from .shtuka import (
    BoyerFactorization,
    CohomologyOutput,
    CohomologyPiece,
    IgusaOutput,
    MantovanPiece,
)
from .spectral import EigensheafStalk, HeckeDecomposition
from .weights import WeilSymbol

SCHEMA = "bunncalc/1"


def frac_json(x: Fraction | int) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def point_json(b: NewtonPoint) -> dict:
    return {
        "classes": [
            {"num": s.numerator, "den": s.denominator, "count": c}
            for s, c in b.classes
        ],
        "kappa": b.kappa,
        "rank": b.rank,
    }


def polygon_json(vertices: tuple[tuple[int, int], ...]) -> dict:
    return {"vertices": [[frac_json(x), frac_json(y)] for x, y in vertices]}


def group_json(g: InnerFormGroup) -> dict:
    return {
        "factors": [
            {"size": m, "inv_num": s.numerator, "inv_den": s.denominator}
            for m, s in g.factors
        ],
        "display": g.describe(ascii_mode=True),
    }


def exponents_json(e: CharacterExponents) -> dict:
    return {"exps": [{"factor": i, "exp": frac_json(v)} for i, v in enumerate(e.exps)]}


def rep_json(rep: RepSymbol) -> dict:
    return {
        "stratum": point_json(rep.stratum),
        "classes": [
            {
                "slope": frac_json(s),
                "components": [i + 1 for i in members],
            }
            for s, members in rep.slope_classes
        ],
        "group": group_json(rep.group),
    }


def sheaf_json(sheaf: SheafSymbol) -> dict:
    return {
        "stratum": point_json(sheaf.stratum),
        "rep": rep_json(sheaf.rep),
        "modulus_half_exponent": frac_json(sheaf.modulus_half_exponent),
        "shift": sheaf.shift,
        "tate": frac_json(sheaf.tate_twist),
    }


def weil_json(sym: WeilSymbol, dual: bool = False) -> dict:
    return {
        "blocks": list(sym.blocks),
        "terms": [
            {"weights": [list(w) for w in ws], "mult": mult}
            for ws, mult in sym.terms
        ],
        "dim": sym.dim,
        "dual": dual,
        "display": sym.describe(ascii_mode=True, dual=dual),
    }


def shape_json(shape: LParamShape) -> dict:
    return {
        "components": [
            {"label": c.label, "dim": c.dim, "torsion": c.torsion}
            for c in shape.components
        ]
    }


def hecke_json(dec: HeckeDecomposition) -> dict:
    return {
        "schema": SCHEMA,
        "weight": list(dec.weight),
        "source": list(dec.source),
        "terms": [
            {
                "chi": list(chi),
                "sheaf": sheaf_json(sheaf),
                "sigma": weil_json(sym),
            }
            for chi, sheaf, sym in dec.terms
        ],
        "total_dim": dec.total_dim,
    }


def eigenstalk_json(st: EigensheafStalk) -> dict:
    return {
        "schema": SCHEMA,
        "stratum": point_json(st.stratum),
        "count": st.count,
        "pieces": [sheaf_json(p) for p in st.pieces],
    }


def piece_json(p: CohomologyPiece) -> dict:
    out = {
        "rep": rep_json(p.rep),
        "modulus_half_exponent": frac_json(p.modulus_half_exponent),
        "sigma": weil_json(p.sigma, p.sigma_dual),
        "shift": p.shift,
        "tate": frac_json(p.tate),
    }
    if p.induction:
        out["induction"] = p.induction
    return out


def cohomology_json(out: CohomologyOutput) -> dict:
    return {
        "schema": SCHEMA,
        "direction": out.direction,
        "source": list(out.source),
        "pieces": [piece_json(p) for p in out.pieces],
        "twist_ledger": [
            {"source": name, "value": frac_json(v)} for name, v in out.twist_ledger
        ],
        "notes": list(out.notes),
    }


def boyer_json(f: BoyerFactorization) -> dict:
    return {
        "schema": SCHEMA,
        "split_rank": f.split_rank,
        "direction": f.direction,
        "b1": point_json(f.b1),
        "b2": point_json(f.b2),
        "bprime1": point_json(f.bp1),
        "bprime2": point_json(f.bp2),
        "mu1": list(f.mu1),
        "mu2": list(f.mu2),
        "parabolic": {
            "ambient": f.parabolic_group,
            "proper": f.parabolic_proper,
            "levi": [group_json(g) for g in f.levi],
        },
        "g_source": group_json(f.g_source),
        "g_target": group_json(f.g_target),
        "d": f.d,
        "h": f.h,
        "rho_whole": f.rho_whole,
        "rho_part1": f.rho_part1,
        "rho_part2": f.rho_part2,
        "kappa_twist": exponents_json(f.kappa_twist),
        "kappa_twist_group": [group_json(g) for g in f.kappa_twist_group],
        "notes": list(f.notes),
    }


def igusa_json(out: IgusaOutput, mp: MantovanPiece) -> dict:
    return {
        "schema": SCHEMA,
        "stratum": point_json(out.stratum),
        "degree": out.degree,
        "multiplicity": out.multiplicity_symbol,
        "similitude": out.similitude_symbol,
        "modulus_half_exponent": frac_json(out.modulus_half_exponent),
        "pieces": [
            {"chi": list(chi), "rep": rep_json(rep)} for chi, rep in out.pieces
        ],
        "notes": list(out.notes),
        "mantovan": mantovan_json(mp),
    }


def mantovan_json(p: MantovanPiece) -> dict:
    return {
        "schema": SCHEMA,
        "stratum": point_json(p.stratum),
        "d": p.d,
        "d_b": p.d_b,
        "shift": p.shift,
        "tate": frac_json(p.tate),
        "display": p.text,
    }


def bundle_report_json(e: BundleSpec) -> dict:
    b = bundle_to_b(e)
    out = {
        "schema": SCHEMA,
        "bundle": bundle_to_json(e),
        "canonical": format_bundle(e),
        "rank": e.rank,
        "deg": e.deg,
        "hn_polygon": polygon_json(hn_polygon(e)),
        "nu": point_json(b),
        "kappa": b.kappa,
        "d": d_point(b),
        "parabolic_type": list(parabolic_type(b)),
        "automorphisms": group_json(automorphism_group(e)),
        "modulus_exponents": exponents_json(modulus_exponents(e)),
        "kappa_exponents": exponents_json(kappa_exponents(e)),
    }
    note = pairing_note(e.slope_classes())
    if note:
        out["notes"] = [note]
    return out


def enum_json(n: int, mu, points) -> dict:
    return {
        "schema": SCHEMA,
        "n": n,
        "mu": list(mu),
        "points": [point_json(p) for p in points],
    }


def hasse_json(points, edges) -> dict:
    return {
        "schema": SCHEMA,
        "points": [point_json(p) for p in points],
        "edges": [[point_json(a), point_json(b)] for a, b in edges],
    }


def chi_to_b_json(shape: LParamShape, chi: Character, e: BundleSpec, sheaf: SheafSymbol) -> dict:
    return {
        "schema": SCHEMA,
        "shape": shape_json(shape),
        "chi": list(chi),
        "bundle": bundle_report_json(e),
        "sheaf": sheaf_json(sheaf),
    }


def b_to_chis_json(shape: LParamShape, e: BundleSpec, chis) -> dict:
    return {
        "schema": SCHEMA,
        "shape": shape_json(shape),
        "bundle": bundle_to_json(e),
        "chis": [list(c) for c in chis],
    }


def component_shape_json(shape: LParamShape, desc: ComponentShape) -> dict:
    return {
        "schema": SCHEMA,
        "shape": shape_json(shape),
        "r": shape.r,
        "torsion": [c.torsion for c in shape.components],
        "stack": desc.stack,
        "closed_point_law": desc.closed_point_law,
    }


def multiplicities_json(n: int, lam, mults: dict) -> dict:
    return {
        "schema": SCHEMA,
        "n": n,
        "weight": list(lam),
        "dim": sum(mults.values()),
        "multiplicities": [
            {"weight": list(w), "mult": m} for w, m in sorted(mults.items(), reverse=True)
        ],
    }


def branching_json(n: int, lam, blocks, terms) -> dict:
    return {
        "schema": SCHEMA,
        "n": n,
        "weight": list(lam),
        "blocks": list(blocks),
        "terms": [{"weights": [list(w) for w in ws], "mult": m} for ws, m in terms],
    }


def sigma_json(shape: LParamShape, lam, chi: Character, sym: WeilSymbol) -> dict:
    return {
        "schema": SCHEMA,
        "shape": shape_json(shape),
        "weight": list(lam),
        "chi": list(chi),
        "sigma": weil_json(sym),
    }


def act_json(sheaf: SheafSymbol) -> dict:
    return {"schema": SCHEMA, "sheaf": sheaf_json(sheaf)}


def stalk_json(b: NewtonPoint, picked) -> dict:
    return {
        "schema": SCHEMA,
        "stratum": point_json(b),
        "terms": [{"sheaf": sheaf_json(s), "sigma": weil_json(w)} for s, w in picked],
    }


def verify_json(lam, strata, ok: bool) -> dict:
    return {
        "schema": SCHEMA,
        "weight": list(lam),
        "strata": [point_json(b) for b in strata],
        "eigen": ok,
    }


def modif_targets_json(n: int, nprime: int, targets) -> dict:
    return {
        "schema": SCHEMA,
        "n": n,
        "nprime": nprime,
        "targets": [bundle_to_json(e) for e in targets],
    }


def modif_necessary_json(ok: bool) -> dict:
    return {"schema": SCHEMA, "necessary_conditions_pass": ok}
