"""JSON fragments that several command views share (schema ``bunncalc/1``).

Each command builds its own document in its ``view_*`` module.  The documents
kept here have more than one user: ``bundle_report_json`` (``bundle`` and
``chi-to-b``), and ``eigenstalk_json`` and ``cohomology_json``, which the
benchmark also digests.  Rationals are {"num", "den"} pairs; every list is
emitted in the deterministic order the producing operation defines, so
identical inputs give byte-identical documents.  Only ``bundles`` and
``kottwitz`` are imported at run time; other layers' types are annotations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .bundles import BundleSpec, ascii_text, bundle_to_json, format_bundle, hn_polygon, pairing_note
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

if TYPE_CHECKING:
    from .lparams import LParamShape, RepSymbol, SheafSymbol
    from .shtuka import CohomologyOutput, CohomologyPiece
    from .spectral import EigensheafStalk
    from .weights import WeilSymbol

SCHEMA = "bunncalc/1"


def frac_json(x: Fraction | int) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def slope_json(rise: int, run: int) -> dict:
    """The slope rise/run in lowest terms."""
    g = gcd(rise, run)
    return {"num": rise // g, "den": run // g}


def point_json(b: NewtonPoint) -> dict:
    return {
        "classes": [{**slope_json(rise, run), "count": run} for rise, run in b.segments],
        "kappa": b.kappa,
        "rank": b.rank,
    }


def polygon_json(vertices: tuple[tuple[int, int], ...]) -> dict:
    return {"vertices": [[frac_json(x), frac_json(y)] for x, y in vertices]}


def group_json(g: InnerFormGroup) -> dict:
    factors = [(deg, rank, gcd(deg, rank)) for deg, rank in g.segments]
    return {
        "factors": [{"size": m, "inv_num": d // m, "inv_den": r // m} for d, r, m in factors],
        "display": ascii_text(g.describe()),
    }


def exponents_json(e: CharacterExponents) -> dict:
    return {"exps": [{"factor": i, "exp": frac_json(v)} for i, v in enumerate(e.exps)]}


def rep_json(rep: RepSymbol) -> dict:
    return {
        "stratum": point_json(rep.stratum),
        # bundle slopes: the stratum's segments negated, in reverse
        "classes": [
            {"slope": slope_json(-rise, run), "components": [i + 1 for i in members]}
            for (rise, run), members in zip(reversed(rep.stratum.segments), rep.members)
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
        "display": ascii_text(sym.describe(dual)),
    }


def shape_json(shape: LParamShape) -> dict:
    return {
        "components": [
            {"label": label, "dim": dim, "torsion": k}
            for label, dim, k in zip(shape.labels, shape.dims, shape.torsion)
        ]
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
    note = pairing_note(e.segments)
    if note:
        out["notes"] = [note]
    return out
