"""Views of the character commands (``chi-to-b``, ``b-to-chis``, ``shape``),
and the parameter-shape parser that the later layers' views use."""

from __future__ import annotations

from . import serialize as ser
from .bundles import bundle_to_json, format_bundle, parse_bundle
from .kottwitz import bundle_to_b, point_label
from .lparams import LParamShape, b_to_chis, chi_to_bundle, component_shape, make_F
from .view_strata import bundle_invariants, ints


def shape_of(args) -> LParamShape:
    torsion = ints(args.torsion) if args.torsion else None
    return LParamShape.from_dims(ints(args.dims), torsion=torsion)


def cmd_chi_to_b(args):
    shape = shape_of(args)
    chi = ints(args.chi)
    e = chi_to_bundle(shape, chi)
    sheaf = make_F(shape, chi)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "shape": ser.shape_json(shape),
            "chi": list(chi),
            "bundle": ser.bundle_report_json(e, bundle_invariants(e)),
            "sheaf": ser.sheaf_json(sheaf),
        }
    return [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        point_label(sheaf.stratum, args.ascii),
        f"sheaf shift: {sheaf.shift}",
        f"rep: {sheaf.rep.describe(shape, args.ascii)}",
    ]


def cmd_b_to_chis(args):
    shape = shape_of(args)
    e = parse_bundle(args.bundle)
    chis = b_to_chis(shape, bundle_to_b(e))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "shape": ser.shape_json(shape),
            "bundle": bundle_to_json(e),
            "chis": [list(c) for c in chis],
        }
    return [f"{len(chis)} characters"] + [str(tuple(c)) for c in chis]


def cmd_shape(args):
    shape = shape_of(args)
    desc = component_shape(shape)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "shape": ser.shape_json(shape),
            "r": shape.r,
            "torsion": list(shape.torsion),
            "stack": desc.stack,
            "closed_point_law": desc.closed_point_law,
        }
    return [str(desc)]
