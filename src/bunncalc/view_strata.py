"""Views of the Newton-strata commands (``bundle``, ``kottwitz enum``,
``kottwitz hasse``), and the vector parser that every view uses."""

from __future__ import annotations

from . import serialize as ser
from .bundles import BundleSpec, ParseError, format_bundle, hn_polygon, pairing_note, parse_bundle
from .kottwitz import (
    _dot_text,
    automorphism_group,
    bundle_to_b,
    dot_export,
    enumerate_B,
    hasse,
    kappa_exponents,
    modulus_exponents,
    parabolic_type,
    point_label,
)


def ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def bundle_invariants(e: BundleSpec) -> tuple:
    """(Newton point, automorphism group, modulus and inverse-modulus
    exponents, pairing note) of a bundle: what both of its views show."""
    return (
        bundle_to_b(e),
        automorphism_group(e),
        modulus_exponents(e),
        kappa_exponents(e),
        pairing_note(e.segments),
    )


def cmd_bundle(args):
    e = parse_bundle(args.expr)
    invariants = bundle_invariants(e)
    if args.json:
        return ser.bundle_report_json(e, invariants)
    b, group, modulus, kappa, note = invariants
    lines = [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        f"rank={e.rank} deg={e.deg}",
        "hn vertices: "
        + " ".join(f"({x},{y})" for x, y in hn_polygon(e)),
        point_label(b, args.ascii),
        f"parabolic type: {parabolic_type(b)}",
        f"automorphisms: {group.describe(args.ascii)}",
        f"modulus exponents: {modulus}",
        f"inverse-modulus exponents: {kappa}",
    ]
    if note:
        lines.append(note)
    return lines


def cmd_enum(args):
    mu = ints(args.mu)
    points = enumerate_B(args.n, mu)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot_export(points, ascii_mode=args.ascii))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "n": args.n,
            "mu": list(mu),
            "points": [ser.point_json(p) for p in points],
        }
    return [f"{len(points)} points"] + [point_label(p, args.ascii) for p in points]


def cmd_hasse(args):
    points = enumerate_B(args.n, ints(args.mu))
    edges = hasse(points)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(_dot_text(points, edges, args.ascii))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "points": [ser.point_json(p) for p in points],
            "edges": [[ser.point_json(a), ser.point_json(b)] for a, b in edges],
        }
    return [f"{len(points)} points, {len(edges)} covering edges"] + [
        f"{a} -> {b}" for a, b in edges
    ]
