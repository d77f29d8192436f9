"""Views of the Newton-strata commands (``bundle``, ``kottwitz enum``,
``kottwitz hasse``), and the vector parser that every view uses."""

from __future__ import annotations

from . import serialize as ser
from .bundles import (
    ParseError,
    ascii_text,
    format_bundle,
    hn_polygon,
    pairing_note,
    parse_bundle,
)
from .kottwitz import (
    automorphism_group,
    bundle_to_b,
    dot_export,
    dot_text,
    enumerate_B,
    hasse,
    kappa_exponents,
    modulus_exponents,
    parabolic_type,
    point_label,
)


def ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {raw!r}") from exc


def text(args, lines: list[str]) -> list[str]:
    """A view's text lines, each spelled in ASCII under ``--ascii``."""
    return [ascii_text(line) for line in lines] if args.ascii else lines


def cmd_bundle(args):
    e = parse_bundle(args.expr)
    if args.json:
        return ser.bundle_report_json(e)
    b = bundle_to_b(e)
    lines = [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        f"rank={e.rank} deg={e.deg}",
        "hn vertices: "
        + " ".join(f"({x},{y})" for x, y in hn_polygon(e)),
        point_label(b),
        f"parabolic type: {parabolic_type(b)}",
        f"automorphisms: {automorphism_group(e).describe()}",
        f"modulus exponents: {modulus_exponents(e)}",
        f"inverse-modulus exponents: {kappa_exponents(e)}",
    ]
    note = pairing_note(e.segments)
    if note:
        lines.append(note)
    return text(args, lines)


def cmd_enum(args):
    mu = ints(args.mu)
    points = enumerate_B(args.n, mu)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.writelines(text(args, [dot_export(points)]))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "n": args.n,
            "mu": list(mu),
            "points": [ser.point_json(p) for p in points],
        }
    return text(args, [f"{len(points)} points"] + [point_label(p) for p in points])


def cmd_hasse(args):
    points = enumerate_B(args.n, ints(args.mu))
    edges = hasse(points)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.writelines(text(args, [dot_text(points, edges)]))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "points": [ser.point_json(p) for p in points],
            "edges": [[ser.point_json(a), ser.point_json(b)] for a, b in edges],
        }
    return [f"{len(points)} points, {len(edges)} covering edges"] + [
        f"{a} -> {b}" for a, b in edges
    ]
