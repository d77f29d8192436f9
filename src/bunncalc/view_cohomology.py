"""Views of the cohomology commands: ``shtuka``, ``hv`` and ``igusa``."""

from __future__ import annotations

from . import serialize as ser
from .bundles import parse_bundle
from .kottwitz import bundle_to_b
from .shtuka import harris_viehmann, igusa_cohomology, mantovan_pieces, shtuka_cohomology
from .view_characters import shape_of
from .view_spectral import glyphs
from .view_strata import ints
from .weights import dual_weight


def cmd_shtuka(args):
    shape = shape_of(args)
    xi = ints(args.xi)
    target = bundle_to_b(parse_bundle(args.target))
    if args.mu is not None:
        weight, direction = ints(args.mu), "forward"
    else:
        weight, direction = dual_weight(ints(args.mu_inv)), "inverse"
    out = shtuka_cohomology(shape, xi, target, weight, direction)
    return _cohomology_view(args, shape, out)


def cmd_hv(args):
    shape = shape_of(args)
    out = harris_viehmann(shape, ints(args.xi), ints(args.mu_inv))
    return _cohomology_view(args, shape, out)


def _cohomology_view(args, shape, out):
    if args.json:
        return ser.cohomology_json(out)
    lines = [f"direction: {out.direction}", f"{len(out.pieces)} pieces"]
    for p in out.pieces:
        sigma = p.sigma.describe(args.ascii, dual=p.sigma_dual)
        lines.append(
            f"rep {p.rep.describe(shape, args.ascii)}  sigma {sigma}"
            f"  shift {p.shift}  tate {p.tate}"
        )
        if p.induction:
            lines.append(f"  induced: {p.induction}")
    lines += [f"ledger: {name} = {val}" for name, val in out.twist_ledger]
    lines += [f"note: {n}" for n in out.notes]
    return lines


def cmd_igusa(args):
    shape = shape_of(args)
    mu = ints(args.mu)
    b = bundle_to_b(parse_bundle(args.b))
    out = igusa_cohomology(shape, mu, b)
    mp = mantovan_pieces(shape, mu, b)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "stratum": ser.point_json(out.stratum),
            "degree": out.degree,
            "multiplicity": out.multiplicity_symbol,
            "similitude": out.similitude_symbol,
            "modulus_half_exponent": ser.frac_json(out.modulus_half_exponent),
            "pieces": [
                {"chi": list(chi), "rep": ser.rep_json(rep)} for chi, rep in out.pieces
            ],
            "notes": list(out.notes),
            "mantovan": {
                "schema": ser.SCHEMA,
                "stratum": ser.point_json(mp.stratum),
                "d": mp.d,
                "d_b": mp.d_b,
                "shift": mp.shift,
                "tate": ser.frac_json(mp.tate),
                "display": mp.text,
            },
        }
    nu, chi = glyphs(args)
    lines = [
        f"stratum {nu}={out.stratum}, middle degree {out.degree}",
        f"{out.count} pieces, each {out.multiplicity_symbol} * (half-modulus twist) "
        f"x {out.similitude_symbol}",
    ]
    lines += [f"{chi}={tuple(c)}: {rep.describe(shape, args.ascii)}" for c, rep in out.pieces]
    lines.append(f"graded piece: {mp.text}")
    return lines + [f"note: {n}" for n in out.notes]
