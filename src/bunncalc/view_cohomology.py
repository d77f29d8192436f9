"""Views of the cohomology commands: ``shtuka``, ``hv``, ``boyer``,
``modif targets``, ``modif necessary`` and ``igusa``."""

from __future__ import annotations

from . import serialize as ser
from .bundles import bundle_to_json, format_bundle, parse_bundle
from .kottwitz import b_to_bundle, bundle_to_b
from .shtuka import (
    boyer_factorize,
    harris_viehmann,
    igusa_cohomology,
    mantovan_pieces,
    modification_necessary,
    modification_targets_rank_one,
    shtuka_cohomology,
)
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


def cmd_boyer(args):
    f = boyer_factorize(
        parse_bundle(args.b), parse_bundle(args.bprime), ints(args.mu), args.split
    )
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "split_rank": f.split_rank,
            "direction": f.direction,
            "b1": ser.point_json(f.b1),
            "b2": ser.point_json(f.b2),
            "bprime1": ser.point_json(f.bp1),
            "bprime2": ser.point_json(f.bp2),
            "mu1": list(f.mu1),
            "mu2": list(f.mu2),
            "parabolic": {
                "ambient": f.parabolic_group,
                "proper": f.parabolic_proper,
                "levi": [ser.group_json(g) for g in f.levi],
            },
            "g_source": ser.group_json(f.g_source),
            "g_target": ser.group_json(f.g_target),
            "d": f.d,
            "h": f.h,
            "rho_whole": f.rho_whole,
            "rho_part1": f.rho_part1,
            "rho_part2": f.rho_part2,
            "kappa_twist": ser.exponents_json(f.kappa_twist),
            "kappa_twist_group": [ser.group_json(g) for g in f.kappa_twist_group],
            "notes": list(f.notes),
        }
    lines = [
        f"direction: {f.direction}",
        f"split rank {f.split_rank}: mu1={f.mu1} mu2={f.mu2}",
        f"source parts: {b_to_bundle(f.b1)} / {b_to_bundle(f.b2)}",
        f"target parts: {b_to_bundle(f.bp1)} / {b_to_bundle(f.bp2)}",
        f"G_source: {f.g_source.describe(args.ascii)}",
        f"G_target: {f.g_target.describe(args.ascii)}",
        f"parabolic in {f.parabolic_group} "
        f"({'proper' if f.parabolic_proper else 'whole group'}), Levi "
        + (" x " if args.ascii else " × ").join(g.describe(args.ascii) for g in f.levi),
        f"pairings: whole {f.rho_whole}, parts {f.rho_part1} + {f.rho_part2}",
        f"d = {f.d}, h = {f.h}",
        f"twist exponents: {f.kappa_twist}",
    ]
    return lines + [f"note: {n}" for n in f.notes]


def cmd_modif_targets(args):
    out = modification_targets_rank_one(args.n, args.nprime)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "n": args.n,
            "nprime": args.nprime,
            "targets": [bundle_to_json(e) for e in out],
        }
    return [f"{len(out)} sources"] + [format_bundle(e, pretty=not args.ascii) for e in out]


def cmd_modif_necessary(args):
    ok = modification_necessary(parse_bundle(args.b), parse_bundle(args.bprime), ints(args.mu))
    if args.json:
        return {"schema": ser.SCHEMA, "necessary_conditions_pass": ok}
    return [f"necessary conditions: {'pass' if ok else 'fail'}"]


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
