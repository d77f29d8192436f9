"""Views of the modification commands: ``boyer``, ``modif targets`` and
``modif necessary``."""

from __future__ import annotations

from . import serialize as ser
from .bundles import bundle_to_json, format_bundle, parse_bundle
from .kottwitz import b_to_bundle
from .modif import boyer_factorize, modification_necessary, modification_targets_rank_one
from .view_strata import ints


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
