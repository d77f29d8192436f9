"""Command-line front end.

Exit codes: 0 success, 1 domain error (violated precondition is named),
2 parse/usage error.  Output is deterministic for fixed inputs; ``--json``
switches to the machine schema, ``--ascii`` replaces the math glyphs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize as ser
from .bundles import (
    DomainError,
    ParseError,
    bundle_to_json,
    format_bundle,
    hn_polygon,
    pairing_note,
    parse_bundle,
    slope_str,
)
from .kottwitz import (
    BudgetError,
    NewtonPoint,
    _dot_text,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    d_point,
    dot_export,
    enumerate_B,
    hasse,
    kappa_exponents,
    modulus_exponents,
    parabolic_type,
)
from .lparams import LParamShape, b_to_chis, chi_to_bundle, component_shape, make_F
from .shtuka import (
    boyer_factorize,
    harris_viehmann,
    igusa_cohomology,
    mantovan_pieces,
    modification_necessary,
    modification_targets_rank_one,
    shtuka_cohomology,
)
from .spectral import eigensheaf_stalk, hecke, spectral_act, stalk, verify_eigen
from .weights import (
    dual_weight,
    levi_branching,
    sigma_chi,
    weight_multiplicities,
)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def _glyphs(ascii_mode: bool) -> dict[str, str]:
    if ascii_mode:
        return {"nu": "nu", "kappa": "kappa", "d": "d", "oplus": " + ", "chi": "chi"}
    return {"nu": "ν", "kappa": "κ", "d": "d", "oplus": " ⊕ ", "chi": "χ"}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _point_line(b: NewtonPoint, g: dict) -> str:
    return f"{g['nu']}={b} {g['kappa']}={b.kappa} d={d_point(b)}"


def _shape(args) -> LParamShape:
    torsion = _ints(args.torsion) if getattr(args, "torsion", None) else None
    return LParamShape.from_dims(_ints(args.dims), torsion=torsion)


# ------------------------------------------------------------- subcommands


def cmd_bundle(args) -> int:
    e = parse_bundle(args.expr)
    g = _glyphs(args.ascii)
    b = bundle_to_b(e)
    lines = [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        f"rank={e.rank} deg={e.deg}",
        "hn vertices: "
        + " ".join(f"({slope_str(x)},{slope_str(y)})" for x, y in hn_polygon(e).vertices),
        _point_line(b, g),
        f"parabolic type: {parabolic_type(b)}",
        f"automorphisms: {automorphism_group(e).describe(args.ascii)}",
        f"modulus exponents: {modulus_exponents(e)}",
        f"inverse-modulus exponents: {kappa_exponents(e)}",
    ]
    note = pairing_note(e.slope_classes())
    if note:
        lines.append(note)
    _emit(args, ser.bundle_report_json(e), lines)
    return 0


def cmd_kottwitz_enum(args) -> int:
    mu = _ints(args.mu)
    points = enumerate_B(args.n, mu)
    g = _glyphs(args.ascii)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot_export(points, ascii_mode=args.ascii))
    payload = {
        "schema": ser.SCHEMA,
        "n": args.n,
        "mu": list(mu),
        "points": [ser.point_json(p) for p in points],
    }
    _emit(args, payload, [f"{len(points)} points"] + [_point_line(p, g) for p in points])
    return 0


def cmd_kottwitz_hasse(args) -> int:
    mu = _ints(args.mu)
    points = enumerate_B(args.n, mu)
    edges = hasse(points)
    g = _glyphs(args.ascii)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(_dot_text(points, edges, args.ascii))
    payload = {
        "schema": ser.SCHEMA,
        "points": [ser.point_json(p) for p in points],
        "edges": [[ser.point_json(a), ser.point_json(b)] for a, b in edges],
    }
    lines = [f"{len(points)} points, {len(edges)} covering edges"]
    lines += [f"{a} -> {b}" for a, b in edges]
    _emit(args, payload, lines)
    return 0


def cmd_chi_to_b(args) -> int:
    shape = _shape(args)
    chi = _ints(args.chi)
    e = chi_to_bundle(shape, chi)
    sheaf = make_F(shape, chi)
    g = _glyphs(args.ascii)
    lines = [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        _point_line(sheaf.stratum, g),
        f"sheaf shift: {sheaf.shift}",
        f"rep: {sheaf.rep.describe(shape, args.ascii)}",
    ]
    payload = {
        "schema": ser.SCHEMA,
        "shape": ser.shape_json(shape),
        "chi": list(chi),
        "bundle": ser.bundle_report_json(e),
        "sheaf": ser.sheaf_json(sheaf),
    }
    _emit(args, payload, lines)
    return 0


def cmd_b_to_chis(args) -> int:
    shape = _shape(args)
    e = parse_bundle(args.bundle)
    chis = b_to_chis(shape, bundle_to_b(e))
    payload = {
        "schema": ser.SCHEMA,
        "shape": ser.shape_json(shape),
        "bundle": bundle_to_json(e),
        "chis": [list(c) for c in chis],
    }
    lines = [f"{len(chis)} characters"] + [str(tuple(c)) for c in chis]
    _emit(args, payload, lines)
    return 0


def cmd_shape(args) -> int:
    shape = _shape(args)
    desc = component_shape(shape)
    payload = {
        "schema": ser.SCHEMA,
        "shape": ser.shape_json(shape),
        "r": desc.r,
        "torsion": list(desc.torsion),
        "stack": desc.stack,
        "closed_point_law": desc.closed_point_law,
    }
    _emit(args, payload, [str(desc)])
    return 0


def cmd_weights_mult(args) -> int:
    lam = _ints(args.lam)
    mults = weight_multiplicities(args.n, lam)
    items = sorted(mults.items(), reverse=True)
    payload = {
        "schema": ser.SCHEMA,
        "n": args.n,
        "weight": list(lam),
        "dim": sum(mults.values()),
        "multiplicities": [{"weight": list(w), "mult": m} for w, m in items],
    }
    lines = [f"dim {sum(mults.values())}"] + [f"{w}: {m}" for w, m in items]
    _emit(args, payload, lines)
    return 0


def cmd_weights_branch(args) -> int:
    lam = _ints(args.lam)
    blocks = _ints(args.blocks)
    terms = levi_branching(args.n, lam, blocks)
    payload = {
        "schema": ser.SCHEMA,
        "n": args.n,
        "weight": list(lam),
        "blocks": list(blocks),
        "terms": [
            {"weights": [list(w) for w in ws], "mult": m} for ws, m in terms
        ],
    }
    lines = [f"{len(terms)} terms"] + [
        f"{' x '.join(str(w) for w in ws)}  mult {m}" for ws, m in terms
    ]
    _emit(args, payload, lines)
    return 0


def cmd_weights_sigma(args) -> int:
    shape = _shape(args)
    lam = _ints(args.lam)
    chi = _ints(args.chi)
    sym = sigma_chi(shape, lam, chi)
    payload = {
        "schema": ser.SCHEMA,
        "shape": ser.shape_json(shape),
        "weight": list(lam),
        "chi": list(chi),
        "sigma": ser.weil_json(sym),
    }
    _emit(args, payload, [f"sigma = {sym.describe(args.ascii)}", f"dim {sym.dim}"])
    return 0


def cmd_spectral_act(args) -> int:
    shape = _shape(args)
    chi = _ints(args.chi)
    xi = _ints(args.xi)
    out = spectral_act(shape, chi, make_F(shape, xi))
    g = _glyphs(args.ascii)
    lines = [
        _point_line(out.stratum, g),
        f"shift: {out.shift}",
        f"rep: {out.rep.describe(shape, args.ascii)}",
    ]
    _emit(
        args,
        {"schema": ser.SCHEMA, "sheaf": ser.sheaf_json(out)},
        lines,
    )
    return 0


def cmd_spectral_hecke(args) -> int:
    shape = _shape(args)
    lam = _ints(args.lam)
    xi = _ints(args.xi)
    dec = hecke(shape, lam, make_F(shape, xi))
    g = _glyphs(args.ascii)
    if args.stalk:
        b = bundle_to_b(parse_bundle(args.stalk))
        picked = stalk(dec, b)
        payload = {
            "schema": ser.SCHEMA,
            "stratum": ser.point_json(b),
            "terms": [
                {"sheaf": ser.sheaf_json(s), "sigma": ser.weil_json(w)}
                for s, w in picked
            ],
        }
        lines = [f"{len(picked)} terms at {g['nu']}={b}"] + [
            f"shift {s.shift}  sigma {w.describe(args.ascii)}" for s, w in picked
        ]
        _emit(args, payload, lines)
        return 0
    lines = [f"{len(dec.terms)} terms, total dim {dec.total_dim}"]
    for chi, sheaf, sym in dec.terms:
        lines.append(
            f"{g['chi']}={tuple(chi)}  {g['nu']}={sheaf.stratum}  shift {sheaf.shift}"
            f"  sigma {sym.describe(args.ascii)}"
        )
    _emit(args, ser.hecke_json(dec), lines)
    return 0


def cmd_spectral_eigensheaf(args) -> int:
    shape = _shape(args)
    b = bundle_to_b(parse_bundle(args.bundle))
    st = eigensheaf_stalk(shape, b)
    g = _glyphs(args.ascii)
    lines = [f"{st.count} pieces at {g['nu']}={b}"] + [
        f"shift {p.shift}  rep {p.rep.describe(shape, args.ascii)}" for p in st.pieces
    ]
    _emit(args, ser.eigenstalk_json(st), lines)
    return 0


def cmd_spectral_verify(args) -> int:
    shape = _shape(args)
    lam = _ints(args.lam)
    strata = [bundle_to_b(parse_bundle(s)) for s in args.strata.split(";") if s]
    ok = verify_eigen(shape, lam, strata)
    payload = {
        "schema": ser.SCHEMA,
        "weight": list(lam),
        "strata": [ser.point_json(b) for b in strata],
        "eigen": ok,
    }
    _emit(args, payload, [f"eigen identity: {'holds' if ok else 'FAILS'}"])
    return 0 if ok else 1


def cmd_shtuka(args) -> int:
    shape = _shape(args)
    xi = _ints(args.xi)
    target = bundle_to_b(parse_bundle(args.target))
    if args.mu is not None:
        weight, direction = _ints(args.mu), "forward"
    else:
        weight, direction = dual_weight(_ints(args.mu_inv)), "inverse"
    out = shtuka_cohomology(shape, xi, target, weight, direction)
    _emit(args, ser.cohomology_json(out), _cohomology_lines(out, shape, args.ascii))
    return 0


def cmd_hv(args) -> int:
    shape = _shape(args)
    xi = _ints(args.xi)
    out = harris_viehmann(shape, xi, _ints(args.mu_inv))
    _emit(args, ser.cohomology_json(out), _cohomology_lines(out, shape, args.ascii))
    return 0


def _cohomology_lines(out, shape, ascii_mode: bool) -> list[str]:
    lines = [f"direction: {out.direction}", f"{len(out.pieces)} pieces"]
    for p in out.pieces:
        sigma = p.sigma.describe(ascii_mode, dual=p.sigma_dual)
        lines.append(
            f"rep {p.rep.describe(shape, ascii_mode)}  sigma {sigma}"
            f"  shift {p.shift}  tate {p.tate}"
        )
        if p.induction:
            lines.append(f"  induced: {p.induction}")
    lines += [f"ledger: {name} = {val}" for name, val in out.twist_ledger]
    lines += [f"note: {n}" for n in out.notes]
    return lines


def cmd_boyer(args) -> int:
    eb = parse_bundle(args.b)
    ebp = parse_bundle(args.bprime)
    mu = _ints(args.mu)
    f = boyer_factorize(eb, ebp, mu, args.split)
    lines = [
        f"direction: {f.direction}",
        f"split rank {f.split_rank}: mu1={f.mu1} mu2={f.mu2}",
        f"source parts: {b_to_bundle(f.b1)} / {b_to_bundle(f.b2)}",
        f"target parts: {b_to_bundle(f.bp1)} / {b_to_bundle(f.bp2)}",
        f"G_source: {f.g_source.describe(args.ascii)}",
        f"G_target: {f.g_target.describe(args.ascii)}",
        f"parabolic in {f.parabolic_group} "
        f"({'proper' if f.parabolic_proper else 'whole group'}), Levi "
        + (" x " if args.ascii else " × ").join(
            g.describe(args.ascii) for g in f.levi
        ),
        f"pairings: whole {f.rho_whole}, parts {f.rho_part1} + {f.rho_part2}",
        f"d = {f.d}, h = {f.h}",
        f"twist exponents: {f.kappa_twist}",
    ]
    lines += [f"note: {n}" for n in f.notes]
    _emit(args, ser.boyer_json(f), lines)
    return 0


def cmd_modif_targets(args) -> int:
    out = modification_targets_rank_one(args.n, args.nprime)
    payload = {
        "schema": ser.SCHEMA,
        "n": args.n,
        "nprime": args.nprime,
        "targets": [ser.bundle_report_json(e)["bundle"] for e in out],
    }
    lines = [f"{len(out)} sources"] + [
        format_bundle(e, pretty=not args.ascii) for e in out
    ]
    _emit(args, payload, lines)
    return 0


def cmd_modif_necessary(args) -> int:
    eb = parse_bundle(args.b)
    ebp = parse_bundle(args.bprime)
    ok = modification_necessary(eb, ebp, _ints(args.mu))
    payload = {"schema": ser.SCHEMA, "necessary_conditions_pass": ok}
    _emit(args, payload, [f"necessary conditions: {'pass' if ok else 'fail'}"])
    return 0


def cmd_igusa(args) -> int:
    shape = _shape(args)
    b = bundle_to_b(parse_bundle(args.b))
    out = igusa_cohomology(shape, _ints(args.mu), b)
    mp = mantovan_pieces(shape, _ints(args.mu), b)
    g = _glyphs(args.ascii)
    lines = [
        f"stratum {g['nu']}={out.stratum}, middle degree {out.degree}",
        f"{out.count} pieces, each {out.multiplicity_symbol} * (half-modulus twist) "
        f"x {out.similitude_symbol}",
    ]
    for chi, rep in out.pieces:
        lines.append(f"{g['chi']}={tuple(chi)}: {rep.describe(shape, args.ascii)}")
    lines.append(f"graded piece: {mp.text}")
    lines += [f"note: {n}" for n in out.notes]
    payload = ser.igusa_json(out)
    payload["mantovan"] = ser.mantovan_json(mp)
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit the JSON schema")
    p.add_argument("--ascii", action="store_true", help="plain-ASCII output")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bunncalc",
        description="exact slope calculus, Newton strata, and character/stratum "
        "bookkeeping for spectral Hecke actions",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bundle", help="invariants of a bundle expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=cmd_bundle)

    kw = sub.add_parser("kottwitz", help="Newton point enumeration and poset")
    ksub = kw.add_subparsers(dest="subcommand", required=True)
    p = ksub.add_parser("enum", help="points under a dominant cocharacter")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--dot", help="write a DOT digraph to this path")
    _add_common(p)
    p.set_defaults(func=cmd_kottwitz_enum)
    p = ksub.add_parser("hasse", help="covering edges of the dominance order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--dot", help="write a DOT digraph to this path")
    _add_common(p)
    p.set_defaults(func=cmd_kottwitz_hasse)

    p = sub.add_parser("chi-to-b", help="stratum and sheaf symbol of a character")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--chi", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_chi_to_b)

    p = sub.add_parser("b-to-chis", help="characters of a stratum")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--bundle", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_b_to_chis)

    p = sub.add_parser("shape", help="component shape of a parameter skeleton")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    _add_common(p)
    p.set_defaults(func=cmd_shape)

    w = sub.add_parser("weights", help="weight multiplicities and branching")
    wsub = w.add_subparsers(dest="subcommand", required=True)
    p = wsub.add_parser("mult", help="weight multiplicities")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weights_mult)
    p = wsub.add_parser("branch", help="restriction to a block Levi")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--blocks", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weights_branch)
    p = wsub.add_parser("sigma", help="isotypic slice of a weight representation")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--chi", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weights_sigma)

    sp = sub.add_parser("spectral", help="character action and operator decompositions")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("act", help="translate a canonical symbol by a character")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--chi", required=True)
    p.add_argument("--xi", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectral_act)

    def _hecke_parser(parser):
        parser.add_argument("--dims", required=True)
        parser.add_argument("--torsion")
        parser.add_argument("--lambda", dest="lam", required=True)
        parser.add_argument("--xi", required=True)
        parser.add_argument("--stalk", help="restrict to the stratum of this bundle")
        _add_common(parser)
        parser.set_defaults(func=cmd_spectral_hecke)

    _hecke_parser(ssub.add_parser("hecke", help="operator decomposition"))
    p = ssub.add_parser("stalk", help="operator decomposition restricted to a stratum")
    _hecke_parser(p)
    _hecke_parser(sub.add_parser("hecke", help="alias for 'spectral hecke'"))

    p = ssub.add_parser("eigensheaf", help="eigen-stalk at a stratum")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--bundle", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectral_eigensheaf)

    p = ssub.add_parser("verify", help="termwise eigen identity on a stratum window")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--strata", required=True, help="';'-separated bundle expressions")
    _add_common(p)
    p.set_defaults(func=cmd_spectral_verify)

    p = sub.add_parser("shtuka", help="stalk of an operator with shift/twist ledger")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--xi", required=True)
    p.add_argument("--target", required=True, help="target stratum as a bundle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", help="forward direction weight")
    group.add_argument("--mu-inv", dest="mu_inv", help="inverse direction weight")
    _add_common(p)
    p.set_defaults(func=cmd_shtuka)

    p = sub.add_parser("hv", help="basic-stratum output with induction presentation")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--xi", required=True)
    p.add_argument("--mu-inv", dest="mu_inv", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_hv)

    p = sub.add_parser("boyer", help="factor a modification space along a split")
    p.add_argument("--b", required=True)
    p.add_argument("--bprime", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--split", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_boyer)

    m = sub.add_parser("modif", help="rank-one modification sources / necessary checks")
    msub = m.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("targets", help="sources of an elementary modification")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_modif_targets)
    p = msub.add_parser("necessary", help="necessary-only existence checks")
    p.add_argument("--b", required=True)
    p.add_argument("--bprime", required=True)
    p.add_argument("--mu", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_modif_necessary)

    p = sub.add_parser("igusa", help="middle-degree isotypic output at a stratum")
    p.add_argument("--dims", required=True)
    p.add_argument("--torsion")
    p.add_argument("--mu", required=True)
    p.add_argument("--b", required=True, help="stratum as a bundle expression")
    _add_common(p)
    p.set_defaults(func=cmd_igusa)

    return top


_VECTOR_FLAGS = {"--mu", "--mu-inv", "--chi", "--xi", "--lambda", "--torsion", "--blocks"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join vector flags with values that begin with a minus sign, which
    argparse would otherwise read as option strings."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VECTOR_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and any(ch.isdigit() for ch in argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
