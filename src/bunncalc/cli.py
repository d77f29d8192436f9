"""Command-line front end.

Exit codes: 0 success, 1 domain error (violated precondition is named),
2 parse/usage error.  Output is deterministic for fixed inputs; ``--json``
switches to the machine schema, ``--ascii`` replaces the math glyphs.

Each command computes its result once and returns only the view asked for:
the JSON document (built in ``serialize``) under ``--json``, else its text
lines.  A command whose exit code depends on the result returns the pair
(view, exit code).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize as ser
from .bundles import (
    DomainError,
    ParseError,
    format_bundle,
    hn_polygon,
    pairing_note,
    parse_bundle,
    slope_str,
)
from .kottwitz import (
    BudgetError,
    _dot_text,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    dot_export,
    enumerate_B,
    hasse,
    kappa_exponents,
    modulus_exponents,
    parabolic_type,
    point_label,
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
from .weights import dual_weight, levi_branching, sigma_chi, weight_multiplicities


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from exc


def _shape(args) -> LParamShape:
    torsion = _ints(args.torsion) if args.torsion else None
    return LParamShape.from_dims(_ints(args.dims), torsion=torsion)


def _nu(args) -> str:
    return "nu" if args.ascii else "ν"


def _chi(args) -> str:
    return "chi" if args.ascii else "χ"


# ------------------------------------------------------------- subcommands


def cmd_bundle(args):
    e = parse_bundle(args.expr)
    if args.json:
        return ser.bundle_report_json(e)
    b = bundle_to_b(e)
    lines = [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        f"rank={e.rank} deg={e.deg}",
        "hn vertices: "
        + " ".join(f"({slope_str(x)},{slope_str(y)})" for x, y in hn_polygon(e).vertices),
        point_label(b, args.ascii),
        f"parabolic type: {parabolic_type(b)}",
        f"automorphisms: {automorphism_group(e).describe(args.ascii)}",
        f"modulus exponents: {modulus_exponents(e)}",
        f"inverse-modulus exponents: {kappa_exponents(e)}",
    ]
    note = pairing_note(e.slope_classes())
    if note:
        lines.append(note)
    return lines


def cmd_kottwitz_enum(args):
    mu = _ints(args.mu)
    points = enumerate_B(args.n, mu)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot_export(points, ascii_mode=args.ascii))
    if args.json:
        return ser.enum_json(args.n, mu, points)
    return [f"{len(points)} points"] + [point_label(p, args.ascii) for p in points]


def cmd_kottwitz_hasse(args):
    points = enumerate_B(args.n, _ints(args.mu))
    edges = hasse(points)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(_dot_text(points, edges, args.ascii))
    if args.json:
        return ser.hasse_json(points, edges)
    return [f"{len(points)} points, {len(edges)} covering edges"] + [
        f"{a} -> {b}" for a, b in edges
    ]


def cmd_chi_to_b(args):
    shape = _shape(args)
    chi = _ints(args.chi)
    e = chi_to_bundle(shape, chi)
    sheaf = make_F(shape, chi)
    if args.json:
        return ser.chi_to_b_json(shape, chi, e, sheaf)
    return [
        f"bundle: {format_bundle(e, pretty=not args.ascii)}",
        point_label(sheaf.stratum, args.ascii),
        f"sheaf shift: {sheaf.shift}",
        f"rep: {sheaf.rep.describe(shape, args.ascii)}",
    ]


def cmd_b_to_chis(args):
    shape = _shape(args)
    e = parse_bundle(args.bundle)
    chis = b_to_chis(shape, bundle_to_b(e))
    if args.json:
        return ser.b_to_chis_json(shape, e, chis)
    return [f"{len(chis)} characters"] + [str(tuple(c)) for c in chis]


def cmd_shape(args):
    shape = _shape(args)
    desc = component_shape(shape)
    if args.json:
        return ser.component_shape_json(shape, desc)
    return [str(desc)]


def cmd_weights_mult(args):
    lam = _ints(args.lam)
    mults = weight_multiplicities(args.n, lam)
    if args.json:
        return ser.multiplicities_json(args.n, lam, mults)
    items = sorted(mults.items(), reverse=True)
    return [f"dim {sum(mults.values())}"] + [f"{w}: {m}" for w, m in items]


def cmd_weights_branch(args):
    lam = _ints(args.lam)
    blocks = _ints(args.blocks)
    terms = levi_branching(args.n, lam, blocks)
    if args.json:
        return ser.branching_json(args.n, lam, blocks, terms)
    return [f"{len(terms)} terms"] + [
        f"{' x '.join(str(w) for w in ws)}  mult {m}" for ws, m in terms
    ]


def cmd_weights_sigma(args):
    shape = _shape(args)
    lam = _ints(args.lam)
    chi = _ints(args.chi)
    sym = sigma_chi(shape, lam, chi)
    if args.json:
        return ser.sigma_json(shape, lam, chi, sym)
    return [f"sigma = {sym.describe(args.ascii)}", f"dim {sym.dim}"]


def cmd_spectral_act(args):
    shape = _shape(args)
    out = spectral_act(shape, _ints(args.chi), make_F(shape, _ints(args.xi)))
    if args.json:
        return ser.act_json(out)
    return [
        point_label(out.stratum, args.ascii),
        f"shift: {out.shift}",
        f"rep: {out.rep.describe(shape, args.ascii)}",
    ]


def cmd_spectral_hecke(args):
    shape = _shape(args)
    dec = hecke(shape, _ints(args.lam), make_F(shape, _ints(args.xi)))
    if args.stalk:
        b = bundle_to_b(parse_bundle(args.stalk))
        picked = stalk(dec, b)
        if args.json:
            return ser.stalk_json(b, picked)
        return [f"{len(picked)} terms at {_nu(args)}={b}"] + [
            f"shift {s.shift}  sigma {w.describe(args.ascii)}" for s, w in picked
        ]
    if args.json:
        return ser.hecke_json(dec)
    return [f"{len(dec.terms)} terms, total dim {dec.total_dim}"] + [
        f"{_chi(args)}={tuple(chi)}  {_nu(args)}={sheaf.stratum}  shift {sheaf.shift}"
        f"  sigma {sym.describe(args.ascii)}"
        for chi, sheaf, sym in dec.terms
    ]


def cmd_spectral_eigensheaf(args):
    shape = _shape(args)
    b = bundle_to_b(parse_bundle(args.bundle))
    st = eigensheaf_stalk(shape, b)
    if args.json:
        return ser.eigenstalk_json(st)
    return [f"{st.count} pieces at {_nu(args)}={b}"] + [
        f"shift {p.shift}  rep {p.rep.describe(shape, args.ascii)}" for p in st.pieces
    ]


def cmd_spectral_verify(args):
    shape = _shape(args)
    lam = _ints(args.lam)
    strata = [bundle_to_b(parse_bundle(s)) for s in args.strata.split(";") if s]
    ok = verify_eigen(shape, lam, strata)
    if args.json:
        view = ser.verify_json(lam, strata, ok)
    else:
        view = [f"eigen identity: {'holds' if ok else 'FAILS'}"]
    return view, 0 if ok else 1


def cmd_shtuka(args):
    shape = _shape(args)
    xi = _ints(args.xi)
    target = bundle_to_b(parse_bundle(args.target))
    if args.mu is not None:
        weight, direction = _ints(args.mu), "forward"
    else:
        weight, direction = dual_weight(_ints(args.mu_inv)), "inverse"
    out = shtuka_cohomology(shape, xi, target, weight, direction)
    return _cohomology_view(args, shape, out)


def cmd_hv(args):
    shape = _shape(args)
    out = harris_viehmann(shape, _ints(args.xi), _ints(args.mu_inv))
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
        parse_bundle(args.b), parse_bundle(args.bprime), _ints(args.mu), args.split
    )
    if args.json:
        return ser.boyer_json(f)
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
        return ser.modif_targets_json(args.n, args.nprime, out)
    return [f"{len(out)} sources"] + [format_bundle(e, pretty=not args.ascii) for e in out]


def cmd_modif_necessary(args):
    ok = modification_necessary(parse_bundle(args.b), parse_bundle(args.bprime), _ints(args.mu))
    if args.json:
        return ser.modif_necessary_json(ok)
    return [f"necessary conditions: {'pass' if ok else 'fail'}"]


def cmd_igusa(args):
    shape = _shape(args)
    mu = _ints(args.mu)
    b = bundle_to_b(parse_bundle(args.b))
    out = igusa_cohomology(shape, mu, b)
    mp = mantovan_pieces(shape, mu, b)
    if args.json:
        return ser.igusa_json(out, mp)
    lines = [
        f"stratum {_nu(args)}={out.stratum}, middle degree {out.degree}",
        f"{out.count} pieces, each {out.multiplicity_symbol} * (half-modulus twist) "
        f"x {out.similitude_symbol}",
    ]
    lines += [
        f"{_chi(args)}={tuple(chi)}: {rep.describe(shape, args.ascii)}" for chi, rep in out.pieces
    ]
    lines.append(f"graded piece: {mp.text}")
    return lines + [f"note: {n}" for n in out.notes]


# ------------------------------------------------------------------ parser

_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}

# key -> (option string, add_argument keywords)
_OPTIONS = {
    "expr": ("expr", {}),
    "n": ("-n", _INT),
    "nprime": ("--nprime", _INT),
    "split": ("--split", _INT),
    "mu": ("--mu", _REQUIRED),
    "mu_inv": ("--mu-inv", _REQUIRED),
    "mu_forward": ("--mu", {"help": "forward direction weight"}),
    "mu_inverse": ("--mu-inv", {"help": "inverse direction weight"}),
    "dims": ("--dims", _REQUIRED),
    "torsion": ("--torsion", {}),
    "chi": ("--chi", _REQUIRED),
    "xi": ("--xi", _REQUIRED),
    "lam": ("--lambda", {"dest": "lam", "required": True}),
    "blocks": ("--blocks", _REQUIRED),
    "bundle": ("--bundle", _REQUIRED),
    "b": ("--b", _REQUIRED),
    "b_stratum": ("--b", {"required": True, "help": "stratum as a bundle expression"}),
    "bprime": ("--bprime", _REQUIRED),
    "dot": ("--dot", {"help": "write a DOT digraph to this path"}),
    "stalk": ("--stalk", {"help": "restrict to the stratum of this bundle"}),
    "strata": ("--strata", {"required": True, "help": "';'-separated bundle expressions"}),
    "target": ("--target", {"required": True, "help": "target stratum as a bundle"}),
    "json": ("--json", {"action": "store_true", "help": "emit the JSON schema"}),
    "ascii": ("--ascii", {"action": "store_true", "help": "plain-ASCII output"}),
}

_SHAPE = ("dims", "torsion")
_HECKE = _SHAPE + ("lam", "xi", "stalk")

# (command path, help, handler, option keys); a tuple of keys is a required
# mutually exclusive group, and a row without a handler holds subcommands
_COMMANDS = [
    (("bundle",), "invariants of a bundle expression", cmd_bundle, ("expr",)),
    (("kottwitz",), "Newton point enumeration and poset", None, ()),
    (("kottwitz", "enum"), "points under a dominant cocharacter", cmd_kottwitz_enum,
     ("n", "mu", "dot")),
    (("kottwitz", "hasse"), "covering edges of the dominance order", cmd_kottwitz_hasse,
     ("n", "mu", "dot")),
    (("chi-to-b",), "stratum and sheaf symbol of a character", cmd_chi_to_b, _SHAPE + ("chi",)),
    (("b-to-chis",), "characters of a stratum", cmd_b_to_chis, _SHAPE + ("bundle",)),
    (("shape",), "component shape of a parameter skeleton", cmd_shape, _SHAPE),
    (("weights",), "weight multiplicities and branching", None, ()),
    (("weights", "mult"), "weight multiplicities", cmd_weights_mult, ("n", "lam")),
    (("weights", "branch"), "restriction to a block Levi", cmd_weights_branch,
     ("n", "lam", "blocks")),
    (("weights", "sigma"), "isotypic slice of a weight representation", cmd_weights_sigma,
     _SHAPE + ("lam", "chi")),
    (("spectral",), "character action and operator decompositions", None, ()),
    (("spectral", "act"), "translate a canonical symbol by a character", cmd_spectral_act,
     _SHAPE + ("chi", "xi")),
    (("spectral", "hecke"), "operator decomposition", cmd_spectral_hecke, _HECKE),
    (("spectral", "stalk"), "operator decomposition restricted to a stratum",
     cmd_spectral_hecke, _HECKE),
    (("spectral", "eigensheaf"), "eigen-stalk at a stratum", cmd_spectral_eigensheaf,
     _SHAPE + ("bundle",)),
    (("spectral", "verify"), "termwise eigen identity on a stratum window",
     cmd_spectral_verify, _SHAPE + ("lam", "strata")),
    (("hecke",), "alias for 'spectral hecke'", cmd_spectral_hecke, _HECKE),
    (("shtuka",), "stalk of an operator with shift/twist ledger", cmd_shtuka,
     _SHAPE + ("xi", "target", ("mu_forward", "mu_inverse"))),
    (("hv",), "basic-stratum output with induction presentation", cmd_hv,
     _SHAPE + ("xi", "mu_inv")),
    (("boyer",), "factor a modification space along a split", cmd_boyer,
     ("b", "bprime", "mu", "split")),
    (("modif",), "rank-one modification sources / necessary checks", None, ()),
    (("modif", "targets"), "sources of an elementary modification", cmd_modif_targets,
     ("n", "nprime")),
    (("modif", "necessary"), "necessary-only existence checks", cmd_modif_necessary,
     ("b", "bprime", "mu")),
    (("igusa",), "middle-degree isotypic output at a stratum", cmd_igusa,
     _SHAPE + ("mu", "b_stratum")),
]


def _add_option(parser, key: str) -> None:
    flag, kwargs = _OPTIONS[key]
    parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bunncalc",
        description="exact slope calculus, Newton strata, and character/stratum "
        "bookkeeping for spectral Hecke actions",
    )
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, help_text, func, keys in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], help=help_text)
        if func is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for key in keys + ("json", "ascii"):
            if isinstance(key, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in key:
                    _add_option(group, member)
            else:
                _add_option(p, key)
        p.set_defaults(func=func)
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
        view = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    view, code = view if isinstance(view, tuple) else (view, 0)
    if isinstance(view, dict):
        print(json.dumps(view, indent=2))
    else:
        for line in view:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
