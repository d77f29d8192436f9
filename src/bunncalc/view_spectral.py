"""Views of the spectral commands: ``spectral act``, ``hecke`` (also as
``spectral hecke`` and, with ``--stalk`` through ``hecke_stalk``, as
``spectral stalk``), ``spectral eigensheaf`` and ``spectral verify``."""

from __future__ import annotations

from . import serialize as ser
from .bundles import ParseError, check_dominant, parse_bundle
from .kottwitz import bundle_to_b, point_label
from .lparams import make_F
from .spectral import eigensheaf_stalk, hecke, hecke_stalk, spectral_act, verify_eigen
from .view_characters import shape_of
from .view_strata import ints, text


def cmd_act(args):
    shape = shape_of(args)
    out = spectral_act(shape, ints(args.chi), make_F(shape, ints(args.xi)))
    if args.json:
        return {"schema": ser.SCHEMA, "sheaf": ser.sheaf_json(out)}
    return text(args, [
        point_label(out.stratum),
        f"shift: {out.shift}",
        f"rep: {out.rep.describe(shape)}",
    ])


def cmd_hecke(args):
    shape = shape_of(args)
    lam, xi = ints(args.lam), shape.check_chi(ints(args.xi))
    if args.stalk:
        # a bad weight is reported before a bad stratum
        lam = check_dominant(lam, shape.n)
        b = bundle_to_b(parse_bundle(args.stalk))
        picked = hecke_stalk(shape, lam, xi, b)
        if args.json:
            return {
                "schema": ser.SCHEMA,
                "stratum": ser.point_json(b),
                "terms": [
                    {"sheaf": ser.sheaf_json(s), "sigma": ser.weil_json(w)} for s, w in picked
                ],
            }
        return text(args, [f"{len(picked)} terms at ν={b}"] + [
            f"shift {s.shift}  sigma {w.describe()}" for s, w in picked
        ])
    dec = hecke(shape, lam, make_F(shape, xi))
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "weight": list(dec.weight),
            "source": list(dec.source),
            "terms": [
                {"chi": list(c), "sheaf": ser.sheaf_json(sheaf), "sigma": ser.weil_json(sym)}
                for c, sheaf, sym in dec.terms
            ],
            "total_dim": dec.total_dim,
        }
    return text(args, [f"{len(dec.terms)} terms, total dim {dec.total_dim}"] + [
        f"χ={tuple(c)}  ν={sheaf.stratum}  shift {sheaf.shift}  sigma {sym.describe()}"
        for c, sheaf, sym in dec.terms
    ])


def cmd_eigensheaf(args):
    shape = shape_of(args)
    b = bundle_to_b(parse_bundle(args.bundle))
    st = eigensheaf_stalk(shape, b)
    if args.json:
        return ser.eigenstalk_json(st)
    return text(args, [f"{st.count} pieces at ν={b}"] + [
        f"shift {p.shift}  rep {p.rep.describe(shape)}" for p in st.pieces
    ])


def cmd_verify(args):
    shape = shape_of(args)
    lam = ints(args.lam)
    strata = [bundle_to_b(parse_bundle(s)) for s in args.strata.split(";") if s]
    if not strata:
        raise ParseError(f"--strata names no bundle: {args.strata!r}")
    ok = verify_eigen(shape, lam, strata)
    if args.json:
        view = {
            "schema": ser.SCHEMA,
            "weight": list(lam),
            "strata": [ser.point_json(b) for b in strata],
            "eigen": ok,
        }
    else:
        view = [f"eigen identity: {'holds' if ok else 'FAILS'}"]
    return view, 0 if ok else 1
