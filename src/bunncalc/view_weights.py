"""Views of the weight commands: ``weights mult``, ``weights branch`` and
``weights sigma``."""

from __future__ import annotations

from . import serialize as ser
from .view_characters import shape_of
from .view_strata import ints, text
from .weights import levi_branching, sigma_chi, weight_multiplicities


def cmd_mult(args):
    lam = ints(args.lam)
    mults = weight_multiplicities(args.n, lam)
    dim = sum(mults.values())
    items = sorted(mults.items(), reverse=True)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "n": args.n,
            "weight": list(lam),
            "dim": dim,
            "multiplicities": [{"weight": list(w), "mult": m} for w, m in items],
        }
    return [f"dim {dim}"] + [f"{w}: {m}" for w, m in items]


def cmd_branch(args):
    lam = ints(args.lam)
    blocks = ints(args.blocks)
    terms = levi_branching(args.n, lam, blocks)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "n": args.n,
            "weight": list(lam),
            "blocks": list(blocks),
            "terms": [{"weights": [list(w) for w in ws], "mult": m} for ws, m in terms],
        }
    return [f"{len(terms)} terms"] + [
        f"{' x '.join(str(w) for w in ws)}  mult {m}" for ws, m in terms
    ]


def cmd_sigma(args):
    shape = shape_of(args)
    lam = ints(args.lam)
    chi = ints(args.chi)
    sym = sigma_chi(shape, lam, chi)
    if args.json:
        return {
            "schema": ser.SCHEMA,
            "shape": ser.shape_json(shape),
            "weight": list(lam),
            "chi": list(chi),
            "sigma": ser.weil_json(sym),
        }
    return text(args, [f"sigma = {sym.describe()}", f"dim {sym.dim}"])
