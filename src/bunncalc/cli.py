"""Command-line front end: the argument parser and the dispatch to the views.

Exit codes: 0 success, 1 domain or budget error (violated precondition is
named), 2 parse/usage error, including an output path that cannot be
written, 141 (128 + SIGPIPE) when the reader closes stdout before the output
ends, as in ``bunncalc ... | head -1``; that case writes nothing to stderr.
Output is deterministic for fixed inputs; ``--json`` switches to
the machine schema, ``--ascii`` runs the text lines (and a ``--dot`` file)
through the one glyph table, ``bundles.ascii_text``.

Each command is one function in the ``view_*`` module of its layer.  It
computes its result once and returns only the view asked for: the JSON
document under ``--json``, else its text lines, or the pair (view, exit code)
when its exit code depends on the result.  ``main`` imports that module only
after the arguments parse, so a command loads only its layer, ``--help`` none,
and it imports ``json`` only to print a JSON document.

A start pays only for the command it runs: ``build_parser(argv)`` adds every
command's parser with its help line, so the top-level and group help pages
and the "invalid choice" errors list them all, but it adds options only to
the parser of the command that ``argv`` names.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

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
    "stalk_required": ("--stalk", {"required": True, "help": "stratum as a bundle expression"}),
    "strata": ("--strata", {"required": True, "help": "';'-separated bundle expressions"}),
    "target": ("--target", {"required": True, "help": "target stratum as a bundle"}),
    "json": ("--json", {"action": "store_true", "help": "emit the JSON schema"}),
    "ascii": ("--ascii", {"action": "store_true", "help": "plain-ASCII output"}),
}

_SHAPE = ("dims", "torsion")
_HECKE = _SHAPE + ("lam", "xi", "stalk")

# (command path, help, handler, option keys); the handler is "module.function"
# of the command's view; a tuple of keys is a required mutually exclusive
# group, and a row without a handler holds subcommands
_COMMANDS = [
    (("bundle",), "invariants of a bundle expression", "view_strata.cmd_bundle", ("expr",)),
    (("kottwitz",), "Newton point enumeration and poset", None, ()),
    (("kottwitz", "enum"), "points under a dominant cocharacter", "view_strata.cmd_enum",
     ("n", "mu", "dot")),
    (("kottwitz", "hasse"), "covering edges of the dominance order", "view_strata.cmd_hasse",
     ("n", "mu", "dot")),
    (("chi-to-b",), "stratum and sheaf symbol of a character", "view_characters.cmd_chi_to_b",
     _SHAPE + ("chi",)),
    (("b-to-chis",), "characters of a stratum", "view_characters.cmd_b_to_chis",
     _SHAPE + ("bundle",)),
    (("shape",), "component shape of a parameter skeleton", "view_characters.cmd_shape", _SHAPE),
    (("weights",), "weight multiplicities and branching", None, ()),
    (("weights", "mult"), "weight multiplicities", "view_weights.cmd_mult", ("n", "lam")),
    (("weights", "branch"), "restriction to a block Levi", "view_weights.cmd_branch",
     ("n", "lam", "blocks")),
    (("weights", "sigma"), "isotypic slice of a weight representation", "view_weights.cmd_sigma",
     _SHAPE + ("lam", "chi")),
    (("spectral",), "character action and operator decompositions", None, ()),
    (("spectral", "act"), "translate a canonical symbol by a character", "view_spectral.cmd_act",
     _SHAPE + ("chi", "xi")),
    (("spectral", "hecke"), "operator decomposition", "view_spectral.cmd_hecke", _HECKE),
    (("spectral", "stalk"), "operator decomposition restricted to a stratum",
     "view_spectral.cmd_hecke", _SHAPE + ("lam", "xi", "stalk_required")),
    (("spectral", "eigensheaf"), "eigen-stalk at a stratum", "view_spectral.cmd_eigensheaf",
     _SHAPE + ("bundle",)),
    (("spectral", "verify"), "termwise eigen identity on a stratum window",
     "view_spectral.cmd_verify", _SHAPE + ("lam", "strata")),
    (("hecke",), "alias for 'spectral hecke'", "view_spectral.cmd_hecke", _HECKE),
    (("shtuka",), "stalk of an operator with shift/twist ledger", "view_cohomology.cmd_shtuka",
     _SHAPE + ("xi", "target", ("mu_forward", "mu_inverse"))),
    (("hv",), "basic-stratum output with induction presentation", "view_cohomology.cmd_hv",
     _SHAPE + ("xi", "mu_inv")),
    (("boyer",), "factor a modification space along a split", "view_modif.cmd_boyer",
     ("b", "bprime", "mu", "split")),
    (("modif",), "rank-one modification sources / necessary checks", None, ()),
    (("modif", "targets"), "sources of an elementary modification",
     "view_modif.cmd_modif_targets", ("n", "nprime")),
    (("modif", "necessary"), "necessary-only existence checks",
     "view_modif.cmd_modif_necessary", ("b", "bprime", "mu")),
    (("igusa",), "middle-degree isotypic output at a stratum", "view_cohomology.cmd_igusa",
     _SHAPE + ("mu", "b_stratum")),
]


_PATHS = frozenset(path for path, _, _, _ in _COMMANDS)


def _add_option(parser, key: str) -> None:
    flag, kwargs = _OPTIONS[key]
    parser.add_argument(flag, **kwargs)


def _named_path(argv) -> tuple[str, ...]:
    """The command path that argv names: each command name in argv that is a
    subcommand of the path so far extends it.  The top-level and group parsers
    take no option with a value, so the first such name at each level is the
    one argparse dispatches on."""
    path: tuple[str, ...] = ()
    for token in argv:
        if path + (token,) in _PATHS:
            path += (token,)
    return path


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every command, with options only on the one argv names."""
    named = _named_path(argv)
    top = argparse.ArgumentParser(
        prog="bunncalc",
        description="exact slope calculus, Newton strata, and character/stratum "
        "bookkeeping for spectral Hecke actions",
    )
    subparsers = {(): top.add_subparsers(dest="command", required=True)}
    for path, help_text, view, keys in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], help=help_text)
        if view is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        if path != named:
            continue
        for key in keys + ("json", "ascii"):
            if isinstance(key, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in key:
                    _add_option(group, member)
            else:
                _add_option(p, key)
        p.set_defaults(view=view)
    return top


EXIT_BROKEN_PIPE = 141

_VECTOR_FLAGS = {"--mu", "--mu-inv", "--chi", "--xi", "--lambda", "--torsion", "--blocks",
                 "--dims"}


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
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    args = build_parser(argv).parse_args(argv)
    module, _, name = args.view.rpartition(".")
    command = getattr(import_module(f".{module}", __package__), name)
    from .bundles import BudgetError, DomainError, ParseError
    try:
        view = command(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    view, code = view if isinstance(view, tuple) else (view, 0)
    try:
        if isinstance(view, dict):
            import json

            print(json.dumps(view, indent=2))
        else:
            for line in view:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so that the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
