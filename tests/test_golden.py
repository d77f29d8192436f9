"""Golden corpus: what the CLI and the walkthrough scripts print, byte for byte.

Each CLI case records its exit code, stdout, stderr and, when it writes one,
its ``--dot`` file; every parser's ``--help`` page is recorded at
``COLUMNS=80``.  Cases run in-process through ``bunncalc.cli.main``.  The
help pages are argparse's rendering, so they are tied to the Python version
the corpus was recorded with (3.11).

Re-record, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py --record [NAME ...]

A bare ``--record`` rewrites the whole corpus.  Given names, it rewrites only
those cases and their ``codes.json`` entries and leaves every other file
byte-untouched; a name is a case id (``hecke.json``, ``help.shtuka``,
``script.NAME``) or a case name without its mode, which stands for its
text, ``--ascii`` and ``--json`` cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

import bunncalc.serialize as ser
from bunncalc import ascii_text, dot_export, enumerate_B
from bunncalc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parent.parent / "scripts"
CODES = GOLDEN / "codes.json"
DOT = "poset.dot"

README = {
    "bundle": ["bundle", "O(3/4)+O(1/3)+O^3"],
    "kottwitz-enum": ["kottwitz", "enum", "-n", "10", "--mu", "1,0,0,0,0,0,0,0,0,0", "--dot", DOT],
    "kottwitz-hasse": ["kottwitz", "hasse", "-n", "3", "--mu", "1,0,0"],
    "chi-to-b": ["chi-to-b", "--dims", "4,1", "--chi", "2,0"],
    "b-to-chis": ["b-to-chis", "--dims", "1,1,1", "--bundle", "O(1)^2+O"],
    "shape": ["shape", "--dims", "2,3", "--torsion", "2,3"],
    "weights-mult": ["weights", "mult", "-n", "2", "--lambda", "3,0"],
    "weights-branch": ["weights", "branch", "-n", "4", "--lambda", "1,1,0,0", "--blocks", "2,2"],
    "weights-sigma": ["weights", "sigma", "--dims", "1,1", "--lambda", "3,0", "--chi", "2,1"],
    "spectral-act": ["spectral", "act", "--dims", "1,1", "--chi", "1,0", "--xi", "0,0"],
    "hecke": ["hecke", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0", "--stalk", "O(2)+O(1)"],
    "spectral-eigensheaf": ["spectral", "eigensheaf", "--dims", "1,1,1", "--bundle", "O(1)^2+O"],
    "spectral-verify": ["spectral", "verify", "--dims", "2,1", "--lambda", "1,0,0",
                        "--strata", "O^3;O(1/2)+O;O(1)+O^2"],
    "shtuka": ["shtuka", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0", "--target", "O^2"],
    "hv": ["hv", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0"],
    "boyer": ["boyer", "--b", "O(3/4)+O(1/3)+O^3", "--bprime", "O(3/2)+O(1/2)+O(1/3)+O^3",
              "--mu", "1,0,0,0,0,0,0,0,0,0", "--split", "4"],
    "modif-targets": ["modif", "targets", "-n", "5", "--nprime", "3"],
    "modif-necessary": ["modif", "necessary", "--b", "O^5", "--bprime", "O(1/5)",
                        "--mu", "1,0,0,0,0"],
    "igusa": ["igusa", "--dims", "1,1,1", "--mu", "1,0,0", "--b", "O(1)+O^2"],
}

EXTRA = {
    "spectral-hecke": ["spectral", "hecke", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0"],
    "spectral-stalk": ["spectral", "stalk", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0",
                       "--stalk", "O(3)+O"],
    "shtuka-mu": ["shtuka", "--dims", "1,1", "--xi", "-1,-2", "--mu", "3,0",
                  "--target", "O(1)+O(-1)"],
    "bundle-flagged": ["bundle", "O(3/2)+O(1/2)+O(1/3)+O^3"],
    "weights-mult-negative": ["weights", "mult", "-n", "3", "--lambda", "-1,-2,-4"],
    "kottwitz-hasse-dot": ["kottwitz", "hasse", "-n", "4", "--mu", "1,1,0,0", "--dot", DOT],
    "weights-sigma-multiple": ["weights", "sigma", "--dims", "1,1,1", "--lambda", "2,1,0",
                               "--chi", "1,1,1"],
    "weights-sigma-sym": ["weights", "sigma", "--dims", "2,1", "--lambda", "2,0,0", "--chi", "2,0"],
    "weights-sigma-schur": ["weights", "sigma", "--dims", "3", "--lambda", "2,1,0", "--chi", "3"],
    "weights-sigma-empty": ["weights", "sigma", "--dims", "1,1", "--lambda", "3,0", "--chi", "5,0"],
    "weights-sigma-wide": ["weights", "sigma", "--dims", "4,4", "--lambda", "6,3,0,-1,-1,-1,-1,-1",
                           "--chi", "2,2"],
    "hv-induced": ["hv", "--dims", "2", "--xi", "1", "--mu-inv", "0,-1"],
    "spectral-stalk-box-miss": ["spectral", "stalk", "--dims", "1,1", "--lambda", "4,0",
                                "--xi", "0,0", "--stalk", "O(2)+O(1)"],
    "shtuka-empty": ["shtuka", "--dims", "1,1", "--xi", "0,0", "--mu", "4,0",
                     "--target", "O(2)+O(1)"],
}

MODES = {"text": [], "ascii": ["--ascii"], "json": ["--json"]}

ERRORS = {
    "error-parse-bundle": ["bundle", "O(1/2)+junk"],
    "error-parse-ints": ["weights", "mult", "-n", "2", "--lambda", "3,x"],
    "error-usage-shtuka": ["shtuka", "--dims", "1,1", "--xi", "0,0", "--target", "O^2"],
    "error-domain-enum": ["kottwitz", "enum", "-n", "2", "--mu", "0,1"],
    "error-domain-rank": ["igusa", "--dims", "1,1", "--mu", "1,0", "--b", "O^3"],
    "error-usage-spectral-stalk": ["spectral", "stalk", "--dims", "1,1", "--lambda", "3,0",
                                   "--xi", "0,0"],
}

PARSERS = [
    [],
    ["bundle"],
    ["kottwitz"], ["kottwitz", "enum"], ["kottwitz", "hasse"],
    ["chi-to-b"], ["b-to-chis"], ["shape"],
    ["weights"], ["weights", "mult"], ["weights", "branch"], ["weights", "sigma"],
    ["spectral"], ["spectral", "act"], ["spectral", "hecke"], ["spectral", "stalk"],
    ["spectral", "eigensheaf"], ["spectral", "verify"],
    ["hecke"], ["shtuka"], ["hv"], ["boyer"],
    ["modif"], ["modif", "targets"], ["modif", "necessary"],
    ["igusa"],
]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, argv in {**README, **EXTRA}.items():
        for mode, flags in MODES.items():
            cases[f"{name}.{mode}"] = argv + flags
    cases.update(ERRORS)
    for path in PARSERS:
        cases["help." + ("-".join(path) or "bunncalc")] = path + ["--help"]
    return cases


CASES = _cases()
SCRIPT_NAMES = sorted(p.stem for p in SCRIPTS.glob("*.py"))


@contextlib.contextmanager
def _captured(workdir: Path):
    """Run in workdir at COLUMNS=80, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            yield out, err
    finally:
        os.chdir(old_cwd)
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns


def run_case(argv: list[str], workdir: Path) -> dict[str, object]:
    """Exit code and the bytes of stdout, stderr and the --dot file (if any)."""
    dot = workdir / DOT
    if dot.exists():
        dot.unlink()
    with _captured(workdir) as (out, err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return {
        "code": code,
        "out": out.getvalue().encode(),
        "err": err.getvalue().encode(),
        "dot": dot.read_bytes() if dot.exists() else None,
    }


def run_script(name: str, workdir: Path, *args: str) -> bytes:
    old_argv = sys.argv
    sys.argv = [str(SCRIPTS / f"{name}.py"), *args]
    try:
        with _captured(workdir) as (out, _):
            runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        sys.argv = old_argv
    return out.getvalue().encode()


def _golden(case_id: str, suffix: str) -> bytes | None:
    path = GOLDEN / f"{case_id}.{suffix}"
    return path.read_bytes() if path.exists() else None


def check_case(case_id: str, workdir: Path) -> None:
    got = run_case(CASES[case_id], workdir)
    assert got["code"] == json.loads(CODES.read_text())[case_id]
    assert got["out"] == _golden(case_id, "out")
    assert got["err"] == (_golden(case_id, "err") or b"")
    assert got["dot"] == _golden(case_id, "dot")


@pytest.mark.parametrize("case_id", list(CASES))
def test_cli_case(case_id, tmp_path):
    check_case(case_id, tmp_path)


@pytest.mark.parametrize("name", SCRIPT_NAMES)
def test_script(name, tmp_path):
    assert run_script(name, tmp_path) == _golden(f"script.{name}", "out")


def test_poset_gallery_dot_files(tmp_path):
    """--dot-dir writes each gallery poset's digraph, spelled in ASCII."""
    run_script("poset_gallery", tmp_path, "--dot-dir", str(tmp_path))
    paths = sorted(tmp_path.glob("poset_n*.dot"))
    assert len(paths) == 4
    for path in paths:
        n, *mu = map(int, path.stem.removeprefix("poset_n").split("_"))
        want = ascii_text(dot_export(enumerate_B(n, tuple(mu))))
        assert want.isascii() and path.read_bytes() == want.encode()


def test_text_views_do_not_serialize(monkeypatch, tmp_path):
    """Text output is built without any JSON view."""

    def refuse(name):
        def raiser(*_args, **_kwargs):
            raise AssertionError(f"text mode called serialize.{name}")
        return raiser

    for name, fn in list(vars(ser).items()):
        public = not name.startswith("_") and getattr(fn, "__module__", None) == ser.__name__
        if callable(fn) and public:
            monkeypatch.setattr(ser, name, refuse(name))
    for case_id, argv in CASES.items():
        if "--json" not in argv:
            check_case(case_id, tmp_path)


def test_selective_record_rewrites_only_named_cases(monkeypatch, tmp_path):
    """--record NAME rewrites the named cases and their codes and leaves every
    other golden file untouched; an unknown name is refused."""
    corpus = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}
    golden = tmp_path / "golden"
    golden.mkdir()
    for name, data in corpus.items():
        (golden / name).write_bytes(data)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    monkeypatch.setattr(sys.modules[__name__], "CODES", golden / "codes.json")
    named = ["shtuka-empty.json", "shtuka-empty.text", "shtuka-empty.ascii", "help.shtuka"]
    codes = json.loads(corpus["codes.json"])
    for case_id in named:
        (golden / f"{case_id}.out").unlink()
        del codes[case_id]
    (golden / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    (golden / "hecke.text.err").write_bytes(b"stale")
    written = {"codes.json", "hecke.text.out", "hecke.text.err"}
    before = {p.name: p.stat().st_mtime_ns for p in golden.iterdir() if p.name not in written}
    record(["shtuka-empty", "help.shtuka", "hecke.text"])
    assert corpus == {p.name: p.read_bytes() for p in golden.iterdir()}
    assert all((golden / name).stat().st_mtime_ns == ns for name, ns in before.items())
    with pytest.raises(SystemExit, match="no golden case named 'nosuch'"):
        record(["nosuch"])


def _write_case(case_id: str, got: dict[str, object]) -> None:
    """Write a case's files; an empty stderr or no --dot file leaves none."""
    for suffix, data in (("out", got["out"]), ("err", got["err"] or None), ("dot", got["dot"])):
        path = GOLDEN / f"{case_id}.{suffix}"
        if data is not None:
            path.write_bytes(data)
        elif path.exists():
            path.unlink()


def record(names: list[str] | None = None) -> None:
    """Re-record every case, or only the cases the names select."""
    if names is None:
        GOLDEN.mkdir(exist_ok=True)
        for path in GOLDEN.iterdir():
            path.unlink()
        codes, case_ids, scripts = {}, list(CASES), SCRIPT_NAMES
    else:
        codes, case_ids, scripts = json.loads(CODES.read_text()), [], []
        for name in names:
            if name.startswith("script.") and name[7:] in SCRIPT_NAMES:
                scripts.append(name[7:])
                continue
            picked = [c for c in CASES if c in (name, *(f"{name}.{mode}" for mode in MODES))]
            if not picked:
                raise SystemExit(f"no golden case named {name!r}")
            case_ids += picked
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for case_id in dict.fromkeys(case_ids):
            got = run_case(CASES[case_id], workdir)
            codes[case_id] = got["code"]
            _write_case(case_id, got)
        for name in scripts:
            (GOLDEN / f"script.{name}.out").write_bytes(run_script(name, workdir))
    CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [NAME ...]")
    record(sys.argv[2:] or None)
