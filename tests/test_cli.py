import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

import bunncalc
from bunncalc.cli import _COMMANDS, EXIT_BROKEN_PIPE, _merge_negative_values, build_parser, main
from oracles import build_parser_oracle
from test_golden import CASES, README


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBundleCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "bundle", "O(3/4)+O(1/3)+O^3", "--ascii")
        assert code == 0
        assert "rank=10 deg=4" in out
        assert "(0,0) (4,3) (7,4) (10,4)" in out
        assert "D^x_{-3/4} x D^x_{-1/3} x GL_3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "bundle", "O(1/2)", "--json")
        data = json.loads(out)
        assert data["schema"] == "bunncalc/1"
        assert data["bundle"] == {"parts": [{"num": 1, "den": 2, "mult": 1}]}
        assert data["d"] == 0

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "bundle", "O(1/2)+junk")
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("text", ["O+O(" + "7" * 5000 + ")", "O+O^" + "7" * 5000])
    def test_overlong_number_exit_2(self, capsys, text):
        code, out, err = run(capsys, "bundle", text)
        assert code == 2 and out == ""
        assert "parse error: number too long in the term at position 2" in err

    def test_flagged_note_appears(self, capsys):
        code, out, _ = run(capsys, "bundle", "O(3/2)+O(1/2)+O(1/3)+O^3", "--ascii")
        assert code == 0 and "26" in out and "27" in out


class TestKottwitz:
    def test_enum_two_points(self, capsys):
        code, out, _ = run(capsys, "kottwitz", "enum", "-n", "2", "--mu", "1,0", "--ascii")
        assert code == 0
        assert out.splitlines()[0] == "2 points"
        assert "nu=(1,0) kappa=1 d=1" in out
        assert "nu=(1/2,1/2) kappa=1 d=0" in out

    def test_enum_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "out.dot"
        code, _, _ = run(
            capsys, "kottwitz", "enum", "-n", "3", "--mu", "1,0,0", "--dot", str(dot)
        )
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph") and text.count("->") == 2

    def test_enum_dot_at_1690_points(self, capsys, tmp_path):
        dot = tmp_path / "big.dot"
        code, out, _ = run(
            capsys, "kottwitz", "enum", "-n", "10", "--mu", "5,4,2,1,0,0,0,0,0,0",
            "--dot", str(dot),
        )
        assert code == 0 and out.splitlines()[0] == "1690 points"
        lines = dot.read_text().splitlines()
        assert sum("[label=" in line for line in lines) == 1690
        assert sum(" -> " in line for line in lines) == 5198

    def test_hasse(self, capsys):
        code, out, _ = run(capsys, "kottwitz", "hasse", "-n", "3", "--mu", "1,0,0", "--ascii")
        assert code == 0 and "2 covering edges" in out

    def test_non_dominant_rejected(self, capsys):
        code, _, err = run(capsys, "kottwitz", "enum", "-n", "2", "--mu", "0,1")
        assert code == 1 and "dominant" in err

    def test_rank_zero_rejected(self, capsys):
        code, out, err = run(capsys, "kottwitz", "enum", "-n", "0", "--mu", "0")
        assert code == 1 and out == ""
        assert "rank n must be >= 1, got 0" in err

    @pytest.mark.parametrize("command", ["enum", "hasse"])
    def test_unwritable_dot_path_exit_2(self, capsys, tmp_path, command):
        dot = str(tmp_path / "missing" / "x.dot")
        code, out, err = run(capsys, "kottwitz", command, "-n", "2", "--mu", "1,0", "--dot", dot)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and dot in err


class TestCharacterCommands:
    def test_chi_to_b(self, capsys):
        code, out, _ = run(
            capsys, "chi-to-b", "--dims", "4,1", "--chi", "2,0", "--ascii"
        )
        assert code == 0
        assert "O(1/2)^2+O" in out.replace(" + ", "+")
        assert "shift: -2" in out

    def test_b_to_chis(self, capsys):
        code, out, _ = run(
            capsys, "b-to-chis", "--dims", "1,1,1", "--bundle", "O(1)^2+O", "--json"
        )
        data = json.loads(out)
        assert data["chis"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_shape(self, capsys):
        code, out, _ = run(capsys, "shape", "--dims", "2,3", "--torsion", "2,3")
        assert code == 0 and "(t_1^2, t_2^3)" in out

    def test_shape_torsion_length_mismatch_exit_1(self, capsys):
        code, out, err = run(capsys, "shape", "--dims", "2,3", "--torsion", "1")
        assert code == 1 and out == "" and "torsion" in err

    @pytest.mark.parametrize(
        "argv", [["shape", "--dims", "-1,2"], ["chi-to-b", "--dims", "-1,1", "--chi", "2,0"]],
        ids=["shape", "chi-to-b"],
    )
    def test_negative_dims_reach_the_domain_check(self, capsys, argv):
        # like --torsion -1,2: the value is read, not taken for an option
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: component dimension must be >= 1, got -1\n"


class TestWeights:
    def test_mult(self, capsys):
        code, out, _ = run(capsys, "weights", "mult", "-n", "2", "--lambda", "3,0")
        assert code == 0 and out.splitlines()[0] == "dim 4"

    def test_sigma(self, capsys):
        code, out, _ = run(
            capsys,
            "weights",
            "sigma",
            "--dims",
            "1,1",
            "--lambda",
            "3,0",
            "--chi",
            "2,1",
            "--ascii",
        )
        assert code == 0 and "phi1^2(x)phi2" in out and "dim 1" in out

    def test_branch(self, capsys):
        code, out, _ = run(
            capsys, "weights", "branch", "-n", "4", "--lambda", "1,1,0,0", "--blocks", "2,2"
        )
        assert code == 0 and "3 terms" in out

    def test_budget_violation_exit_1(self, capsys):
        code, _, err = run(capsys, "weights", "mult", "-n", "2", "--lambda", "44,0")
        assert code == 1 and "budget" in err


class TestSpectral:
    def test_act(self, capsys):
        code, out, _ = run(
            capsys, "spectral", "act", "--dims", "1,1", "--chi", "1,0", "--xi", "0,0", "--ascii"
        )
        assert code == 0 and "shift: -1" in out

    def test_hecke_alias_matches_subcommand(self, capsys):
        args = ["--dims", "1,1", "--lambda", "3,0", "--xi", "0,0", "--json"]
        code1, out1, _ = run(capsys, "spectral", "hecke", *args)
        code2, out2, _ = run(capsys, "hecke", *args)
        assert code1 == code2 == 0 and out1 == out2

    def test_stalk_restriction(self, capsys):
        code, out, _ = run(
            capsys,
            "spectral",
            "stalk",
            "--dims",
            "1,1",
            "--lambda",
            "3,0",
            "--xi",
            "0,0",
            "--stalk",
            "O(2)+O(1)",
            "--json",
        )
        data = json.loads(out)
        assert len(data["terms"]) == 2

    def test_eigensheaf(self, capsys):
        code, out, _ = run(
            capsys, "spectral", "eigensheaf", "--dims", "1,1,1", "--bundle", "O(1)^2+O"
        )
        assert code == 0 and out.splitlines()[0].startswith("3 pieces")

    def test_verify(self, capsys):
        code, out, _ = run(
            capsys,
            "spectral",
            "verify",
            "--dims",
            "2,1",
            "--lambda",
            "1,0,0",
            "--strata",
            "O^3;O(1/2)+O;O(1)+O^2",
        )
        assert code == 0 and "holds" in out

    def run_verify_1_8(self, strata="O^8;O(1/8)", budget=None):
        # 12384 slices on the torus of rank 8, the one character of O^8 and
        # its 8 count states, and nothing of O(1/8): 12392 window lookups
        src = str(Path(bunncalc.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "BUNNCALC_BUDGET"}
        if budget is not None:
            env["BUNNCALC_BUDGET"] = str(budget)
        return subprocess.run(
            [sys.executable, "-m", "bunncalc.cli", "spectral", "verify",
             "--dims", "1,1,1,1,1,1,1,1", "--lambda", "4,3,2,1,0,0,0,0",
             "--strata", strata],
            capture_output=True, env={**env, "PYTHONPATH": src}, text=True, timeout=10,
        )

    def test_verify_out_of_budget_exits_1_at_once(self):
        proc = self.run_verify_1_8(budget=12391)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "12392 window lookups exceed budget of 12391" in proc.stderr
        proc = self.run_verify_1_8(budget=12392)
        assert proc.returncode == 0 and proc.stdout == "eigen identity: holds\n"

    def test_verify_torus_of_rank_eight_holds_at_default_budget(self):
        proc = self.run_verify_1_8()
        assert proc.returncode == 0 and proc.stdout == "eigen identity: holds\n"

    def test_verify_eight_characters_hold_at_default_budget(self):
        # 12384 slices x 8 characters + 15 count states = 99087 lookups
        proc = self.run_verify_1_8("O(1)+O^7")
        assert proc.returncode == 0 and proc.stdout == "eigen identity: holds\n"

    def test_verify_280_characters_refused_at_default_budget(self):
        # 12384 slices x 280 characters + 39 count states
        proc = self.run_verify_1_8("O(2)+O(1)^3+O^4")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: 3467559 window lookups exceed budget of 1000000\n"

    def test_verify_empty_window_exit_2(self, capsys):
        args = ["--dims", "1,1", "--lambda", "3,0", "--strata", ";"]
        code, out, err = run(capsys, "spectral", "verify", *args)
        assert code == 2 and out == "" and "parse error" in err

    def test_stalk_rank_mismatch_exit_1(self, capsys):
        args = ["--dims", "1,1", "--lambda", "3,0", "--xi", "0,0", "--stalk", "O^3"]
        code, out, err = run(capsys, "spectral", "stalk", *args)
        assert code == 1 and out == "" and "rank 3" in err


class TestShtukaCommands:
    def test_shtuka_worked_example(self, capsys):
        code, out, _ = run(
            capsys,
            "shtuka",
            "--dims",
            "1,1",
            "--xi",
            "-1,-2",
            "--mu-inv",
            "3,0",
            "--target",
            "O^2",
            "--json",
        )
        data = json.loads(out)
        assert len(data["pieces"]) == 1
        piece = data["pieces"][0]
        assert piece["sigma"]["display"] == "phi1(x)phi2^2"
        assert piece["shift"] == -1

    def test_hv_json_contains_piece_and_shift(self, capsys):
        code, out, _ = run(
            capsys, "hv", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0", "--json"
        )
        data = json.loads(out)
        piece = data["pieces"][0]
        assert piece["sigma"]["display"] == "phi1(x)phi2^2"
        assert piece["shift"] == -1

    def test_boyer(self, capsys):
        code, out, _ = run(
            capsys,
            "boyer",
            "--b",
            "O(3/4)+O(1/3)+O^3",
            "--bprime",
            "O(3/2)+O(1/2)+O(1/3)+O^3",
            "--mu",
            "1,0,0,0,0,0,0,0,0,0",
            "--split",
            "4",
            "--ascii",
        )
        assert code == 0
        assert "mu1=(1, 0, 0, 0)" in out
        assert "whole 27, parts 4 + 3" in out

    def test_boyer_inapplicable_exit_1(self, capsys):
        code, _, err = run(
            capsys,
            "boyer",
            "--b",
            "O^4",
            "--bprime",
            "O^4",
            "--mu",
            "1,0,0,0",
            "--split",
            "2",
        )
        assert code == 1 and "degree mismatch" in err

    def test_modif_targets(self, capsys):
        code, out, _ = run(capsys, "modif", "targets", "-n", "5", "--nprime", "3", "--ascii")
        assert code == 0
        assert out.splitlines()[0] == "3 sources"
        assert "O(1/3)+O+O(-1)" in out

    def test_modif_necessary(self, capsys):
        code, out, _ = run(
            capsys,
            "modif",
            "necessary",
            "--b",
            "O^5",
            "--bprime",
            "O(1/5)",
            "--mu",
            "1,0,0,0,0",
        )
        assert code == 0 and "pass" in out

    def test_igusa(self, capsys):
        code, out, _ = run(
            capsys,
            "igusa",
            "--dims",
            "1,1,1",
            "--mu",
            "1,0,0",
            "--b",
            "O(1)+O^2",
            "--ascii",
        )
        assert code == 0 and "middle degree 2" in out and "3 pieces" in out

    def test_igusa_inadmissible_exit_1(self, capsys):
        code, _, err = run(
            capsys, "igusa", "--dims", "1,1", "--mu", "1,0", "--b", "O(5)+O(-4)"
        )
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bundle", "O(3/4)+O(1/3)+O^3", "--json"),
            ("kottwitz", "enum", "-n", "4", "--mu", "1,1,0,0", "--json"),
            ("hecke", "--dims", "2,1", "--lambda", "1,0,0", "--xi", "0,0", "--json"),
            ("hv", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0", "--json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestDispatch:
    def test_every_handler_resolves(self):
        handlers = [view for _, _, view, _ in _COMMANDS if view is not None]
        assert len(handlers) == 19 + 2  # spectral hecke and stalk share the alias's view
        for view in handlers:
            module, _, name = view.rpartition(".")
            assert callable(getattr(import_module(f"bunncalc.{module}"), name)), view


def parse_outcome(parser, argv):
    """The namespace, or the exit code, and what parsing argv printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:  # --help and usage errors
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def options_by_path(parser, path=()):
    """The option destinations of each command path that has any, --help aside."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(options_by_path(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            out.setdefault(path, []).append(action.dest)
    return out


# every argv of the golden corpus (README and extra commands, errors, help
# pages) and the usage errors argparse reports before any command is named
PARSED = list(CASES.values()) + [
    [], ["nope"], ["kottwitz"], ["kottwitz", "nope"], ["-x", "bundle", "O"],
    ["bundle", "O", "--json", "--nope"], ["shtuka", "--help", "--mu", "1,0"],
]


class TestParser:
    """The parser built for the command named parses as the parser with the
    options of every command does."""

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_parses_as_the_all_commands_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = _merge_negative_values(argv)
        assert parse_outcome(build_parser(argv), argv) == parse_outcome(build_parser_oracle(), argv)

    def test_options_only_for_the_named_command(self):
        every = options_by_path(build_parser_oracle())
        assert len(every) == 21
        for path, dests in every.items():
            assert options_by_path(build_parser([*path, "--json"])) == {path: dests}
        assert options_by_path(build_parser(["--help"])) == {}


# today's package exports, each resolved lazily from its submodule
EXPORTS = [
    "BoyerFactorization", "BudgetError", "BundleSpec", "Character", "CharacterExponents",
    "CohomologyOutput", "DomainError", "EigensheafStalk", "HeckeDecomposition", "IgusaOutput",
    "InnerFormGroup", "LParamShape", "NewtonPoint", "ParseError", "RepSymbol", "SheafSymbol",
    "Slope", "WeilSymbol", "ascii_text", "automorphism_group", "b_to_bundle", "b_to_chis",
    "boyer_factorize", "bundle", "bundle_to_b", "chi_id", "chi_inv", "chi_mul", "chi_to_bundle",
    "chi_to_rep", "component_shape", "d_point", "dot_export", "dual_weight", "eigensheaf_stalk",
    "enumerate_B", "format_bundle", "harris_viehmann", "hasse", "hecke", "hn_polygon",
    "igusa_cohomology", "kappa_exponents", "leq", "levi_branching", "make_F", "mantovan_pieces",
    "modification_necessary", "modification_targets_rank_one", "modulus_exponents",
    "normalize_bundle", "parabolic_type", "parse_bundle", "point_from_vector", "reduce_slope",
    "rho_pairing", "shtuka_cohomology", "sigma_chi", "spectral_act", "stalk", "verify_eigen",
    "weight_multiplicities", "weyl_dim",
]

# runs main(argv) in a fresh interpreter, then prints every module loaded;
# it imports nothing itself, so that what it reports is what main loaded
LOADED_PROBE = """
import sys
from bunncalc.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(" ".join(sorted(sys.modules)))
"""


def loaded_modules(argv, cwd=None):
    src = str(Path(bunncalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv], cwd=cwd,
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True, check=True,
    )
    return proc.stdout.splitlines()[-1].split()


class TestLazyLoading:
    """Which modules a command loads, counted in a fresh interpreter."""

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_bundle_loads_only_its_layer(self, extra):
        loaded = loaded_modules(["bundle", "O(1/2)", *extra])
        assert "bunncalc.view_strata" in loaded
        for layer in ("lparams", "weights", "spectral", "shtuka"):
            assert f"bunncalc.{layer}" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["boyer", "--b", "O(3/4)+O(1/3)+O^3", "--bprime", "O(3/2)+O(1/2)+O(1/3)+O^3",
             "--mu", "1,0,0,0,0,0,0,0,0,0", "--split", "4"],
            ["modif", "targets", "-n", "5", "--nprime", "3"],
            ["modif", "necessary", "--b", "O^5", "--bprime", "O(1/5)", "--mu", "1,0,0,0,0"],
        ],
        ids=["boyer", "modif-targets", "modif-necessary"],
    )
    def test_modification_commands_load_no_cohomology(self, argv):
        loaded = loaded_modules(argv)
        assert "bunncalc.modif" in loaded and "bunncalc.view_modif" in loaded
        for layer in ("shtuka", "spectral", "lparams"):
            assert f"bunncalc.{layer}" not in loaded

    def test_help_loads_no_view(self):
        loaded = loaded_modules(["--help"])
        assert [m for m in loaded if m.startswith("bunncalc")] == ["bunncalc", "bunncalc.cli"]

    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize("name", list(README))
    def test_readme_command_loads_only_what_it_uses(self, name, mode, tmp_path):
        loaded = set(loaded_modules(README[name] + (["--json"] if mode == "json" else []), tmp_path))
        assert "bunncalc.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}
        if mode == "text":
            assert "json" not in loaded
        if name in ("boyer", "modif-targets", "modif-necessary"):
            assert "bunncalc.weights" not in loaded
        if name in ("weights-mult", "weights-branch"):
            assert "bunncalc.lparams" not in loaded
        if name in ("shtuka", "hv", "igusa"):
            assert "bunncalc.modif" not in loaded

    def test_exports_unchanged(self):
        assert sorted(bunncalc.__all__) == EXPORTS
        assert set(EXPORTS) <= set(dir(bunncalc))
        assert all(getattr(bunncalc, name) is not None for name in EXPORTS)
        assert bunncalc.hecke is import_module("bunncalc.spectral").hecke
        with pytest.raises(AttributeError):
            bunncalc.no_such_name


class TestBudgetEnv:
    def test_budget_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "1")
        code, _, err = run(capsys, "kottwitz", "enum", "-n", "4", "--mu", "2,1,0,0")
        assert code == 1 and "budget" in err

    @pytest.mark.parametrize(
        "argv,quantity",
        [
            (("bundle", "O(1/99999999999)"), "bundle rank 99999999999"),
            (("bundle", "O(1/2)^99999999999"), "bundle rank 199999999998"),
            (("modif", "targets", "-n", "100000000", "--nprime", "1"), "100000000 modification sources"),
        ],
    )
    def test_oversized_input_fails_at_once(self, capsys, argv, quantity):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert quantity in err and "budget of 1000000" in err

    @pytest.mark.parametrize(
        "argv,quantity",
        [
            (("chi-to-b", "--dims", "99999999999", "--chi", "1"), "shape rank 99999999999"),
            # the root alone has 1000001 completable children: the first
            # segments rising 1000001..2000000 and the chord to (2, 2000000)
            (("kottwitz", "enum", "-n", "2", "--mu", "2000000,0"), "1000001 search nodes"),
            # 84335 points pass the search budget; their down-sets are refused
            (("kottwitz", "hasse", "-n", "3", "--mu", "1000,0,0"), "6945695 kibibits"),
        ],
    )
    def test_oversized_work_fails_before_it_starts(self, capsys, argv, quantity):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert quantity in err and "budget of 1000000" in err

    def test_oversized_search_allocates_no_stack(self, capsys):
        # charged before any child is pushed: a million pushed nodes would
        # take tens of MB
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "kottwitz", "enum", "-n", "2", "--mu", "2000000,0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == "" and "budget of 1000000" in err
        assert peak < 1_000_000

    def test_bad_budget_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BUNNCALC_BUDGET", "soon")
        code, _, err = run(capsys, "kottwitz", "enum", "-n", "2", "--mu", "1,0")
        assert code == 1


class TestBrokenPipe:
    """A reader that stops early, as ``bunncalc ... | head -1`` does."""

    # 50388 weight lines, far more than a pipe buffers
    ARGV = ["weights", "mult", "-n", "8", "--lambda", "12,0,0,0,0,0,0,0"]

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_closed_stdout_exits_quietly(self, extra, tmp_path):
        src = str(Path(bunncalc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        err = tmp_path / "stderr"
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "bunncalc.cli", *self.ARGV, *extra],
                stdout=subprocess.PIPE,
                stderr=err_file,
                env=env,
            )
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert code == EXIT_BROKEN_PIPE
        assert first in (b"dim 50388\n", b"{\n")
        assert err.read_bytes() == b""
