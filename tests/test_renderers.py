"""The integer slope renderers against the Fraction renderers they replaced,
and a count of the Fractions each README command builds.

Bundles, Newton points, automorphism groups and representation symbols
store integer segments, and ``bundles.slope_str(rise, run)`` renders their
slopes, so from parse to print no ``Fraction`` is built; the only ones left
on the README commands are the rational ledger values the cohomology
commands return.
"""

import contextlib
import io
import pkgutil
from fractions import Fraction
from importlib import import_module
from itertools import product

import pytest
from hypothesis import given

import bunncalc
from bunncalc.bundles import ascii_text, bundle_to_json, format_bundle, parse_bundle, slope_str
from bunncalc.cli import main
from bunncalc.kottwitz import (
    automorphism_group,
    b_to_bundle,
    dot_export,
    enumerate_B,
    point_from_vector,
)
from bunncalc.lparams import LParamShape, chi_to_rep
from bunncalc.modif import boyer_factorize
from bunncalc.serialize import group_json
from conftest import bundle_specs, fractions_built
from oracles import (
    bundle_to_json_oracle,
    format_bundle_oracle,
    group_describe_oracle,
    group_factors_oracle,
    group_json_factors_oracle,
    rep_describe_oracle,
    slope_str_oracle,
)
from test_golden import MODES, README

# the ClassVar Fractions of the symbol classes are built at import, not per call
for _module in pkgutil.iter_modules(bunncalc.__path__):
    import_module(f"bunncalc.{_module.name}")


class TestAgainstFractionRenderers:
    def test_slope_str(self):
        for rise, run in product(range(-12, 13), range(1, 13)):
            assert slope_str(rise, run) == slope_str_oracle(Fraction(rise, run)), (rise, run)

    @given(bundle_specs())
    def test_bundle_and_group(self, spec):
        for pretty in (False, True):
            assert format_bundle(spec, pretty) == format_bundle_oracle(spec, pretty)
        assert bundle_to_json(spec) == bundle_to_json_oracle(spec)
        group, factors = automorphism_group(spec), group_factors_oracle(spec)
        for ascii_mode, spell in ((False, str), (True, ascii_text)):
            assert spell(group.describe()) == group_describe_oracle(factors, ascii_mode)
        assert group_json(group)["factors"] == group_json_factors_oracle(factors)

    @pytest.mark.parametrize("r", range(1, 4))
    def test_every_small_character(self, r):
        for dims in product(range(1, 4), repeat=r):
            shape = LParamShape.from_dims(dims)
            for chi in product(range(-3, 4), repeat=r):
                rep = chi_to_rep(shape, chi)
                factors = group_factors_oracle(b_to_bundle(rep.stratum))
                for ascii_mode, spell in ((False, str), (True, ascii_text)):
                    want = rep_describe_oracle(rep, shape, ascii_mode)
                    assert spell(rep.describe(shape)) == want, (dims, chi)
                    want = group_describe_oracle(factors, ascii_mode)
                    assert spell(rep.group.describe()) == want, (dims, chi)


# the rational ledger values a command returns, as (least, most) Fractions
# built: shtuka's Tate twist; hv's Tate twist and zero half-modulus exponent;
# igusa's Mantovan twist, once as a value and once in its text
LEDGER = {"shtuka": (1, 1), "hv": (2, 2), "igusa": (0, 2)}

README_BUNDLES = [
    "O(3/4)+O(1/3)+O^3",
    "O(1)^2+O",
    "O(2)+O(1)",
    "O^3",
    "O(1/2)+O",
    "O(1)+O^2",
    "O^2",
    "O(3/2)+O(1/2)+O(1/3)+O^3",
    "O^5",
    "O(1/5)",
]


class TestNoFractionBuilt:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", sorted(README))
    def test_readme_command(self, name, mode, tmp_path, monkeypatch):
        # kottwitz enum writes its --dot file to the working directory
        monkeypatch.chdir(tmp_path)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(README[name] + MODES[mode]) == 0

        least, most = LEDGER.get(name, (0, 0))
        assert least <= fractions_built(run) <= most

    def test_dot_export(self):
        pts = enumerate_B(8, (3, 3, 3, 3, 3, 2, 1, 0))
        assert len(pts) == 122
        assert fractions_built(lambda: dot_export(pts)) == 0

    def test_parse_format_and_boyer(self):
        def run():
            for text in README_BUNDLES:
                format_bundle(parse_bundle(text))
                format_bundle(parse_bundle(text), pretty=True)
            b, bprime = parse_bundle(README_BUNDLES[0]), parse_bundle(README_BUNDLES[7])
            boyer_factorize(b, bprime, (1,) + (0,) * 9, 4)

        assert fractions_built(run) == 0

    def test_point_from_integer_vector(self):
        vec = (0, 0, -1)
        assert fractions_built(lambda: point_from_vector(vec)) == 0
        assert point_from_vector(vec) == point_from_vector([Fraction(x) for x in vec])
        assert point_from_vector(vec).segments == ((0, 2), (-1, 1))
