"""The frozen records of ``bundles.record`` against ``dataclasses`` twins.

Each record class is checked against ``oracles.dataclass_twin`` of it, the
frozen dataclass it replaces: equality, hash and repr, the refusal to assign
or delete, construction by position, keyword and default, the fields left
after the ``ClassVar``s, and ``__post_init__``.  The instances are the values
the README commands build and values drawn from the shared strategies.
"""

from __future__ import annotations

import dataclasses
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bunncalc
from bunncalc import (
    BoyerFactorization,
    BundleSpec,
    CharacterExponents,
    CohomologyOutput,
    DomainError,
    EigensheafStalk,
    HeckeDecomposition,
    IgusaOutput,
    InnerFormGroup,
    LParamShape,
    NewtonPoint,
    RepSymbol,
    SheafSymbol,
    WeilSymbol,
    automorphism_group,
    boyer_factorize,
    bundle_to_b,
    component_shape,
    dual_weight,
    eigensheaf_stalk,
    enumerate_B,
    harris_viehmann,
    hecke,
    igusa_cohomology,
    make_F,
    mantovan_pieces,
    modulus_exponents,
    parse_bundle,
    shtuka_cohomology,
    sigma_chi,
)
from bunncalc.lparams import ComponentShape
from bunncalc.shtuka import CohomologyPiece, MantovanPiece
from conftest import bundle_specs, shape_and_chi
from oracles import dataclass_twin

RECORDS = [
    BundleSpec, NewtonPoint, InnerFormGroup, CharacterExponents, LParamShape, RepSymbol,
    SheafSymbol, ComponentShape, BoyerFactorization, CohomologyPiece, CohomologyOutput,
    IgusaOutput, MantovanPiece, HeckeDecomposition, EigensheafStalk, WeilSymbol,
]
TWINS = {cls: dataclass_twin(cls) for cls in RECORDS}


def twin(x):
    """The dataclass twin of the record x, holding the same field values."""
    return TWINS[type(x)](*(getattr(x, name) for name in type(x).__match_args__))


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised; the dataclass
    ``FrozenInstanceError`` counts as the ``AttributeError`` it subclasses."""
    try:
        return "value", fn(*args)
    except AttributeError as exc:
        return "raised", AttributeError, str(exc)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


def readme_records() -> list:
    """The stored values behind the README commands, one or more per class."""
    b = parse_bundle("O(3/4)+O(1/3)+O^3")
    shape = LParamShape.from_dims((1, 1))
    shape3 = LParamShape.from_dims((1, 1, 1))
    sheaf = make_F(LParamShape.from_dims((4, 1)), (2, 0))
    dec = hecke(shape, (3, 0), make_F(shape, (0, 0)))
    cohomology = [
        shtuka_cohomology(shape, (-1, -2), bundle_to_b(parse_bundle("O^2")), dual_weight((3, 0)),
                          "inverse"),
        harris_viehmann(shape, (-1, -2), (3, 0)),
        # a minuscule cocharacter: the piece carries its induction presentation
        harris_viehmann(LParamShape.from_dims((3, 2)), (1, 1), (0, 0, 0, -1, -1)),
    ]
    b3 = bundle_to_b(parse_bundle("O(1)+O^2"))
    return [
        b, bundle_to_b(b), automorphism_group(b), modulus_exponents(b),
        *enumerate_B(10, (1,) + (0,) * 9),
        shape, sheaf, sheaf.rep,
        component_shape(LParamShape.from_dims((2, 3), torsion=(2, 3))),
        sigma_chi(shape, (3, 0), (2, 1)),
        dec, *(term for _, term, _ in dec.terms), *(sym for _, _, sym in dec.terms),
        eigensheaf_stalk(shape3, bundle_to_b(parse_bundle("O(1)^2+O"))),
        *cohomology, *(piece for out in cohomology for piece in out.pieces),
        boyer_factorize(b, parse_bundle("O(3/2)+O(1/2)+O(1/3)+O^3"), (1,) + (0,) * 9, 4),
        igusa_cohomology(shape3, (1, 0, 0), b3),
        mantovan_pieces(shape3, (1, 0, 0), b3),
    ]


README_RECORDS = readme_records()


def check_agrees(values: list) -> None:
    """Each record and its twin agree on hash and repr, and every pair of
    records compares as the pair of their twins does."""
    twins = [twin(x) for x in values]
    for x, t in zip(values, twins):
        assert outcome(hash, x) == outcome(hash, t)
        assert repr(x) == repr(t)
    for x, tx in zip(values, twins):
        for y, ty in zip(values, twins):
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)


def test_every_record_class_is_checked():
    package = Path(bunncalc.__file__).parent
    found = {
        obj
        for path in package.glob("*.py")
        for obj in vars(import_module(f"bunncalc.{path.stem}")).values()
        if isinstance(obj, type) and "__match_args__" in vars(obj)
    }
    assert found == set(RECORDS)
    assert {type(x) for x in README_RECORDS} == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_leave_out_class_vars(cls):
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(TWINS[cls]))


def test_class_vars_stay_on_the_class():
    sheaf = next(x for x in README_RECORDS if type(x) is SheafSymbol)
    assert SheafSymbol.__match_args__ == ("rep",)
    assert sheaf.modulus_half_exponent == twin(sheaf).modulus_half_exponent
    igusa = next(x for x in README_RECORDS if type(x) is IgusaOutput)
    assert IgusaOutput.__match_args__ == ("stratum", "degree", "pieces")
    assert (igusa.multiplicity_symbol, igusa.notes) == (twin(igusa).multiplicity_symbol,
                                                       twin(igusa).notes)


def test_readme_records_agree():
    check_agrees(README_RECORDS)


@settings(max_examples=60)
@given(st.lists(bundle_specs(), min_size=2, max_size=3))
def test_bundle_records_agree(specs):
    values = []
    for b in specs:
        values += [b, bundle_to_b(b), automorphism_group(b), modulus_exponents(b)]
    check_agrees(values + [BundleSpec(specs[0].segments)])


@settings(max_examples=60)
@given(st.lists(shape_and_chi(max_r=3, max_dim=3), min_size=2, max_size=3))
def test_symbol_records_agree(drawn):
    values = []
    for shape, chi in drawn:
        sheaf = make_F(shape, chi)
        values += [shape, sheaf, sheaf.rep, component_shape(shape)]
    check_agrees(values)


@pytest.mark.parametrize("x", README_RECORDS, ids=lambda x: type(x).__name__)
def test_assignment_and_deletion_refused(x):
    t = twin(x)
    for name in type(x).__match_args__ + ("no_such_field",):
        assert outcome(setattr, x, name, None) == outcome(setattr, t, name, None)
        assert outcome(delattr, x, name) == outcome(delattr, t, name)
        assert outcome(setattr, x, name, None)[:2] == ("raised", AttributeError)


@pytest.mark.parametrize("x", README_RECORDS, ids=lambda x: type(x).__name__)
def test_construction_by_position_and_keyword(x):
    cls = type(x)
    values = [getattr(x, name) for name in cls.__match_args__]
    by_name = dict(zip(cls.__match_args__, values))
    assert cls(*values) == x == cls(**by_name)
    assert TWINS[cls](*values) == twin(x) == TWINS[cls](**by_name)
    assert repr(cls(*values[:1], **dict(list(by_name.items())[1:]))) == repr(x)


def test_default_induction():
    piece = next(x for x in README_RECORDS if type(x) is CohomologyPiece and x.induction)
    values = [getattr(piece, name) for name in CohomologyPiece.__match_args__]
    bare = CohomologyPiece(*values[:-1])
    assert bare.induction is None and TWINS[CohomologyPiece](*values[:-1]).induction is None
    assert repr(bare) == repr(TWINS[CohomologyPiece](*values[:-1]))
    assert bare != piece and CohomologyPiece(*values[:-1], induction=piece.induction) == piece
    with pytest.raises(TypeError):
        CohomologyPiece(*values[:-2])


def test_cached_property_on_a_frozen_record():
    point = NewtonPoint(((1, 2), (0, 1)))
    assert point.tops == (0, 0, 1, 1) and point.tops is point.tops
    assert point == NewtonPoint(((1, 2), (0, 1))) and "tops" not in repr(point)


def _bad_values():
    nu = bundle_to_b(parse_bundle("O(1)+O"))
    dec = next(x for x in README_RECORDS if type(x) is HeckeDecomposition)
    return [
        (BundleSpec, ((),)),
        (BundleSpec, (((0, 1), (1, 1)),)),
        (BundleSpec, (((1, 0),),)),
        (NewtonPoint, (((1, 1), (1, 1)),)),
        (NewtonPoint, (((1.5, 1),),)),
        (InnerFormGroup, ((),)),
        (LParamShape, ([1], ["a"], [1])),
        (LParamShape, ((), (), ())),
        (LParamShape, ((1, 2), ("a", "a"), (1, 1))),
        (LParamShape, ((0,), ("a",), (1,))),
        (RepSymbol, (nu, ((0,),))),
        (HeckeDecomposition, (dec.weight, dec.source, dec.terms[:1] * 2)),
        (WeilSymbol, ((1,), ("a",), ((((1,),), 1), (((1,),), 2)))),
        (WeilSymbol, ((1,), ("a",), ((((1,),), 0),))),
    ]


@pytest.mark.parametrize("cls,args", _bad_values(), ids=lambda v: getattr(v, "__name__", ""))
def test_post_init_rejects_as_the_twin_does(cls, args):
    got = outcome(cls, *args)
    assert got[:2] == ("raised", DomainError)
    assert got == outcome(TWINS[cls], *args)


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if hasattr(cls, "__post_init__")], ids=lambda c: c.__name__
)
def test_post_init_looked_up_on_each_call(cls, monkeypatch):
    x = next(x for x in README_RECORDS if type(x) is cls)
    values = [getattr(x, name) for name in cls.__match_args__]

    def refuse(self):
        raise DomainError(f"patched {type(self).__name__}")

    monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(DomainError, match=f"patched {cls.__name__}"):
        cls(*values)
