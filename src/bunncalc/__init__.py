"""Exact-arithmetic calculator for slope data of p-adic vector bundles,
Newton strata, and the character/stratum combinatorics of spectral actions.

Exports resolve lazily (PEP 562): ``from bunncalc import hecke`` imports
``bunncalc.spectral`` then, and ``import bunncalc`` alone loads no submodule.
"""

from importlib import import_module

# submodule -> the names it exports from the package
_EXPORTS = {
    "bundles": (
        "BudgetError",
        "BundleSpec",
        "DomainError",
        "ParseError",
        "Slope",
        "bundle",
        "format_bundle",
        "hn_polygon",
        "normalize_bundle",
        "parse_bundle",
        "reduce_slope",
        "rho_pairing",
    ),
    "kottwitz": (
        "CharacterExponents",
        "InnerFormGroup",
        "NewtonPoint",
        "automorphism_group",
        "b_to_bundle",
        "bundle_to_b",
        "d_point",
        "dot_export",
        "enumerate_B",
        "hasse",
        "kappa_exponents",
        "leq",
        "modulus_exponents",
        "parabolic_type",
        "point_from_vector",
    ),
    "lparams": (
        "Character",
        "LParamShape",
        "RepSymbol",
        "SheafSymbol",
        "b_to_chis",
        "chi_id",
        "chi_inv",
        "chi_mul",
        "chi_to_bundle",
        "chi_to_rep",
        "component_shape",
        "make_F",
    ),
    "modif": (
        "BoyerFactorization",
        "boyer_factorize",
        "modification_necessary",
        "modification_targets_rank_one",
    ),
    "shtuka": (
        "CohomologyOutput",
        "IgusaOutput",
        "harris_viehmann",
        "igusa_cohomology",
        "mantovan_pieces",
        "shtuka_cohomology",
    ),
    "spectral": (
        "EigensheafStalk",
        "HeckeDecomposition",
        "eigensheaf_stalk",
        "hecke",
        "spectral_act",
        "stalk",
        "verify_eigen",
    ),
    "weights": (
        "WeilSymbol",
        "dual_weight",
        "levi_branching",
        "sigma_chi",
        "weight_multiplicities",
        "weyl_dim",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
