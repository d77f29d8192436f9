"""Exact-arithmetic calculator for slope data of p-adic vector bundles,
Newton strata, and the character/stratum combinatorics of spectral actions."""

from .bundles import (
    BudgetError,
    BundleSpec,
    DomainError,
    ParseError,
    Slope,
    bundle,
    format_bundle,
    hn_polygon,
    normalize_bundle,
    parse_bundle,
    reduce_slope,
    rho_pairing,
)
from .kottwitz import (
    CharacterExponents,
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    b_to_bundle,
    bundle_to_b,
    d_point,
    dot_export,
    enumerate_B,
    hasse,
    kappa_exponents,
    leq,
    modulus_exponents,
    parabolic_type,
    point_from_vector,
)
from .lparams import (
    Character,
    Component,
    LParamShape,
    RepSymbol,
    SheafSymbol,
    b_to_chis,
    chi_id,
    chi_inv,
    chi_mul,
    chi_to_bundle,
    chi_to_rep,
    component_shape,
    make_F,
)
from .shtuka import (
    BoyerFactorization,
    CohomologyOutput,
    IgusaOutput,
    boyer_factorize,
    harris_viehmann,
    igusa_cohomology,
    mantovan_pieces,
    modification_necessary,
    modification_targets_rank_one,
    shtuka_cohomology,
)
from .spectral import (
    EigensheafStalk,
    HeckeDecomposition,
    eigensheaf_stalk,
    hecke,
    spectral_act,
    stalk,
    verify_eigen,
)
from .weights import (
    WeilSymbol,
    dual_weight,
    levi_branching,
    sigma_chi,
    weight_multiplicities,
    weyl_dim,
)

__version__ = "0.1.0"
