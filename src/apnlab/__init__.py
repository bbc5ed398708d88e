"""Construction and analysis of almost perfect nonlinear (APN) vectorial
Boolean functions over F_{2^n}: finite-field arithmetic, differential and
Walsh analysis, secondary constructions with verifiable certificates,
CCZ/EA invariants, and seeded searches.
"""
from .field import FieldSpec, field_for, PRESET_MODULI
from .vbf import (
    VBF,
    AffineMap,
    DifferentialProfile,
    LinearMap,
    WalshSpectrum,
    from_univariate,
    inverse_function,
    power_function,
    projection_killing,
)
from .io import FormatError, read_lin1, read_vbf1, write_lin1, write_vbf1
from .constructions import (
    CosetDecomposition,
    Decomposition,
    HyperplaneSpec,
    SwitchSpec,
    admissible_sums,
    coset_criterion,
    coset_modify,
    concat_is_apn,
    concatenate,
    decompose_to_4uniform,
    ea_transform,
    exp_sum_condition,
    h_equivalence_witness,
    hyperplane_modify,
    inverse_extension,
    nyberg_root_count,
    nyberg_roots,
    quadratic_concat_criterion,
    switch,
    table1_functions,
    table1_maps,
    th31_criterion,
    th31_witness,
)
from .invariants import (
    DistinguishResult,
    InvariantBundle,
    classical_spectrum,
    distinguish,
    gamma_rank,
    invariant_bundle,
    is_classical,
)
from .search import (
    SearchReport,
    SplitMix64,
    VerificationError,
    enumerate_subspaces,
    linear_map_from_index,
    search_tr_l,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "field_for", "PRESET_MODULI",
    "VBF", "AffineMap", "DifferentialProfile", "LinearMap", "WalshSpectrum",
    "from_univariate", "inverse_function", "power_function",
    "projection_killing",
    "FormatError", "read_lin1", "read_vbf1", "write_lin1", "write_vbf1",
    "CosetDecomposition", "Decomposition", "HyperplaneSpec", "SwitchSpec",
    "admissible_sums", "coset_criterion", "coset_modify", "concat_is_apn",
    "concatenate", "decompose_to_4uniform", "ea_transform",
    "exp_sum_condition", "h_equivalence_witness", "hyperplane_modify",
    "inverse_extension", "nyberg_root_count", "nyberg_roots",
    "quadratic_concat_criterion", "switch", "table1_functions", "table1_maps",
    "th31_criterion", "th31_witness",
    "DistinguishResult", "InvariantBundle", "classical_spectrum",
    "distinguish", "gamma_rank", "invariant_bundle", "is_classical",
    "SearchReport", "SplitMix64", "VerificationError",
    "enumerate_subspaces", "linear_map_from_index", "search_tr_l",
]
