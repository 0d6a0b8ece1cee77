"""Characteristic-function toolkit for non-classicality tests and
entanglement witnesses of bosonic superposition states."""

from .states import (
    CoherentSuperposition,
    Decohered,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    SingleModeState,
    ThermalState,
    TwoModeMixture,
    TwoModeState,
    VACUUM,
    cat_state,
    decohere,
    entangled_cat,
    state_from_json,
    state_to_json,
)
from .nonclassicality import (
    GridSpec,
    RegionScan,
    bochner_matrix,
    min_eigenvalue,
    nc1_excess,
    nc2_certificate,
    region_scan,
)
from .ramsey import (
    CouplingParams,
    QubitPairState,
    RamseySetting,
    chi2_from_correlations,
    chi_from_measurements,
    conditional_state,
    displacement_amplitude,
    geometric_phase,
    modular_expectation,
    moments4,
    outcome_probabilities,
    prepare_conditional,
    qubit_channel,
    sample_outcomes,
    two_qubit_correlation,
)
from .entanglement import (
    Settings,
    WitnessDescriptor,
    canonical_eta,
    moments9,
    paper_witness,
    partial_transpose,
    ppt_min_eig,
    standard_settings,
    witness_expectation,
    witness_from_eta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
