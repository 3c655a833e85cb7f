"""Sequential unsharp-measurement simulation and analysis for parity-oblivious qubit ensembles.

The package covers the full pipeline: constructing the anticommuting
observable family and the matching preparation ensembles, simulating chains of
independent observers who measure unsharply and pass the state along, planning
how many observers a given ensemble can serve under noise, and post-processing
recorded marginal tables onto exact parity equivalences with a linear program.
"""

from .ensembles import (
    EquivalenceReport,
    all_bit_strings,
    build_ensemble,
    build_preparation,
    check_operational_equivalence,
    constraint_signs,
    parity_signs,
    partial_trace_construction,
    setting_signs,
    signed_observable_sum,
)
from .equivalence_lp import (
    LPResult,
    WeightMatrix,
    closeness,
    enforce_equivalences,
    normalized_closeness,
    parity_residual,
    winning_to_outcome,
)
from .operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    AnticommutationReport,
    ObservableSet,
    build_observables,
    tensor_product,
    verify_anticommutation,
)
from .planner import (
    AnonymousOptimum,
    ChainReport,
    DimensionPlan,
    anonymous_chain_length,
    anonymous_optimum,
    critical_chain,
    max_shared_observers,
    min_dimension_parameter,
)
from .sampling import sample_counts
from .sequence import (
    MarginalTable,
    SequencePlan,
    UnsharpSetting,
    closed_form_witness,
    evolve_average,
    kraus_operator,
    marginal_probability,
    noncontextual_bound,
    povm_element,
    quality_factor,
    read_marginal_csv,
    run_sequence,
    theta_to_eta,
    visibility_chain,
    witness,
    write_marginal_csv,
)
from .simplex import LinearProgramResult, solve_lp

__version__ = "0.1.0"

__all__ = [
    "AnonymousOptimum",
    "AnticommutationReport",
    "ChainReport",
    "DimensionPlan",
    "EquivalenceReport",
    "IDENTITY_2",
    "LPResult",
    "LinearProgramResult",
    "MarginalTable",
    "ObservableSet",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SequencePlan",
    "UnsharpSetting",
    "WeightMatrix",
    "all_bit_strings",
    "anonymous_chain_length",
    "anonymous_optimum",
    "build_ensemble",
    "build_observables",
    "build_preparation",
    "check_operational_equivalence",
    "closed_form_witness",
    "closeness",
    "constraint_signs",
    "critical_chain",
    "enforce_equivalences",
    "evolve_average",
    "kraus_operator",
    "marginal_probability",
    "max_shared_observers",
    "min_dimension_parameter",
    "noncontextual_bound",
    "normalized_closeness",
    "parity_residual",
    "parity_signs",
    "partial_trace_construction",
    "povm_element",
    "quality_factor",
    "read_marginal_csv",
    "run_sequence",
    "sample_counts",
    "setting_signs",
    "signed_observable_sum",
    "solve_lp",
    "tensor_product",
    "theta_to_eta",
    "verify_anticommutation",
    "visibility_chain",
    "witness",
    "write_marginal_csv",
]
