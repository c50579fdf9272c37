"""Components of the complement of the dense parabolic orbit in the
nilradical: index combinatorics, line diagrams, tableaux, exact linear
algebra, strata predicates, and a finite-field verification harness."""

from .compositions import (
    Composition,
    conjugate,
    dominance_leq,
    gamma_pairs,
    high_intermediates,
    kappa,
    lambda_pairs,
    low_intermediates,
    partitions_of,
    richardson_partition,
)
from .diagrams import (
    LineDiagram,
    chain_lengths,
    complete_diagram,
    diagram_partition,
    long_chain_count,
    max_window_rank,
    richardson_element,
    render_ascii,
    subdiagram,
)
from .matrices import DEFAULT_PRIME, ExactMatrix
from .strata import (
    Decomposition,
    StratumSpec,
    WitnessSearchError,
    decompose,
    defect_profile,
    in_nilradical,
    in_stratum,
    is_richardson,
    rank_defect,
    separates,
    witness,
)
from .tableaux import (
    Movement,
    YoungTableau,
    chain_to_tableau,
    codim,
    minimal_movement,
    richardson_tableau,
    shape_chains,
    shared_row,
    tableau_to_chain,
    tableaux_with_content,
)
from .verify import (
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    VerificationReport,
    check_component_count,
    gl5_fixture_suite,
    run_checks,
)

__version__ = "0.1.0"
