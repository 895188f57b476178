"""Commutation indices and Lovasz theta of Pauli/Majorana commutation
graphs, small random-fermion / spin-glass Hamiltonians by exact
diagonalization, and disorder Monte Carlo experiments that check the
associated concentration and free-energy bounds numerically."""

from .algebra import (
    MajoranaMonomial,
    OperatorSet,
    PauliString,
    enumerate_set,
    jordan_wigner_majorana,
    majorana_anticommutes,
    majorana_to_pauli,
    multiply_paulis,
    pauli_anticommutes,
)
from .graphs import (
    CommutationGraph,
    best_commuting_family,
    commutation_degree,
    commutation_graph,
    commuting_majorana_family,
    extended_hamming_family,
    joint_eigenstate,
    stabilized_state,
    ternary_tree_paulis,
)
from .index import (
    IndexEstimate,
    index_estimate,
    index_lower_family,
    index_pauli_product,
    index_seesaw,
    index_upper,
    pauli_index_weak_bound,
)
from .lab import (
    classical_overlap_experiment,
    exp_moment_check,
    free_energy_experiment,
    glassiness_contrast,
    gradcheck_logZ,
    mgf_check,
    tail_experiment,
    variance_identity_experiment,
)
from .kernel import (
    CapacityError,
    InputError,
    RandomStream,
    eigh,
    gaussian_stream,
)
from .models import (
    BoundsReport,
    ansatz_bounds_report,
    depolarized_energy_identity,
    h_comm_count,
    lambda_max_lower_bound,
    sample_classical_pspin,
    sample_couplings,
    sample_spectra,
)
from .reports import ExperimentReport, Verdict
from .scheme import HahnTable, dual_hahn, johnson_adjacency, verify_scheme_spectrum
from .theta import ThetaResult, theta_johnson_lp, theta_sdp

__version__ = "0.1.0"
