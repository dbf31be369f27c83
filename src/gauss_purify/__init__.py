"""Optimal attenuation and amplification of phase-invariant Gaussian states.

The package computes minimax simulation risks for rescaling thermal
states with beamsplitters and parametric amplifiers, the matching
classical Gaussian problem, and the purification/dilution rates the
comparison induces for displaced qubit ensembles.
"""

from .fock import (
    DiagonalFockState,
    L1Distance,
    displacement_matrix,
    displacement_matrix_element,
    from_probs,
    l1_distance,
    mean_photon,
    number_state,
    thermal_state,
    vacuum_state,
)
from .channels import (
    AMPLIFY,
    ATTENUATE,
    ClassicalGaussian,
    amplify_kernel,
    attenuate_kernel,
    channel_s_tilde,
    classical_channel,
    fock_ancilla_outputs,
    gain_matrix,
    gaussian_noise_topup,
    normalize_kind,
    thinning_matrix,
)
from .risk import (
    GaussianProblem,
    QubitScenario,
    RiskReport,
    case4_risk,
    classical_minimax_risk,
    classical_threshold,
    combined_risk,
    geometric_l1,
    optimal_rate,
    quantum_minimax_risk,
    quantum_threshold,
    qubit_thresholds,
    rate_branch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fock
    "DiagonalFockState",
    "L1Distance",
    "thermal_state",
    "vacuum_state",
    "number_state",
    "from_probs",
    "mean_photon",
    "l1_distance",
    "displacement_matrix_element",
    "displacement_matrix",
    # channels
    "ATTENUATE",
    "AMPLIFY",
    "normalize_kind",
    "ClassicalGaussian",
    "thinning_matrix",
    "gain_matrix",
    "attenuate_kernel",
    "amplify_kernel",
    "channel_s_tilde",
    "fock_ancilla_outputs",
    "gaussian_noise_topup",
    "classical_channel",
    # risk
    "GaussianProblem",
    "QubitScenario",
    "RiskReport",
    "geometric_l1",
    "quantum_threshold",
    "classical_threshold",
    "quantum_minimax_risk",
    "classical_minimax_risk",
    "case4_risk",
    "combined_risk",
    "qubit_thresholds",
    "rate_branch",
    "optimal_rate",
]
