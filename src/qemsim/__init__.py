"""Density-matrix circuit simulation with Lindblad noise and
individual-error-reduction mitigation."""

from .circuit import (
    AnsatzSpec,
    BoundCircuit,
    BoundGate,
    Circuit,
    Gate,
    Param,
    bind,
    build_ansatz,
    compile_pauli_exponential,
    parse_ansatz_file,
)
from .errors import CapacityError, IntegrationError, PauliParseError
from .experiments import bundled_text
from .mitigation import (
    CorrectionReport,
    RemovalGroup,
    build_groups,
    corrected_value,
    run_mitigation,
    scaled_noise_correction,
)
from .noise import (
    LindbladTerm,
    NoiseModel,
    PropagatorConfig,
    build_template_model,
    evolve,
    run_noisy_batch,
    run_noisy_circuit,
)
from .paulis import (
    PauliString,
    PauliSum,
    exact_ground_energy,
    expectation,
    parse_pauli_sum,
)
from .state import (
    DensityMatrix,
    StateVector,
    apply_gate,
    new_pure_ground,
    new_statevector,
)
from .vqe import (
    OptimizerSettings,
    VqeProblem,
    VqeResult,
    energy_objective,
    nelder_mead,
    solve_vqe,
)

__version__ = "0.1.0"
