"""Trotterized mixed-field Ising simulation workbench with noise and mitigation."""

__version__ = "0.1.0"

from .qsim import (  # noqa: F401
    Circuit,
    Counts,
    Gate,
    Statevector,
    run_circuit,
)
from .model import (  # noqa: F401
    ModelParams,
    build_hamiltonian,
    build_trotter_step,
    exact_evolve,
    fibonacci_projector,
    neel_state,
    project,
    trotter_angles,
)
