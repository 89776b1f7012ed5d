"""Reference oracles and fixtures that only the tests use.

Each is independent of the code path it checks: the occupation form of
the Hamiltonian, the Fibonacci dimension recursion, the projection of a
state onto the adjacent-1-free subspace, the dense (PYP)_j operator,
counts built from bitstring keys and basis states as amplitude arrays.
"""
import numpy as np

from scarsim.model import ModelParams, _site_z, _with_x_term
from scarsim.qsim import PAULI_1Q, Counts


def qmbs_params(L: int, dt: float = 1.0) -> ModelParams:
    return ModelParams(V=1.0, Omega=0.24, dt=dt, L=L)


def _z_diagonals(L: int) -> np.ndarray:
    """z_i = +-1 eigenvalues per site: array (2^L, L)."""
    return np.stack([_site_z(L, i) for i in range(L)], axis=1)


def build_hamiltonian_occupation(p: ModelParams):
    """Occupation form 4V sum n_i n_{i+1} + Omega sum X_i."""
    ns = (1.0 - _z_diagonals(p.L)) / 2.0
    return _with_x_term(4.0 * p.V * np.sum(ns[:, :-1] * ns[:, 1:], axis=1), p.Omega)


def fibonacci_dimension(L: int) -> int:
    """Independent recursion f(L) = f(L-1) + f(L-2), f(1) = 2, f(2) = 3."""
    if L == 1:
        return 2
    if L == 2:
        return 3
    a, b = 2, 3
    for _ in range(L - 2):
        a, b = b, a + b
    return b


def zero_state(width: int) -> np.ndarray:
    """|0...0> over ``width`` qubits."""
    return basis_state("0" * width)


def basis_state(bits: str) -> np.ndarray:
    """|bits> (leftmost character = qubit 0)."""
    if set(bits) - {"0", "1"}:
        raise ValueError(f"invalid bitstring {bits!r}")
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def project(psi: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Project onto the subspace ``mask`` marks; (renormalized state, weight).

    weight = sum over marked basis states of |amplitude|^2.  A zero
    weight returns (None, 0.0) rather than dividing.
    """
    if mask.shape != psi.shape:
        raise ValueError("state width does not match mask")
    amps = np.where(mask, psi, 0.0)
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight <= 0.0:
        return None, 0.0
    return amps / np.sqrt(weight), weight


def pyp_matrix(L: int, j: int) -> np.ndarray:
    """Dense (PYP)_j operator."""
    if not 1 <= j <= L:
        raise ValueError("site out of range")
    proj = np.array([[1, 0], [0, 0]], dtype=complex)  # (1+Z)/2
    out = np.array([[1]], dtype=complex)
    for site in range(1, L + 1):
        if site == j:
            term = PAULI_1Q["Y"]
        elif site in (j - 1, j + 1):
            term = proj
        else:
            term = np.eye(2, dtype=complex)
        out = np.kron(out, term)
    return out


def counts_from_dict(data: dict[str, float], total_shots: float, width: int,
                     quasi: bool = False) -> Counts:
    """Counts from bitstring keys (leftmost character = site 1)."""
    vec = np.zeros(2**width)
    for key, n in data.items():
        if len(key) != width or set(key) - {"0", "1"}:
            raise ValueError(f"bad bitstring key {key!r} for width {width}")
        vec[int(key, 2)] += n
    return Counts(vec, total_shots, quasi=quasi)
