"""Mixed-field Ising chain: Hamiltonian, Trotter circuits, and exact oracles.

The chain Hamiltonian (open boundaries, longitudinal field tied to the
interaction strength, edge fields halved) is

    H = V sum_i Z_i Z_{i+1} - 2V sum_{i=2}^{L-1} Z_i - V (Z_1 + Z_L)
        + Omega sum_i X_i

which equals the occupation form 4V sum n_i n_{i+1} + Omega sum X_i up
to a constant shift V(L-1), n_i = (I - Z_i)/2.  Scarred dynamics appear
for V >> Omega starting from the alternating (Neel) states.

The Pauli form is built as one sparse matrix: the diagonal of the Z
terms plus one bit flip per site for Omega X.  The exact oracle applies its
exponential to the Neel state without diagonalizing it, so it has no
width cap, and the Trotter-step oracle applies the step factor by
factor over a reshape of the state, so it has none either.  scipy is
imported inside the oracles only.

At large step sizes the repeated splitting circuit can equally be read
as stroboscopic evolution under a square-wave drive that alternates
between the transverse-field part and the diagonal part; the circuit is
identical either way, so no separate periodic-drive builder exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qsim import Circuit, Gate, cnot, delay, rx, ry, rz, rzx, rzz, x

RZZ_IMPLS = ("two-cnot", "scaled-rzx", "rzz")


@dataclass(frozen=True)
class ModelParams:
    V: float
    Omega: float
    dt: float
    L: int

    def __post_init__(self):
        for name in ("V", "Omega", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.L < 2:
            raise ValueError("chain needs at least 2 sites")


@dataclass(frozen=True)
class TrotterAngles:
    """Rotation angles of one first-order Trotter step."""

    theta_x: float
    theta_z_bulk: float
    theta_z_edge: float
    theta_zz: float

    def __post_init__(self):
        if abs(self.theta_zz + self.theta_z_edge) > 1e-12:
            raise ValueError("edge Z angle must equal minus the ZZ angle")


def trotter_angles(p: ModelParams) -> TrotterAngles:
    return TrotterAngles(
        theta_x=2.0 * p.Omega * p.dt,
        theta_z_bulk=-4.0 * p.V * p.dt,
        theta_z_edge=-2.0 * p.V * p.dt,
        theta_zz=2.0 * p.V * p.dt,
    )


def _site_z(L: int, i: int) -> np.ndarray:
    """z_i = +-1 eigenvalue of site i (0-based) over the 2^L basis."""
    return 1.0 - 2.0 * ((np.arange(1 << L) >> (L - 1 - i)) & 1)


def _pauli_diagonal(p: ModelParams) -> np.ndarray:
    """The ZZ and Z terms of the Pauli form: the diagonal of H.  Each bond
    adds z_i z_{i+1} - z_i - z_{i+1} (a bulk site is in two bonds, an
    edge site in one), one bond at a time: no (2^L, L) table is held."""
    diag = np.zeros(1 << p.L)
    for i in range(p.L - 1):
        a, b = _site_z(p.L, i), _site_z(p.L, i + 1)
        diag += a * b - a - b
    return p.V * diag


def _with_x_term(diag: np.ndarray, Omega: float):
    """CSR matrix diag + Omega sum_i X_i: each row holds its diagonal
    entry, then one bit flip per site."""
    from scipy.sparse import csr_array  # oracle only: keeps scipy off the import path

    n = diag.size
    L = n.bit_length() - 1
    cols = np.arange(n)[:, None] ^ np.concatenate(([0], 1 << np.arange(L)))
    data = np.column_stack([diag, np.full((n, L), Omega)])
    return csr_array((data.ravel(), cols.ravel(), np.arange(0, n * (L + 1) + 1, L + 1)),
                     shape=(n, n))


def build_hamiltonian(p: ModelParams):
    """Sparse (CSR) Hermitian matrix of the Pauli form above."""
    return _with_x_term(_pauli_diagonal(p), p.Omega)


def build_trotter_step(
    p: ModelParams,
    impl: str = "scaled-rzx",
    idle_ns: float | None = None,
) -> Circuit:
    """One first-order Trotter step as a circuit.

    Layer order follows the splitting exp(-i H_ZZ dt) exp(-i H_Z dt)
    exp(-i H_X dt) applied to the state: X rotations first, then Z
    rotations (edge angles halved), then the ZZ bond layer.  The bond
    layer is scheduled even bonds then odd bonds (all bond gates
    commute, so any order gives the same unitary).

    ``impl`` selects the bond-gate realization: "two-cnot" (CNOT, RZ,
    CNOT), "scaled-rzx" (RY-dressed RZX, the pulse-scaled form), or
    "rzz" (a single atomic gate, convenient for noiseless oracles).

    With ``idle_ns`` set, qubits not acted on during each bond
    sub-layer receive DELAY annotations of that duration, giving the
    dynamical-decoupling pass something to fill.
    """
    ang = trotter_angles(p)
    L = p.L
    gates: list[Gate] = [rx(q, ang.theta_x) for q in range(L)]
    for q in range(L):
        edge = q in (0, L - 1)
        gates.append(rz(q, ang.theta_z_edge if edge else ang.theta_z_bulk))
    bonds = range(L - 1)  # bond b joins qubits b, b+1
    for sub in (bonds[0::2], bonds[1::2]):
        if not sub:
            continue
        busy: set[int] = set()
        for b in sub:
            gates.extend(bond_gates(b, b + 1, ang.theta_zz, impl))
            busy.update((b, b + 1))
        if idle_ns is not None:
            for q in range(L):
                if q not in busy:
                    gates.append(delay(q, idle_ns))
    return Circuit(L, gates)


def bond_gates(q0: int, q1: int, theta: float, impl: str) -> list[Gate]:
    """exp(-i theta/2 Z_q0 Z_q1) compiled as ``impl``, the one statement
    of each compilation: the circuits, the pulse durations and error
    rates, process tomography and the interaction-gate benchmark all
    read it."""
    if impl == "two-cnot":
        return [cnot(q0, q1), rz(q1, theta), cnot(q0, q1)]
    if impl == "scaled-rzx":
        return [ry(q1, np.pi / 2), rzx(q0, q1, theta), ry(q1, -np.pi / 2)]
    if impl == "rzz":
        return [rzz(q0, q1, theta)]
    raise ValueError(f"impl must be one of {RZZ_IMPLS}, got {impl!r}")


def neel_prep_circuit(L: int) -> Circuit:
    return Circuit(L, [x(q) for q, bit in enumerate(neel_bitstring(L)) if bit == "1"])


def neel_bitstring(L: int) -> str:
    return "".join("1" if (q + 1) % 2 == 0 else "0" for q in range(L))


def neel_state(L: int) -> np.ndarray:
    """|Z2>: 1s on even sites (1-based), 0101... from qubit 0."""
    psi = np.zeros(1 << L, dtype=complex)
    psi[int(neel_bitstring(L), 2)] = 1.0
    return psi


# ---------------------------------------------------------------------------
# Oracles (independent of the circuit code path)
# ---------------------------------------------------------------------------

def trotter_step(p: ModelParams, psi: np.ndarray) -> np.ndarray:
    """exp(-i H_ZZ dt) exp(-i H_Z dt) exp(-i H_X dt) applied over the last
    axis of ``psi``, one state or a stack of rows of length 2^L: the
    exact single-site factor exp(-i Omega X dt) on each qubit's axis of a
    reshape, then the diagonal phases.  No 2^L x 2^L matrix is formed."""
    c, s = np.cos(p.Omega * p.dt), np.sin(p.Omega * p.dt)
    u_x = np.array([[c, -1j * s], [-1j * s, c]])
    out = np.asarray(psi, dtype=complex)
    for q in range(p.L):
        out = u_x @ out.reshape(-1, 2, 1 << (p.L - 1 - q))
    return np.exp(-1j * _pauli_diagonal(p) * p.dt) * out.reshape(np.shape(psi))


def exact_evolve(p: ModelParams, steps: int) -> np.ndarray:
    """exp(-i H n dt) |Z2> for n = 0..steps, as the rows of a
    (steps + 1, 2^L) array, independent of the Trotter circuit code path.

    One ``expm_multiply`` pass over the evenly spaced times applies the
    exponential of the sparse Hamiltonian to the state (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33 (2011) 488), with no dense matrix
    and no restart from t = 0 per time.  dt is folded into the matrix so
    that the interval runs over n = 0..steps: expm_multiply mishandles
    a negative ``stop``, and needs at least two time points.  Its
    one-norm estimator divides by magnitudes that underflow when the
    Hamiltonian has subnormal-scale entries (Omega ~ 1e-164); the
    result stays exact there (the dense-expm test pins such a case), so
    those floating-point warnings are not raised.
    """
    from scipy.sparse.linalg import expm_multiply  # oracle only: keeps scipy off the import path

    psi0 = neel_state(p.L)
    if steps == 0:
        return psi0[None]
    with np.errstate(over="ignore", invalid="ignore"):
        return expm_multiply(-1j * p.dt * build_hamiltonian(p), psi0,
                             start=0, stop=steps, num=steps + 1, endpoint=True)


# ---------------------------------------------------------------------------
# Fibonacci subspace (no two adjacent 1s)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def fibonacci_projector(L: int) -> np.ndarray:
    """Boolean mask over the 2^L basis marking adjacent-1-free states;
    cached per width and read-only."""
    idx = np.arange(2**L, dtype=np.int64)
    mask = (idx & (idx >> 1)) == 0
    mask.flags.writeable = False
    return mask
