"""Mixed-field Ising chain: Hamiltonian, Trotter circuits, and exact oracles.

The chain Hamiltonian (open boundaries, longitudinal field tied to the
interaction strength, edge fields halved) is

    H = V sum_i Z_i Z_{i+1} - 2V sum_{i=2}^{L-1} Z_i - V (Z_1 + Z_L)
        + Omega sum_i X_i

which equals the occupation form 4V sum n_i n_{i+1} + Omega sum X_i up
to a constant shift V(L-1), n_i = (I - Z_i)/2.  Scarred dynamics appear
for V >> Omega starting from the alternating (Neel) states.

At large step sizes the repeated splitting circuit can equally be read
as stroboscopic evolution under a square-wave drive that alternates
between the transverse-field part and the diagonal part; the circuit is
identical either way, so no separate periodic-drive builder exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qsim import Circuit, Gate, Statevector, cnot, rx, ry, rz, rzx, rzz, x

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


def qmbs_params(L: int, dt: float = 1.0) -> ModelParams:
    return ModelParams(V=1.0, Omega=0.24, dt=dt, L=L)


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


def _z_diagonals(L: int) -> np.ndarray:
    """z_i = +-1 eigenvalues per site: array (2^L, L)."""
    idx = np.arange(2**L)
    bits = (idx[:, None] >> (L - 1 - np.arange(L))) & 1
    return 1.0 - 2.0 * bits


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Dense Hermitian matrix of the Pauli form above; L <= 14."""
    if p.L > 14:
        raise ValueError("dense Hamiltonian limited to L <= 14")
    L = p.L
    zs = _z_diagonals(L)
    diag = p.V * np.sum(zs[:, :-1] * zs[:, 1:], axis=1)
    diag -= 2.0 * p.V * np.sum(zs[:, 1:-1], axis=1)
    diag -= p.V * (zs[:, 0] + zs[:, -1])
    mat = np.diag(diag)
    idx = np.arange(2**L)
    for q in range(L):
        flipped = idx ^ (1 << (L - 1 - q))
        mat[idx, flipped] += p.Omega
    return mat


def build_hamiltonian_occupation(p: ModelParams) -> np.ndarray:
    """Occupation form 4V sum n_i n_{i+1} + Omega sum X_i (oracle use)."""
    if p.L > 14:
        raise ValueError("dense Hamiltonian limited to L <= 14")
    L = p.L
    zs = _z_diagonals(L)
    ns = (1.0 - zs) / 2.0
    diag = 4.0 * p.V * np.sum(ns[:, :-1] * ns[:, 1:], axis=1)
    mat = np.diag(diag)
    idx = np.arange(2**L)
    for q in range(L):
        flipped = idx ^ (1 << (L - 1 - q))
        mat[idx, flipped] += p.Omega
    return mat


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
                    gates.append(Gate("DELAY", (q,), duration_ns=idle_ns))
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


def neel_prep_circuit(L: int, variant: str = "Z2") -> Circuit:
    return Circuit(L, [x(q) for q, bit in enumerate(neel_bitstring(L, variant)) if bit == "1"])


def neel_bitstring(L: int, variant: str = "Z2") -> str:
    if variant == "Z2":
        return "".join("1" if (q + 1) % 2 == 0 else "0" for q in range(L))
    if variant == "Z2'":
        return "".join("1" if (q + 1) % 2 == 1 else "0" for q in range(L))
    raise ValueError("variant must be 'Z2' or 'Z2''")


def neel_state(L: int, variant: str = "Z2") -> Statevector:
    """|Z2> carries 1s on even sites (1-based); |Z2'> is the complement."""
    return Statevector.from_bitstring(neel_bitstring(L, variant))


# ---------------------------------------------------------------------------
# Dense oracles (independent of the circuit code path)
# ---------------------------------------------------------------------------

def hamiltonian_layers(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_ZZ, H_Z, H_X) as dense matrices for the splitting oracle."""
    L = p.L
    zs = _z_diagonals(L)
    h_zz = np.diag(p.V * np.sum(zs[:, :-1] * zs[:, 1:], axis=1))
    h_z = np.diag(
        -2.0 * p.V * np.sum(zs[:, 1:-1], axis=1) - p.V * (zs[:, 0] + zs[:, -1])
    )
    h_x = np.zeros((2**L, 2**L))
    idx = np.arange(2**L)
    for q in range(L):
        h_x[idx, idx ^ (1 << (L - 1 - q))] += p.Omega
    return h_zz, h_z, h_x


def trotter_step_matrix(p: ModelParams) -> np.ndarray:
    """exp(-i H_ZZ dt) exp(-i H_Z dt) exp(-i H_X dt) via dense exponentials."""
    from scipy.linalg import expm  # oracle only: keeps scipy off the import path

    if p.L > 10:
        raise ValueError("dense Trotter step limited to L <= 10")
    h_zz, h_z, h_x = hamiltonian_layers(p)
    u_zz = np.diag(np.exp(-1j * np.diag(h_zz) * p.dt))
    u_z = np.diag(np.exp(-1j * np.diag(h_z) * p.dt))
    u_x = expm(-1j * h_x * p.dt)
    return u_zz @ u_z @ u_x


@lru_cache(maxsize=4)
def _eigensystem(V: float, Omega: float, L: int):
    # the Hamiltonian is real symmetric, so the real eigensolver applies
    ham = build_hamiltonian(ModelParams(V=V, Omega=Omega, dt=1.0, L=L))
    return np.linalg.eigh(ham)


def exact_evolve(p: ModelParams, t: float, variant: str = "Z2") -> Statevector:
    """exp(-i H t) |Z2> via dense eigendecomposition; L <= 14.

    Independent of the Trotter circuit code path; the decomposition is
    cached per (V, Omega, L) so sweeping t is cheap.
    """
    if p.L > 14:
        raise ValueError("exact evolution limited to L <= 14")
    vals, vecs = _eigensystem(p.V, p.Omega, p.L)
    psi0 = neel_state(p.L, variant).amplitudes
    coeffs = vecs.T @ psi0
    amps = vecs @ (np.exp(-1j * vals * t) * coeffs)
    return Statevector(amps, check=False)


# ---------------------------------------------------------------------------
# Fibonacci subspace (no two adjacent 1s)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FibonacciMask:
    """Boolean mask over the 2^L basis marking adjacent-1-free states."""

    L: int
    mask: np.ndarray
    dimension: int


@lru_cache(maxsize=8)
def fibonacci_projector(L: int) -> FibonacciMask:
    """Cached per width; the mask is read-only."""
    idx = np.arange(2**L, dtype=np.int64)
    mask = (idx & (idx >> 1)) == 0
    mask.flags.writeable = False
    return FibonacciMask(L=L, mask=mask, dimension=int(mask.sum()))


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


def project(state: Statevector, mask: FibonacciMask) -> tuple[Statevector | None, float]:
    """Project onto the masked subspace; (renormalized state, weight).

    weight = sum over marked basis states of |amplitude|^2.  A zero
    weight returns (None, 0.0) rather than dividing.
    """
    if state.width != mask.L:
        raise ValueError("state width does not match mask")
    amps = np.where(mask.mask, state.amplitudes, 0.0)
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight <= 0.0:
        return None, 0.0
    return Statevector(amps / np.sqrt(weight), check=False), weight
