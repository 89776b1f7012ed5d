"""Process tomography of noisy two-qubit gates and SPAM-free slopes.

The tomography runs all 16 product preparations drawn from
{|0>, |1>, |X+>, |Y+>} per qubit against all 9 product measurement
bases {X, Y, Z}^2, reconstructs the Pauli transfer matrix by linear
inversion, and scores the average gate fidelity against the ideal
unitary.  The channel under test is read from the exact density oracle
``noise.run_noisy_density``, so every gate of a realization, single-qubit
ones included, carries the noise the executor gives it.  Readout
confusion (when present in the noise spec) distorts the measured
distributions exactly as in circuit execution, so the reconstruction
sees SPAM.

The SPAM-free benchmark folds the gate into the logically equivalent
sequences G, G Gdag G, G Gdag G Gdag G (scale factors 1, 3, 5, ...),
measures the fidelity at each scale, and fits F0 - eps * lambda; the
slope eps estimates the per-gate error rate, while state-preparation
and readout errors move only the intercept.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mitigation import zne_extrapolate
from .model import bond_gates
from .noise import ConfusionMatrix, NoiseSpec, _rng, run_noisy_density
from .qsim import Circuit, Gate, gate_matrix, pauli_basis_matrices

_P2 = np.array(pauli_basis_matrices(2))  # P_a, a = 4 a1 + a2 over (I, X, Y, Z)^2
_PREP_STATES = [np.array(v, dtype=complex) / np.linalg.norm(v)
                for v in ([1, 0], [0, 1], [1, 1], [1, 1j])]  # |0>, |1>, |X+>, |Y+>
_PAULI_INDEX = {"X": 1, "Y": 2, "Z": 3}
# rotation mapping the measured basis onto Z: B_rot^dag Z B_rot = basis
_BASIS_ROT = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),  # H
    "Y": (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    @ np.array([[1, 0], [0, -1j]], dtype=complex),  # H S^dag
    "Z": np.eye(2, dtype=complex),
}


def _pauli_coords(rho: np.ndarray) -> np.ndarray:
    """Tr[P_a rho] over the last two axes of ``rho``, one matrix or a stack."""
    return np.einsum("aij,...ji->...a", _P2, rho).real


def _rho_from_coords(coords: np.ndarray) -> np.ndarray:
    """sum_a coords[a] P_a / 4 over the last axis of ``coords``."""
    return np.tensordot(coords, _P2, axes=1) / 4.0


# The tomography set, built once.  The 16 product preparations (qubit 0
# first) with S[k, b] = Tr[P_b rho_k]: every reconstruction inverts S.
_PREP_VECTORS = np.array([np.kron(a, b) for a in _PREP_STATES for b in _PREP_STATES])
_PREP_COORDS = _pauli_coords(np.einsum("ki,kj->kij", _PREP_VECTORS, _PREP_VECTORS.conj()))
_PREP_COORDS_INV_T = np.linalg.inv(_PREP_COORDS).T
_PREP_CONDITION = float(np.linalg.cond(_PREP_COORDS.T))
# The 9 settings {X, Y, Z}^2: the rotation of each, and the Paulis P_a1 I,
# I P_a2 and P_a1 P_a2 it measures as Z1, Z2 and Z1 Z2, whose signs over
# the outcomes 00, 01, 10, 11 are the columns of _Z_SIGNS.
_SETTINGS = [(b1, b2) for b1 in "XYZ" for b2 in "XYZ"]
_SETTING_ROTS = np.array([np.kron(_BASIS_ROT[b1], _BASIS_ROT[b2]) for b1, b2 in _SETTINGS])
_SETTING_TARGETS = np.array([[4 * _PAULI_INDEX[b1], _PAULI_INDEX[b2],
                              4 * _PAULI_INDEX[b1] + _PAULI_INDEX[b2]] for b1, b2 in _SETTINGS])
_TARGET_COUNTS = np.bincount(_SETTING_TARGETS.ravel(), minlength=16)
_Z_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
# kron(P_a, P_b^T) for every pair (a, b), the basis of ``choi_from_ptm``
_CHOI_BASIS = np.array([[np.kron(pa, pb.T) for pb in _P2] for pa in _P2])


def gate_ptm(gate: Gate | np.ndarray) -> np.ndarray:
    """PTM of an ideal two-qubit gate or unitary matrix U:
    R[a, b] = Tr[P_a U P_b U^dag] / 4."""
    u = gate_matrix(gate) if isinstance(gate, Gate) else np.asarray(gate)
    return _pauli_coords(u @ _P2 @ u.conj().T).T / 4


def realized_gate_ptms(gate: Gate, spec: NoiseSpec, realization: str = "atomic"
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) noisy-channel PTMs of one realized gate.

    atomic: the gate (or its inverse) alone.  An RZZ gate may instead be
    compiled as any ``bond_gates`` realization at +-angle on qubits 0
    and 1.  Each PTM is the channel the exact density oracle
    ``run_noisy_density`` gives the realization's 2-qubit circuit, every
    gate with its noise (single-qubit gates included), recovered by
    linear inversion over the 16 product preparations of the tomography
    set.  The pair depends on the gate and the realization only, so it
    is built once per spec; the arrays are read-only.
    """
    if realization == "atomic":
        sequences = [[gate], [gate.inverse()]]
    elif gate.kind != "RZZ":
        raise ValueError("compiled realizations exist only for RZZ gates")
    else:
        sequences = [bond_gates(0, 1, sign * gate.angle, realization) for sign in (1.0, -1.0)]

    def build():
        ptms = tuple(_circuit_ptm(Circuit(2, gates), spec) for gates in sequences)
        for ptm in ptms:
            ptm.flags.writeable = False
        return ptms

    return spec._memoized(("ptms", gate.kind, gate.qubits, gate.angle, realization), build)


def _circuit_ptm(circuit: Circuit, spec: NoiseSpec) -> np.ndarray:
    """PTM of a 2-qubit ``circuit`` under ``spec``: R = M S^-T, M[:, k]
    the Pauli coordinates of ``run_noisy_density`` on preparation k."""
    out = _pauli_coords(np.array([run_noisy_density(circuit, spec, v)
                                  for v in _PREP_VECTORS]))
    return out.T @ _PREP_COORDS_INV_T


def composed_noisy_ptm(gate: Gate, spec: NoiseSpec, scale: int,
                       realization: str = "atomic") -> np.ndarray:
    """PTM of the folded sequence G (Gdag G)^((scale-1)/2), each G and
    Gdag the realized channel of ``realized_gate_ptms``."""
    if scale < 1 or scale % 2 == 0:
        raise ValueError("scale factors must be odd and >= 1")
    fwd, inv = realized_gate_ptms(gate, spec, realization)
    out = fwd
    for _ in range((scale - 1) // 2):
        out = fwd @ inv @ out
    return out


def average_gate_fidelity(ptm: np.ndarray, ideal_unitary: np.ndarray) -> float:
    """F_avg = (d F_pro + 1) / (d + 1) with F_pro = Tr[R_U^T R] / d^2."""
    d = 4
    r_ideal = gate_ptm(ideal_unitary)
    f_pro = float(np.trace(r_ideal.T @ ptm)) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


def choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix (trace 1): C = (1/d^2) sum_ab R[a,b] P_a (x) P_b^T."""
    return np.tensordot(ptm, _CHOI_BASIS, axes=2) / 16.0


@dataclass
class QPTResult:
    """Linear-inversion reconstruction of a two-qubit channel."""

    ptm: np.ndarray
    fidelity: float
    condition_number: float
    negative_choi: bool


def qpt_reconstruct(
    gate: Gate,
    spec: NoiseSpec,
    shots: int = 1024,
    seed: int = 0,
    infinite: bool = False,
    true_ptm: np.ndarray | None = None,
) -> QPTResult:
    """Run the 16 x 9 tomography set through the noisy channel.

    ``true_ptm`` overrides the single-application channel (used for
    folded sequences); the fidelity is always scored against the ideal
    unitary of ``gate``.  Readout confusion from the spec is applied to
    every measured distribution (that is the SPAM under test).
    """
    if len(gate.qubits) != 2:
        raise ValueError("tomography targets two-qubit gates")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    r_true = true_ptm if true_ptm is not None else realized_gate_ptms(gate, spec)[0]
    rho_out = _rho_from_coords(_PREP_COORDS @ r_true.T)  # the 16 outputs
    # applying rot then reading Z measures rot^dag Z rot = the basis:
    # probs[k, s] = diag(rot_s rho_k rot_s^dag)
    probs = np.einsum("sij,kjl,sil->ksi", _SETTING_ROTS, rho_out, _SETTING_ROTS.conj()).real
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum(axis=-1, keepdims=True)
    if spec.has_readout_error():
        confusion = ConfusionMatrix.from_rates(2, spec.readout_eps, spec.readout_eta)
        probs = confusion.apply_to_vector(probs)
    if not infinite:
        draws = [_rng([int(seed), k, s]).multinomial(shots, probs[k, s])
                 for k in range(len(_PREP_VECTORS)) for s in range(len(_SETTINGS))]
        probs = np.reshape(draws, probs.shape) / shots

    # m[a, k]: the mean of Tr[P_a rho_k] over the settings that measure P_a
    ev = probs @ _Z_SIGNS
    m = np.zeros((16, 16))
    for s, targets in enumerate(_SETTING_TARGETS):
        m[targets] += ev[:, s].T
    m[1:] /= _TARGET_COUNTS[1:, None]
    m[0] = 1.0
    r_est = m @ _PREP_COORDS_INV_T
    fid = average_gate_fidelity(r_est, gate_matrix(gate))
    choi_eigs = np.linalg.eigvalsh(choi_from_ptm(r_est))
    return QPTResult(
        ptm=r_est,
        fidelity=fid,
        condition_number=_PREP_CONDITION,
        negative_choi=bool(choi_eigs.min() < -1e-9),
    )


@dataclass
class FidelitySlope:
    """Linear fit F0 - eps * lambda over folded-gate fidelities."""

    f0: float
    epsilon: float
    epsilon_std: float
    per_lambda: dict[int, list[float]] = field(default_factory=dict)


def spam_free_error(
    gate: Gate,
    spec: NoiseSpec,
    scale_factors: tuple[int, ...] = (1, 3, 5),
    repeats: int = 4,
    shots: int = 1024,
    seed: int = 0,
    infinite: bool = False,
    realization: str = "atomic",
) -> FidelitySlope:
    """Gate error rate from the fidelity-vs-folding slope.

    QPT fidelities at each odd scale factor, ``repeats`` times; one
    unweighted linear fit over the full data set; the slope's standard
    deviation comes from the fit covariance.  With finite shots the
    slope is reported as fitted, negative or not; with infinite shots
    the fidelities are exact, and a slope more than three deviations
    below zero is an error.
    """
    factors = tuple(sorted(set(int(s) for s in scale_factors)))
    if len(factors) < 2:
        raise ValueError("need at least two scale factors")
    if any(s < 1 or s % 2 == 0 for s in factors):
        raise ValueError("scale factors must be odd positive integers")
    per_lambda: dict[int, list[float]] = {s: [] for s in factors}
    points = []
    for s in factors:
        r_s = composed_noisy_ptm(gate, spec, s, realization=realization)
        for rep in range(repeats):
            res = qpt_reconstruct(
                gate,
                spec,
                shots=shots,
                seed=int(np.random.SeedSequence([seed, s, rep]).generate_state(1)[0]),
                infinite=infinite,
                true_ptm=r_s,
            )
            per_lambda[s].append(res.fidelity)
            points.append((float(s), res.fidelity, 0.0))
    fit = zne_extrapolate(points)
    eps_std = float(np.sqrt(max(fit.covariance[1, 1], 0.0)))
    if infinite and -fit.slope < -3.0 * eps_std - 1e-12:
        raise ValueError("significantly negative error rate")
    return FidelitySlope(
        f0=fit.intercept,
        epsilon=-fit.slope,
        epsilon_std=eps_std,
        per_lambda=per_lambda,
    )


def fidelity_report(slope: FidelitySlope) -> str:
    """Plain-text report (fidelity figure of merit: average gate fidelity)."""
    lines = [
        "gate-folding fidelity report (average gate fidelity)",
        f"F0 (intercept)      : {slope.f0:.6f}",
        f"epsilon (slope)     : {slope.epsilon:.6e}",
        f"epsilon std         : {slope.epsilon_std:.6e}",
    ]
    for lam, vals in sorted(slope.per_lambda.items()):
        joined = ", ".join(f"{v:.6f}" for v in vals)
        lines.append(f"lambda={lam}: {joined}")
    return "\n".join(lines)
