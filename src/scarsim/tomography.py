"""Process tomography of noisy two-qubit gates and SPAM-free slopes.

The tomography runs all 16 product preparations drawn from
{|0>, |1>, |X+>, |Y+>} per qubit against all 9 product measurement
bases {X, Y, Z}^2, reconstructs the Pauli transfer matrix by linear
inversion, and scores the average gate fidelity against the ideal
unitary.  Readout confusion (when present in the noise spec) distorts
the measured distributions exactly as in circuit execution, so the
reconstruction sees SPAM.

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
from .noise import ConfusionMatrix, NoiseSpec, noisy_gate_channel
from .qsim import (
    Circuit,
    Gate,
    KrausChannel,
    circuit_unitary,
    gate_matrix,
    pauli_basis_matrices,
    pauli_transfer_matrix,
)

_P1 = pauli_basis_matrices(1)
_PREP_STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "X+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "Y+": np.array([1, 1j], dtype=complex) / np.sqrt(2),
}
_PREP_LABELS = ("0", "1", "X+", "Y+")
_MEAS_BASES = ("X", "Y", "Z")
# rotation mapping the measured basis onto Z: B_rot^dag Z B_rot = basis
_BASIS_ROT = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),  # H
    "Y": (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    @ np.array([[1, 0], [0, -1j]], dtype=complex),  # H S^dag
    "Z": np.eye(2, dtype=complex),
}
_PAULI_INDEX = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def _prep_density(labels: tuple[str, str]) -> np.ndarray:
    vec = np.kron(_PREP_STATES[labels[0]], _PREP_STATES[labels[1]])
    return np.outer(vec, vec.conj())


def _pauli_coords(rho: np.ndarray) -> np.ndarray:
    basis = pauli_basis_matrices(2)
    return np.array([np.trace(p @ rho).real for p in basis])


def _rho_from_coords(coords: np.ndarray) -> np.ndarray:
    basis = pauli_basis_matrices(2)
    rho = np.zeros((4, 4), dtype=complex)
    for c, p in zip(coords, basis):
        rho += c * p
    return rho / 4.0


def gate_ptm(gate: Gate | np.ndarray) -> np.ndarray:
    """PTM of an ideal two-qubit gate or unitary matrix."""
    u = gate_matrix(gate) if isinstance(gate, Gate) else np.asarray(gate)
    return pauli_transfer_matrix(KrausChannel.unitary(u))


def realized_gate_ptms(gate: Gate, spec: NoiseSpec, realization: str = "atomic"
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse) noisy-channel PTMs of one realized gate.

    atomic: the gate (or its inverse) is a single noisy two-qubit unit.
    An RZZ gate may instead be compiled as any ``bond_gates``
    realization at +-angle: each of its two-qubit gates runs as
    ``noisy_gate_channel``, its single-qubit gates are ideal.
    """
    if realization == "atomic":
        sequences = [[gate], [gate.inverse()]]
    elif gate.kind != "RZZ":
        raise ValueError("compiled realizations exist only for RZZ gates")
    else:
        sequences = [bond_gates(0, 1, sign * gate.angle, realization) for sign in (1.0, -1.0)]
    fwd, inv = (_sequence_ptm(gates, spec) for gates in sequences)
    return fwd, inv


def _sequence_ptm(gates: list[Gate], spec: NoiseSpec) -> np.ndarray:
    """PTM of ``gates`` in order on two qubits: each two-qubit gate as
    ``noisy_gate_channel``, each single-qubit gate ideal."""
    out = np.eye(16)
    for g in gates:
        if g.is_two_qubit:
            out = pauli_transfer_matrix(noisy_gate_channel(g, spec)) @ out
        else:
            out = gate_ptm(circuit_unitary(Circuit(2, [g]))) @ out
    return out


def composed_noisy_ptm(gate: Gate, spec: NoiseSpec, scale: int,
                       realization: str = "atomic") -> np.ndarray:
    """PTM of the folded sequence G (Gdag G)^((scale-1)/2), each
    application followed by the gate's error channel (identical for G
    and Gdag)."""
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
    basis = pauli_basis_matrices(2)
    d2 = len(basis)
    out = np.zeros((16, 16), dtype=complex)
    for a in range(d2):
        for b in range(d2):
            if ptm[a, b] != 0.0:
                out += ptm[a, b] * np.kron(basis[a], basis[b].T)
    return out / d2


@dataclass
class QPTResult:
    """Linear-inversion reconstruction of a two-qubit channel."""

    ptm: np.ndarray
    fidelity: float
    shots: float
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
    confusion = None
    if spec.has_readout_error():
        confusion = ConfusionMatrix.from_rates(2, spec.readout_eps, spec.readout_eta)

    preps = [(a, b) for a in _PREP_LABELS for b in _PREP_LABELS]
    prep_coords = np.array([_pauli_coords(_prep_density(p)) for p in preps])
    meas_sum = np.zeros((16, 16))
    meas_cnt = np.zeros((16, 16))

    for k, prep in enumerate(preps):
        out_coords = r_true @ prep_coords[k]
        rho_out = _rho_from_coords(out_coords)
        for s_idx, (b1, b2) in enumerate(
            (x, y) for x in _MEAS_BASES for y in _MEAS_BASES
        ):
            # applying rot then reading Z measures rot^dag Z rot = basis
            rot = np.kron(_BASIS_ROT[b1], _BASIS_ROT[b2])
            probs = np.real(np.diag(rot @ rho_out @ rot.conj().T)).copy()
            probs[probs < 0] = 0.0
            probs /= probs.sum()
            if confusion is not None:
                probs = confusion.apply_to_vector(probs)
            if not infinite:
                rng = np.random.default_rng([seed, k, s_idx])
                draws = rng.multinomial(shots, probs)
                probs = draws / shots
            # expectations of all Paulis supported by this basis setting
            z1 = np.array([1, 1, -1, -1]) * 1.0
            z2 = np.array([1, -1, 1, -1]) * 1.0
            ev = {
                (0, 0): 1.0,
                (_PAULI_INDEX[b1], 0): float(probs @ z1),
                (0, _PAULI_INDEX[b2]): float(probs @ z2),
                (_PAULI_INDEX[b1], _PAULI_INDEX[b2]): float(probs @ (z1 * z2)),
            }
            for (a1, a2), val in ev.items():
                a = 4 * a1 + a2
                meas_sum[a, k] += val
                meas_cnt[a, k] += 1.0

    m = meas_sum / meas_cnt
    s_t = prep_coords.T  # S^T with S[k, b] = Tr[P_b rho_k]
    cond = float(np.linalg.cond(s_t))
    r_est = m @ np.linalg.inv(prep_coords).T
    fid = average_gate_fidelity(r_est, gate_matrix(gate))
    choi_eigs = np.linalg.eigvalsh(choi_from_ptm(r_est))
    return QPTResult(
        ptm=r_est,
        fidelity=fid,
        shots=float(shots),
        condition_number=cond,
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
