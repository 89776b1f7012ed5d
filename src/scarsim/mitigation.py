"""Error-mitigation stack: twirling, folding ZNE, readout inversion,
subspace postselection, dynamical decoupling.

Pauli twirling dresses every two-qubit gate with uniformly random Pauli
pairs chosen to leave the logical gate unchanged.  For CNOT the closing
pair follows from Clifford conjugation; the interaction rotations
(generated by a two-qubit Pauli string) are non-Clifford for generic
angles, so the same pair closes the sandwich and the rotation angle
flips sign whenever the pair anticommutes with the generator.  Averaged
over all 16 pairs, any gate error channel becomes a stochastic Pauli
channel (diagonal Pauli transfer matrix).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import fibonacci_projector
from .noise import ConfusionMatrix, NoiseSpec, _rng, run_noisy_counts
from .qsim import (
    Circuit,
    Counts,
    Gate,
    KrausChannel,
    bit_table,
    pauli_basis_labels,
    pauli_gate,
    pauli_transfer_matrix,
)

# index convention: 0 = I, 1 = X, 2 = Y, 3 = Z

def twirl_cnot(alpha: int, beta: int) -> tuple[int, int]:
    """Closing Pauli pair (gamma, delta) with s^g s^d = CNOT s^a s^b CNOT.

    Closed-form in the Pauli indices; equality holds up to a global
    phase, verified exhaustively against matrix conjugation in tests.
    """
    if alpha not in (0, 1, 2, 3) or beta not in (0, 1, 2, 3):
        raise ValueError("Pauli indices must lie in 0..3")
    gamma = alpha + beta * (beta - 1) * (3.5 - beta) * (1.0 - 2.0 * alpha / 3.0)
    delta = beta + alpha * (alpha - 3) * (beta % 2 - 0.5)
    return int(round(gamma)), int(round(delta))


def _anticommutes(pauli: int, axis: str) -> bool:
    """Does the single-qubit Pauli anticommute with the given axis?"""
    if pauli == 0:
        return False
    return "IXYZ"[pauli] != axis


@dataclass(frozen=True)
class TwirlAssignment:
    """Dressing of one two-qubit gate: pre/post Pauli pairs and, for
    Pauli-rotation gates, the sign applied to the angle."""

    pre: tuple[int, int]
    post: tuple[int, int]
    angle_sign: int = 1


def twirl_rzz(alpha: int, beta: int) -> TwirlAssignment:
    """Twirl assignment for the ZZ rotation: same pair on both sides,
    angle sign flipped for pairs anticommuting with Z(x)Z."""
    return _twirl_rotation(alpha, beta, "ZZ")


def _twirl_rotation(alpha: int, beta: int, generator: str) -> TwirlAssignment:
    if alpha not in (0, 1, 2, 3) or beta not in (0, 1, 2, 3):
        raise ValueError("Pauli indices must lie in 0..3")
    anti = _anticommutes(alpha, generator[0]) ^ _anticommutes(beta, generator[1])
    return TwirlAssignment(pre=(alpha, beta), post=(alpha, beta), angle_sign=-1 if anti else 1)


_GENERATORS = {"RZZ": "ZZ", "RZX": "ZX"}


def twirl_is_visible(spec: NoiseSpec) -> bool:
    """Whether a twirl can change a trajectory's state under ``spec``
    beyond a global phase.

    A dressing pair P and its closing pair P' give P' G(s theta) P =
    G(theta) up to phase, and the stochastic Pauli error Q the executor
    draws after the gate passes P' as +-Q.  So a twirled gate runs as
    the bare gate, with the same error drawn from the same uniform,
    unless the spec gives the rotation a coherent overrotation (P turns
    O(over) into O(s over)) or gives the dressing Paulis a single-qubit
    error of their own.  Where it is not visible the sweep runs the
    folded circuit and draws no twirl.
    """
    return spec.coherent_overrotation != 0 or spec.single_qubit_depolarizing > 0


def twirl_circuit(circuit: Circuit, seed) -> Circuit:
    """Dress every two-qubit gate with independent uniform Pauli pairs.

    The noiseless unitary is unchanged up to a global phase.  The added
    Paulis are single-qubit gates, so the executor runs each under
    ``single_qubit_depolarizing`` like any other (see
    ``twirl_is_visible``).  The Pauli indices alpha, beta of each
    two-qubit gate, in circuit order, come from one draw of 2 N2
    integers (the same numbers as two scalar draws per gate).
    """
    draws = iter(_rng(seed).integers(4, size=2 * circuit.n_two_qubit).tolist())
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.is_two_qubit:
            gates.extend(_dressing(g.kind, g.qubits, g.angle, next(draws), next(draws)))
        else:
            gates.append(g)
    return Circuit(circuit.width, gates)


@lru_cache(maxsize=4096)  # a run uses a few angles per qubit pair, times 16 pairs
def _dressing(kind: str, qubits: tuple[int, int], angle: float | None,
              alpha: int, beta: int) -> tuple[Gate, ...]:
    """The two-qubit gate (kind, qubits, angle) dressed by the Pauli pair
    (alpha, beta) and its closing pair; identities are left out."""
    if kind == "CNOT":
        gamma, delta = twirl_cnot(alpha, beta)
        dressed = Gate(kind, qubits)
    elif kind in _GENERATORS:
        assign = _twirl_rotation(alpha, beta, _GENERATORS[kind])
        gamma, delta = assign.post
        dressed = Gate(kind, qubits, angle=assign.angle_sign * angle)
    else:
        raise ValueError(f"cannot twirl two-qubit kind {kind!r}")
    pre = [pauli_gate(idx, q) for idx, q in zip((alpha, beta), qubits)]
    post = [pauli_gate(idx, q) for idx, q in zip((gamma, delta), qubits)]
    return tuple(g for g in pre + [dressed] + post if g is not None)


def effective_twirled_noise_ptm(noise_channel: KrausChannel) -> np.ndarray:
    """Pauli transfer matrix of the twirl-averaged two-qubit noise.

    Averages [s] N [s] over all 16 Pauli pairs; the result is the
    diagonal part of N's PTM, i.e. a stochastic Pauli channel.
    """
    if noise_channel.n_qubits != 2:
        raise ValueError("expects a two-qubit channel")
    labels = pauli_basis_labels(2)
    acc = np.zeros((16, 16))
    for lab in labels:
        pauli = KrausChannel.pauli(2, {lab: 1.0}) if lab != "II" else KrausChannel.unitary(np.eye(4))
        sandwich = pauli.compose(noise_channel.compose(pauli))
        acc += pauli_transfer_matrix(sandwich)
    return acc / 16.0


# ---------------------------------------------------------------------------
# Unitary folding and zero-noise extrapolation
# ---------------------------------------------------------------------------

def fold_count(n_two_qubit: int, lam: float) -> int:
    """Folds needed for scale lam: k = round((lam-1)/2 * N2), ties up."""
    if lam < 1.0:
        raise ValueError("scale factor must be >= 1")
    raw = 0.5 * (lam - 1.0) * n_two_qubit
    return int(np.floor(raw + 0.5))


def effective_scale(n_two_qubit: int, lam: float) -> float:
    """Actually realized scale (N2 + 2k) / N2 for the rounded fold count."""
    if n_two_qubit == 0:
        return 1.0
    return (n_two_qubit + 2 * fold_count(n_two_qubit, lam)) / n_two_qubit


def block_fold_counts(n2_blocks, lam: float) -> list[int]:
    """Folds per circuit block with cumulative rounding.

    ``n2_blocks`` lists the two-qubit gates of consecutive blocks.  The
    first n blocks together get exactly fold_count(N2(n), lam) folds,
    N2(n) being the two-qubit gates they hold, so every prefix realizes
    effective_scale(N2(n), lam), as if it were folded whole.
    """
    totals = [fold_count(n2, lam) for n2 in itertools.accumulate(n2_blocks)]
    return [b - a for a, b in zip([0] + totals, totals)]


def fold_gates_random(circuit: Circuit, lam: float, seed, folds: int | None = None) -> Circuit:
    """Amplify noise by folding G -> G G^dag G on random two-qubit gates.

    ``folds`` (default fold_count(N2, lam)) gates are folded; targets are
    drawn uniformly without replacement, and past N2 folds every gate is
    folded floor(folds / N2) times and a random remainder once more.
    The noiseless unitary is unchanged.
    """
    if lam < 1.0:
        raise ValueError("scale factor must be >= 1")
    two_q = circuit.two_qubit_positions
    n2 = len(two_q)
    k = fold_count(n2, lam) if folds is None else folds
    if k < 0 or (k and not n2):
        raise ValueError(f"cannot fold {k} times over {n2} two-qubit gates")
    if k == 0:
        return circuit
    per_gate = [k // n2] * n2
    remainder = k % n2
    rng = _rng(seed)
    if remainder:
        for j in rng.choice(n2, size=remainder, replace=False):
            per_gate[j] += 1
    gates = list(circuit.gates)
    for i, f in reversed(list(zip(two_q, per_gate))):  # from the end: earlier i stay put
        if f:
            gates[i + 1:i + 1] = [gates[i].inverse(), gates[i]] * f
    return Circuit(circuit.width, gates)


@dataclass
class ZNEResult:
    """Linear extrapolation to zero noise: value = intercept + slope * lam."""

    intercept: float
    slope: float
    covariance: np.ndarray
    points: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self):
        if not np.isfinite(self.intercept):
            raise ValueError("non-finite extrapolation intercept")
        if np.min(np.linalg.eigvalsh(self.covariance)) < -1e-12:
            raise ValueError("fit covariance is not positive semidefinite")

    @property
    def intercept_std(self) -> float:
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))


# A sigma at or below this fraction of the value scale, max(1, max|value|),
# is rounding noise between exact values (for example identical twirls
# with infinite shots), not a spread: it counts as zero.
SIGMA_FLOOR = 1e-10


def weighted_line_fits(lams: np.ndarray, vals: np.ndarray,
                       sigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares lines value = c0 + c1 lam, one per row of
    the (C, n) ``vals`` and ``sigs``, with weights 1/sigma^2, over the n
    scales ``lams``, shared (n,) or one row each (C, n): (coefficients
    (C, 2), covariances (C, 2, 2)).

    The one weighted fit.  Every row is computed with the BLAS and
    LAPACK calls a single fit makes (the normal matrix and right-hand
    side as one stacked matmul each, then one stacked solve and one
    stacked inverse), so a row's result does not depend on how many
    rows are fitted with it.
    """
    design = np.stack([np.ones_like(lams), lams], axis=-1)
    design_t = np.swapaxes(design, -1, -2)
    w = 1.0 / sigs**2
    xtwx = design_t @ (design * w[:, :, None])
    coef = np.linalg.solve(xtwx, design_t @ (vals * w)[:, :, None])[:, :, 0]
    return coef, np.linalg.inv(xtwx)


def zne_extrapolate(points) -> ZNEResult:
    """Weighted least-squares line through (lam, value, sigma) points
    (``weighted_line_fits``).

    Weights are 1/sigma^2; if any sigma is zero (exact values, or at most
    SIGMA_FLOOR of the value scale) the fit falls back to an unweighted
    one with residual-based covariance, and those points are recorded
    with sigma 0.
    """
    pts = [(float(l), float(v), float(s)) for l, v, s in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    lams = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    sigs = np.array([p[2] for p in pts])
    if np.ptp(lams) == 0:
        raise ValueError("degenerate design matrix: all scale factors equal")
    design = np.column_stack([np.ones_like(lams), lams])
    exact = sigs <= SIGMA_FLOOR * max(1.0, float(np.max(np.abs(vals))))
    if np.any(exact):
        pts = [(l, v, 0.0 if e else s) for (l, v, s), e in zip(pts, exact)]
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = vals - design @ coef
        dof = max(len(pts) - 2, 1)
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(design.T @ design)
    else:
        coef, cov = weighted_line_fits(lams, vals[None], sigs[None])
        coef, cov = coef[0], cov[0]
    return ZNEResult(intercept=float(coef[0]), slope=float(coef[1]),
                     covariance=cov, points=pts)


# ---------------------------------------------------------------------------
# Readout mitigation
# ---------------------------------------------------------------------------

def mitigate_readout(counts: Counts, m: ConfusionMatrix) -> Counts:
    """Invert the confusion matrix: quasi-counts, negatives preserved.

    Negative entries are kept (clipping would bias expectation values);
    the result is flagged ``quasi`` whenever any appear.
    """
    if m.L != counts.width:
        raise ValueError("confusion matrix width mismatch")
    if m.method == "full" and counts.width > 12:
        raise ValueError("full-matrix inversion limited to L <= 12")
    vec = m.invert_vector(counts.vector)
    quasi = bool(np.any(vec < -1e-12))
    return Counts.from_vector(vec, counts.width, counts.total_shots, quasi=quasi)


def calibrate_confusion(
    spec: NoiseSpec,
    L: int,
    shots: int,
    method: str = "tensor",
    seed: int = 0,
    infinite: bool = False,
) -> ConfusionMatrix:
    """Estimate the readout matrix from simulated calibration circuits.

    tensor: prepare all-zeros and all-ones, read per-qubit flip rates.
    full (L <= 12): prepare every basis state; columns are the measured
    distributions.
    """
    if shots < 1:
        raise ValueError("calibration needs at least one shot")
    from .qsim import x as xgate

    if method == "tensor":
        zeros = run_noisy_counts(
            Circuit(L), spec, shots, [seed, 0], infinite=infinite
        )
        ones = run_noisy_counts(
            Circuit(L, [xgate(q) for q in range(L)]), spec, shots, [seed, 1],
            infinite=infinite,
        )
        p0 = zeros.vector / zeros.total_shots
        p1 = ones.vector / ones.total_shots
        bits = bit_table(L)
        eps = [float(p0[bits[:, q] == 1].sum()) for q in range(L)]
        eta = [float(p1[bits[:, q] == 0].sum()) for q in range(L)]
        return ConfusionMatrix.from_rates(L, eps, eta)
    if method == "full":
        if L > 12:
            raise ValueError("full calibration limited to L <= 12")
        dim = 2**L
        mat = np.zeros((dim, dim))
        for b, bits in enumerate(bit_table(L)):
            prep = Circuit(L, [xgate(q) for q in np.flatnonzero(bits)])
            counts = run_noisy_counts(prep, spec, shots, [seed, 2, b], infinite=infinite)
            mat[:, b] = counts.vector / counts.total_shots
        return ConfusionMatrix("full", L, matrix=mat)
    raise ValueError("method must be 'tensor' or 'full'")


# ---------------------------------------------------------------------------
# Postselection into the adjacent-1-free subspace
# ---------------------------------------------------------------------------

@dataclass
class PostselectionResult:
    counts: Counts
    retained_fraction: float
    empty: bool


def postselect(counts: Counts) -> PostselectionResult:
    """Zero every outcome with two adjacent 1s; record the retained weight.

    Quasi-count inputs are filtered outcome by outcome before any
    renormalization happens downstream.  An empty retained set is
    flagged rather than raised; consumers must check.
    """
    vec = counts.vector
    kept = vec * fibonacci_projector(counts.width).mask
    total_in = float(vec.sum())
    total_kept = float(kept.sum())
    retained = total_kept / total_in if total_in != 0 else 0.0
    empty = not kept.any() or total_kept <= 0
    out = Counts(kept, total_shots=total_kept, quasi=counts.quasi)
    return PostselectionResult(counts=out, retained_fraction=retained, empty=empty)


# ---------------------------------------------------------------------------
# Dynamical decoupling
# ---------------------------------------------------------------------------

def insert_dd(circuit: Circuit, t_x_pi_ns: float) -> Circuit:
    """Fill idle windows with the echo tau/4 - X_pi - tau/2 - X_-pi - tau/4.

    Each DELAY longer than twice the pi-pulse duration is replaced by
    the four-segment sequence with total delay tau = T - 2 t_x_pi; the
    paired pi rotations cancel any quasi-static Z rotation accrued
    during the window.  Shorter delays are left untouched.
    """
    if t_x_pi_ns <= 0:
        raise ValueError("pi-pulse duration must be positive")
    gates: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "DELAY" or g.duration_ns <= 2 * t_x_pi_ns:
            gates.append(g)
            continue
        q = g.qubits[0]
        tau = g.duration_ns - 2 * t_x_pi_ns
        gates.extend(
            [
                Gate("DELAY", (q,), duration_ns=tau / 4),
                Gate("RX", (q,), angle=np.pi),
                Gate("DELAY", (q,), duration_ns=tau / 2),
                Gate("RX", (q,), angle=-np.pi),
                Gate("DELAY", (q,), duration_ns=tau / 4),
            ]
        )
    return Circuit(circuit.width, gates)
