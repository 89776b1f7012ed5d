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


def line_fits(lams, vals) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines value = c0 + c1 lam, one per row of the (R, n)
    samples ``vals`` at the scales ``lams`` (shared (n,) or one row each
    (R, n)), a non-finite value (NaN) marking a missing sample:
    (coefficients (R, 2), covariances (R, 2, 2)).

    Every finite sample of a row weighs the same.  Over two or more
    distinct scales a row gets the closed-form fit and the covariance
    s^2 (X^T X)^-1, with s^2 = RSS / max(n - 2, 1) over its n samples.
    Over one distinct scale it gets the mean of its samples as c0 and
    their ddof-1 variance (0 for one sample) as the (0, 0) covariance;
    the slope and the rest of the covariance are NaN.  A row without
    samples is all NaN.
    """
    vals = np.asarray(vals, dtype=float)
    ok = np.isfinite(vals)
    lams = np.where(ok, lams, np.nan)
    n = ok.sum(axis=1)
    line = np.fmax.reduce(lams, axis=1) > np.fmin.reduce(lams, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        x_bar = np.nansum(lams, axis=1) / n
        y_bar = np.nansum(vals, axis=1) / n
        dx = np.where(line[:, None], lams - x_bar[:, None], 0.0)
        dy = vals - y_bar[:, None]
        sxx = np.nansum(dx * dx, axis=1)
        slope = np.where(line, np.nansum(dx * dy, axis=1) / sxx, 0.0)
        rss = np.nansum((dy - slope[:, None] * dx) ** 2, axis=1)
        # residual dof: n less the 2 parameters of a line, or the 1 of a mean
        s2 = np.where(n > 0, rss / np.maximum(n - 1 - line, 1), np.nan)
        inv = np.stack([1.0 / n + x_bar**2 / sxx, -x_bar / sxx,
                        -x_bar / sxx, 1.0 / sxx], axis=1).reshape(-1, 2, 2)  # (X^T X)^-1
    inv[~line] = [[1.0, np.nan], [np.nan, np.nan]]
    coef = np.stack([y_bar - slope * x_bar, np.where(line, slope, np.nan)], axis=1)
    return coef, s2[:, None, None] * inv


def zne_extrapolate(points) -> ZNEResult:
    """Least-squares line through (lam, value, sigma) points, the one-row
    case of ``line_fits``.  Every point weighs the same, so sigma is not
    used; the points are recorded with sigma 0."""
    pts = [(float(l), float(v), 0.0) for l, v, _ in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    lams, vals = np.array([p[:2] for p in pts]).T
    if not (np.isfinite(lams).all() and np.isfinite(vals).all()):
        raise ValueError("non-finite point")
    if np.ptp(lams) == 0:
        raise ValueError("degenerate design matrix: all scale factors equal")
    coef, cov = line_fits(lams, vals[None])
    return ZNEResult(intercept=float(coef[0, 0]), slope=float(coef[0, 1]),
                     covariance=cov[0], points=pts)


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
    vec = m.invert_vector(counts.vector)
    quasi = bool(np.any(vec < -1e-12))
    return Counts.from_vector(vec, counts.width, counts.total_shots, quasi=quasi)


def calibrate_confusion(
    spec: NoiseSpec,
    L: int,
    shots: int,
    seed: int = 0,
    infinite: bool = False,
    shots_per_trajectory: int = 1024,
) -> ConfusionMatrix:
    """Estimate the per-qubit readout factors from two simulated
    calibration circuits: prepare all-zeros and all-ones and read each
    qubit's flip rates 0 -> 1 (eps) and 1 -> 0 (eta).  Each circuit runs
    as ``run_noisy_counts`` runs it at ``shots_per_trajectory``.  The
    inverse is built here: a factor without one raises its ``LinAlgError``
    before any counts are inverted."""
    if shots < 1:
        raise ValueError("calibration needs at least one shot")
    from .qsim import x as xgate

    kw = dict(infinite=infinite, shots_per_trajectory=shots_per_trajectory)
    zeros = run_noisy_counts(Circuit(L), spec, shots, [seed, 0], **kw)
    ones = run_noisy_counts(Circuit(L, [xgate(q) for q in range(L)]), spec, shots, [seed, 1], **kw)
    p0 = zeros.vector / zeros.total_shots
    p1 = ones.vector / ones.total_shots
    bits = bit_table(L)
    eps = [float(p0[bits[:, q] == 1].sum()) for q in range(L)]
    eta = [float(p1[bits[:, q] == 0].sum()) for q in range(L)]
    m = ConfusionMatrix.from_rates(L, eps, eta)
    m._inverse  # raises here if a factor has no inverse
    return m


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
