"""Phenomenological hardware noise driven by a pulse-duration model.

The two-qubit interaction gate can be compiled two ways: a fixed pair of
CNOTs (duration independent of the rotation angle) or a single
cross-resonance pulse whose square-Gaussian envelope is rescaled to the
angle (duration constant below an amplitude threshold, affine above).
Longer schedules mean larger stochastic error, modeled as
p = 1 - exp(-duration / tau), with tau calibrated so the two-CNOT
compilation hits a configurable target error rate.

Noisy execution samples Pauli-insertion trajectories over the
statevector (exact for stochastic Pauli channels).  Exact density-matrix
evolution (``run_noisy_density``, each gate a local superoperator on the
tensor of rho, width <= ``DENSITY_MAX_WIDTH``) is its independent
oracle, and also gives process tomography the realized gate channels.
Relaxation (amplitude damping) is deliberately absent: it is not a Pauli
channel and would break exact trajectory unraveling; only Z-type
dephasing is modeled, leaving damping as a density-matrix extension.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache, reduce

import numpy as np

from .model import bond_gates
from .qsim import (
    Circuit,
    Counts,
    DensityOperator,
    Gate,
    Statevector,
    _apply_matrix,
    bit_table,
    gate_matrix,
    pauli_basis_labels,
    pauli_basis_matrices,
)

TWO_QUBIT_PAULI_LABELS = [lab for lab in pauli_basis_labels(2) if lab != "II"]


@dataclass(frozen=True)
class PulseParams:
    """Square-Gaussian cross-resonance pulse calibration.

    ``amp_ref`` and ``width_ref`` are the amplitude |A(pi/2)| and square
    width W(pi/2) (in samples) of the reference pulse; ``sigma`` is the
    Gaussian flank std, truncated at ``n_sigma`` deviations.  One sample
    lasts ``sample_dt_ns``.  ``single_pulse_ns`` is the duration of one
    single-qubit pulse (dressing/echo overhead, also the DD X-pulse
    length).
    """

    amp_ref: float = 0.25
    width_ref: float = 640.0
    sigma: float = 32.0
    n_sigma: float = 2.0
    sample_dt_ns: float = 0.2222
    single_pulse_ns: float = 35.5

    def __post_init__(self):
        for name in ("amp_ref", "sigma", "sample_dt_ns", "single_pulse_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.width_ref < 0:
            raise ValueError("width_ref must be >= 0")
        if self.n_sigma < 1:
            raise ValueError("n_sigma must be >= 1")


def gaussian_flank_area_per_amp(pp: PulseParams) -> float:
    """sigma * sqrt(2 pi) * erf(n_sigma): flank area per unit amplitude."""
    return pp.sigma * math.sqrt(2.0 * math.pi) * math.erf(pp.n_sigma)


def pulse_area(pp: PulseParams) -> float:
    """Total area |A| W + |A| sigma sqrt(2 pi) erf(n_sigma) of the reference pulse."""
    return pp.amp_ref * pp.width_ref + pp.amp_ref * gaussian_flank_area_per_amp(pp)


def threshold_angle(pp: PulseParams) -> float:
    """Angle below which the width hits zero and only the amplitude scales."""
    alpha = pulse_area(pp)
    return (math.pi / (2.0 * alpha)) * pp.amp_ref * gaussian_flank_area_per_amp(pp)


def scaled_width(theta: float, pp: PulseParams) -> float:
    """Square width W(theta) for angles at or above the threshold."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    if theta < threshold_angle(pp):
        return 0.0
    alpha = pulse_area(pp)
    return 2.0 * alpha * theta / (math.pi * pp.amp_ref) - gaussian_flank_area_per_amp(pp)


def cr_pulse_ns(theta: float, pp: PulseParams) -> float:
    """Duration of one scaled CR pulse: square width plus both flanks."""
    samples = scaled_width(theta, pp) + 2.0 * pp.n_sigma * pp.sigma
    return samples * pp.sample_dt_ns


def cnot_duration_ns(pp: PulseParams) -> float:
    """Echoed CR pair at the reference angle plus single-qubit overhead."""
    return 2.0 * cr_pulse_ns(math.pi / 2.0, pp) + 2.0 * pp.single_pulse_ns


def gate_duration_ns(gate: Gate, pp: PulseParams) -> float:
    """Pulse-schedule duration in ns of one physical two-qubit gate.

    CNOT: the echoed CR pair at the reference angle.  RZX and RZZ: one
    echoed pair of CR pulses scaled to |angle| plus dressing overhead.
    """
    if gate.kind == "CNOT":
        return cnot_duration_ns(pp)
    if gate.kind in ("RZX", "RZZ"):
        return 2.0 * cr_pulse_ns(abs(gate.angle), pp) + 2.0 * pp.single_pulse_ns
    raise ValueError(f"no duration model for two-qubit kind {gate.kind!r}")


def rzz_duration(theta: float, impl: str, pp: PulseParams) -> float:
    """Pulse-schedule duration in ns of the interaction gate at ``theta``
    compiled as ``impl``: the two-qubit gates of ``bond_gates`` in turn
    (single-qubit rotations of the two-CNOT form are virtual phase
    shifts; the RZX dressing is inside its gate duration)."""
    return sum(gate_duration_ns(g, pp) for g in bond_gates(0, 1, theta, impl) if g.is_two_qubit)


def gate_error_rate(duration_ns: float, tau_err_ns: float) -> float:
    """p = 1 - exp(-duration/tau): zero at zero duration, monotone."""
    if duration_ns < 0:
        raise ValueError("duration must be >= 0")
    return 1.0 - math.exp(-duration_ns / tau_err_ns)


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological error model for circuit execution.

    Two-qubit gate errors come from one of two sources, in precedence
    order: a fixed depolarizing parameter, or the pulse-duration law
    calibrated so the two-CNOT interaction gate hits
    ``two_qubit_target_error``.  Readout errors are per-qubit (eps:
    0->1, eta: 1->0).  Idle dephasing is a
    quasi-static per-trajectory Z rotation rate (std in rad/ns), which
    dynamical decoupling echoes out; the optional stochastic variant is
    a per-idle Z flip that DD does not cancel.
    """

    pulse: PulseParams = field(default_factory=PulseParams)
    two_qubit_depolarizing: float | None = None
    two_qubit_target_error: float = 0.016
    single_qubit_depolarizing: float = 0.0
    readout_eps: float = 0.0
    readout_eta: float = 0.0
    idle_dephasing_rad_per_ns: float = 0.0
    idle_stochastic_rate_per_ns: float = 0.0
    coherent_overrotation: float = 0.0

    def __post_init__(self):
        for name in ("two_qubit_depolarizing", "two_qubit_target_error",
                     "single_qubit_depolarizing", "readout_eps", "readout_eta"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.two_qubit_target_error == 1.0:
            raise ValueError("two_qubit_target_error must be below 1 (it sets a finite tau)")
        for name in ("idle_dephasing_rad_per_ns", "idle_stochastic_rate_per_ns",
                     "coherent_overrotation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("idle_dephasing_rad_per_ns", "idle_stochastic_rate_per_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def tau_err_ns(self) -> float:
        """Calibrated so the two-CNOT interaction gate hits the target error."""
        d = rzz_duration(2.0, "two-cnot", self.pulse)
        return -d / math.log(1.0 - self.two_qubit_target_error)

    def two_qubit_error_prob(self, gate: Gate) -> float:
        """Depolarizing weight attached to one physical two-qubit gate."""
        if self.two_qubit_depolarizing is not None:
            return self.two_qubit_depolarizing
        if self.two_qubit_target_error == 0.0:
            return 0.0
        return gate_error_rate(gate_duration_ns(gate, self.pulse), self.tau_err_ns())

    def pauli_distribution(self, gate: Gate) -> tuple[list[str], np.ndarray]:
        """(labels, probabilities) of the stochastic Pauli error after
        ``gate``, the one statement of every error trajectories draw.

        A two-qubit gate's depolarizing weight p puts p/16 on each of the
        15 non-identity pairs, i.e. rho -> (1-p) rho + p I/4.  A
        single-qubit gate puts ``single_qubit_depolarizing``/4 on each of
        X, Y and Z.  A DELAY of d ns flips Z with probability
        (1 - exp(-d ``idle_stochastic_rate_per_ns``)) / 2, the stochastic
        idle error; its quasi-static dephasing is no Pauli draw.
        """
        if gate.kind == "DELAY":
            return ["Z"], np.array(
                [0.5 * (1.0 - math.exp(-gate.duration_ns * self.idle_stochastic_rate_per_ns))])
        if not gate.is_two_qubit:
            return ["X", "Y", "Z"], np.full(3, self.single_qubit_depolarizing / 4.0)
        p = self.two_qubit_error_prob(gate)
        return TWO_QUBIT_PAULI_LABELS, np.full(15, p / 16.0)

    def has_readout_error(self) -> bool:
        return self.readout_eps > 0.0 or self.readout_eta > 0.0

    @cached_property
    def _memo(self) -> dict:
        """Values the executor derives from this spec, computed once each
        (the spec is frozen, so none goes stale; ``replace`` starts a new
        memo): plan entries keyed (kind, angle, duration), forward
        readout matrices keyed ("readout", width), the circuit plans
        of ``_NoisePlan.of`` under "plans", the density oracle's gate
        superoperators keyed ("superoperator", kind, angle, duration) and
        the realized gate PTMs of ``tomography.realized_gate_ptms`` keyed
        ("ptms", ...)."""
        return {}

    def _memoized(self, key, build):
        """``build()``, computed on the first request for ``key`` only."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


def noiseless() -> NoiseSpec:
    return NoiseSpec(two_qubit_target_error=0.0)


def casablanca_like(**overrides) -> NoiseSpec:
    """Default device preset.

    The pulse constants are representative, not a device calibration:
    they put the amplitude threshold just below the benchmark grid start
    (0.2 rad) and land the scaled gate strictly shorter than the
    two-CNOT schedule for theta <= 2.5.
    """
    base = NoiseSpec(
        pulse=PulseParams(),
        two_qubit_target_error=0.016,
        readout_eps=0.03,
        readout_eta=0.02,
    )
    return replace(base, **overrides) if overrides else base


PRESETS = {
    "noiseless": noiseless,
    "casablanca-like": casablanca_like,
}


def preset(name: str, **overrides) -> NoiseSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown noise preset {name!r}; have {sorted(PRESETS)}")
    spec = PRESETS[name]()
    return replace(spec, **overrides) if overrides else spec


# NoiseSpec fields that hold one number, the only ones an experiment
# config may set through ``override.<name>``.
SCALAR_FIELDS = frozenset(
    f.name for f in fields(NoiseSpec) if f.name != "pulse"
)

def _overrotated_matrix(gate: Gate, over: float) -> np.ndarray:
    """The gate's unitary followed by the coherent overrotation
    exp(-i over G/2), G = ZZ after RZZ and ZX after RZX; every other
    gate, CNOT included, is returned as it is."""
    mat = gate_matrix(gate)
    if over and gate.kind in ("RZZ", "RZX"):
        mat = gate_matrix(Gate(gate.kind, (0, 1), angle=over)) @ mat
    return mat


# ---------------------------------------------------------------------------
# Readout confusion
# ---------------------------------------------------------------------------

@dataclass
class ConfusionMatrix:
    """Readout error matrix M with M @ p_ideal = p_noisy, stored as one
    2x2 factor per qubit (qubit 0 first): M is their Kronecker product.
    Columns of each factor sum to one."""

    L: int
    factors: list[np.ndarray]

    def __post_init__(self):
        if len(self.factors) != self.L:
            raise ValueError("need one 2x2 factor per qubit")
        for f in self.factors:
            if f.shape != (2, 2) or np.any(f < -1e-12):
                raise ValueError("confusion factors must be nonnegative 2x2")
            if np.max(np.abs(f.sum(axis=0) - 1.0)) > 1e-9:
                raise ValueError("confusion factor columns must sum to 1")

    @classmethod
    def from_rates(cls, L: int, eps, eta) -> "ConfusionMatrix":
        eps = np.broadcast_to(np.asarray(eps, dtype=float), (L,))
        eta = np.broadcast_to(np.asarray(eta, dtype=float), (L,))
        factors = [
            np.array([[1.0 - e, n], [e, 1.0 - n]]) for e, n in zip(eps, eta)
        ]
        return cls(L, factors)

    @cached_property
    def _forward(self) -> list[np.ndarray]:
        """``_kron_blocks`` of the factors, built once."""
        return _kron_blocks(self.factors)

    @cached_property
    def _inverse(self) -> list[np.ndarray]:
        """``_kron_blocks`` of the factors' inverses, built on the first
        inversion only, so a forward channel needs none.  A factor without
        a usable inverse raises ``LinAlgError`` (a ``ValueError``) naming
        its qubit and rates."""
        for q, f in enumerate(self.factors):
            eps, eta = float(f[1, 0]), float(f[0, 1])
            if singular_readout(eps, eta):
                raise np.linalg.LinAlgError(f"the readout factor of qubit {q} has no inverse: "
                                            f"eps = {eps} and eta = {eta} sum to 1 or more")
        return _kron_blocks([np.linalg.inv(f) for f in self.factors])

    def apply_to_vector(self, vec: np.ndarray) -> np.ndarray:
        """Forward direction: p_noisy = M p_ideal, over the last axis of
        ``vec`` (one vector or a stack of rows)."""
        return _apply_factors(self._forward, vec)

    def invert_vector(self, vec: np.ndarray) -> np.ndarray:
        """Inverse direction: p_ideal = M^-1 p_noisy (may go negative),
        over the last axis of ``vec``."""
        return _apply_factors(self._inverse, vec)


def singular_readout(eps: float, eta: float) -> bool:
    """Whether the factor [[1-eps, eta], [eps, 1-eta]] has no usable inverse:
    its determinant 1 - eps - eta is 0 or below, up to the 1e-9 below
    which rounding, amplified by the inverse, no longer keeps an inverted
    vector's total.  Below 0 an inverse exists, but the factor reads a 1
    no likelier from a 1 than from a 0 (eps = eta = 1 is a bit swap), so
    inverting it turns a qubit's readout around instead of mending it."""
    return eps + eta >= 1.0 - 1e-9


# Widest Kronecker block of readout factors: a k-qubit block is one pass
# at 2^k multiply-adds per entry, so 4 cuts the passes fourfold and keeps
# each cheap.
READOUT_BLOCK_QUBITS = 4


def _kron_blocks(factors: list[np.ndarray]) -> list[np.ndarray]:
    """Kronecker products of runs of consecutive 2x2 factors, qubit 0
    first: ceil(L / READOUT_BLOCK_QUBITS) runs of near-equal length."""
    runs = np.array_split(np.arange(len(factors)), -(-len(factors) // READOUT_BLOCK_QUBITS))
    return [reduce(np.kron, [factors[q] for q in run]) for run in runs]


def _apply_factors(blocks: list[np.ndarray], vec: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of ``blocks`` (qubit 0 most
    significant) to the last axis of ``vec``, one vector or a (T, 2^L)
    stack: each block is one matmul over a reshape of that axis."""
    out, high = vec, 1
    for b in blocks:
        d = len(b)
        low = vec.shape[-1] // (high * d)
        out = out.reshape(-1, d) @ b.T if low == 1 else b @ out.reshape(-1, d, low)
        high *= d
    return out.reshape(vec.shape)


def apply_readout_error(probs: np.ndarray, m: ConfusionMatrix) -> np.ndarray:
    """Forward readout noise as a channel: M over the last axis of
    ``probs``, one distribution or a (T, 2^L) stack.  Sampling n shots
    from p and flipping each bit of each shot by its qubit's factor has
    the law Multinomial(n, M p), so shots drawn after this are read out."""
    if probs.shape[-1] != 1 << m.L:
        raise ValueError("confusion matrix width mismatch")
    return m.apply_to_vector(probs)


# ---------------------------------------------------------------------------
# Noisy execution: trajectory unfolding over the statevector
# ---------------------------------------------------------------------------

_PAULI_MATS = {
    lab: m for n in (1, 2) for lab, m in zip(pauli_basis_labels(n), pauli_basis_matrices(n))
}

_EYE2 = np.eye(2, dtype=complex)

# Widest window of gates the plan runs as one kernel pass.  Up to here a
# pass costs about as much as a 2-qubit one (1.1-1.4 times, at 4 qubits);
# the matrix work per amplitude doubles with each further qubit.
WINDOW_QUBITS = 4

# Plans a spec keeps for reuse (``_NoisePlan.of``), least recently used
# dropped first.  A plan of one folded L=12 Trotter step takes about
# 30 KiB (measured with tracemalloc), so a full memo holds about 2 MiB.
PLAN_MEMO = 64

_EYES = [np.eye(1 << k, dtype=complex) for k in range(WINDOW_QUBITS + 1)]
for _eye in _EYES:
    _eye.flags.writeable = False

_UINT32 = 1 << 32


def _rng(key) -> np.random.Generator:
    """``np.random.default_rng(key)`` for an int or a sequence of ints.

    A key whose parts are all ints in [0, 2^32) is passed as the uint32
    array ``SeedSequence`` would coerce it to (one word per part), so the
    pool and the stream are the same while the per-part coercion, most
    of a construction's cost, is skipped.  Any other key goes to
    ``default_rng`` as it is."""
    parts = [key] if isinstance(key, int) else key
    if all(type(p) is int and 0 <= p < _UINT32 for p in parts):
        key = np.array(parts, dtype=np.uint32)
    return np.random.default_rng(key)


def _plan_entry(spec: NoiseSpec, g: Gate):
    """A gate as ``_NoisePlan`` runs it under ``spec``: (overrotated
    matrix, cumulative probabilities of ``spec.pauli_distribution(g)``,
    the Pauli matrices, their total).  It depends on the gate's kind,
    angle and duration only, so it is built once per spec."""

    def build():
        labels, probs = spec.pauli_distribution(g)
        cum = np.cumsum(probs)
        return (_overrotated_matrix(g, spec.coherent_overrotation), cum,
                [_PAULI_MATS[lab] for lab in labels], float(cum[-1]))

    return spec._memoized((g.kind, g.angle, g.duration_ns), build)


@lru_cache(maxsize=None)
def _lift_table(positions: tuple[int, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, mask) with m.ravel()[idx] * mask the matrix m on the local
    ``positions`` of a k-qubit window, lifted to the window's 2^k space
    (position 0 is the most significant bit, as in the kernel)."""
    bits = bit_table(k).astype(np.int64)
    rest = [p for p in range(k) if p not in positions]
    sub = bits[:, list(positions)] @ (1 << np.arange(len(positions) - 1, -1, -1))
    other = bits[:, rest] @ (1 << np.arange(len(rest) - 1, -1, -1))
    idx = sub[:, None] * (1 << len(positions)) + sub[None, :]
    mask = (other[:, None] == other[None, :]).astype(float)
    idx.flags.writeable = mask.flags.writeable = False
    return idx, mask


def _lift(mat: np.ndarray, positions: tuple[int, ...], k: int) -> np.ndarray:
    """``mat`` on the local ``positions`` of a k-qubit window, lifted to
    the window's 2^k space."""
    idx, mask = _lift_table(positions, k)
    return mat.ravel()[idx] * mask


def _lifted_times(mat: np.ndarray, positions: tuple[int, ...], k: int,
                  right: np.ndarray) -> np.ndarray:
    """_lift(mat, positions, k) @ right.  On adjacent positions in
    ascending order (members act on one or two qubits), the usual case
    in a brickwork window, this is one matmul over a reshape of
    ``right``, without building the lift."""
    p = positions[0]
    if len(positions) == 1 or positions[1] == p + 1:
        return (mat @ right.reshape(1 << p, len(mat), -1)).reshape(right.shape)
    return _lift(mat, positions, k) @ right


def _window_op(qset: set[int], members: list[tuple]) -> tuple:
    """The plan op of one window: ("window", qubits, W, members, noisy,
    draws).  ``members`` lists (local positions, matrix) in run order and
    W is their product; ``noisy`` lists (member index, cumulative Pauli
    probabilities, Pauli matrices) of each member that draws an error,
    with its draw index in ``draws``.  Members are kept only if some are
    noisy."""
    qubits = tuple(sorted(qset))
    k = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    lifted, noisy, draws = [], [], []
    window = _EYES[k]
    for i, (mq, mat, noise) in enumerate(members):
        pos = tuple(map(local.__getitem__, mq))
        lifted.append((pos, mat))
        window = _lifted_times(mat, pos, k, window)
        if noise is not None:
            draw, cum, paulis = noise
            noisy.append((i, cum, paulis))
            draws.append(draw)
    if not noisy:
        return ("window", qubits, window, [], [], None)
    return ("window", qubits, window, lifted, noisy, np.array(draws))


def _corrections(members, noisy, hit: np.ndarray, u: np.ndarray, k: int):
    """One correction per row of ``hit`` (rows x noisy members: where the
    row drew an error; ``u`` holds the draws), yielded row by row: the
    product, in draw order, of C_j = S_j P S_j^dag over the members j
    where the row drew the Pauli P.  S_j = G_m ... G_{j+1}, the product
    of the window's members after j, is built for each member some row
    hit by one sweep from the window's end."""
    need = {noisy[n][0] for n in np.flatnonzero(hit.any(axis=0))}
    suffix, after = {}, _EYES[k]
    for j in range(len(members) - 1, min(need) - 1, -1):
        if j in need:
            suffix[j] = after
        pos, mat = members[j]
        after = after @ _lift(mat, pos, k)
    for row_hit, row_u in zip(hit, u):
        corr = _EYES[k]
        for n in np.flatnonzero(row_hit):
            i, cum, paulis = noisy[n]
            pauli = paulis[int(np.searchsorted(cum, row_u[n], side="right"))]
            s_j = suffix[i]
            corr = s_j @ _lift(pauli, members[i][0], k) @ s_j.conj().T @ corr
        yield corr


def _shifted(op: tuple, offset: int) -> tuple:
    """A plan op whose draw indices are moved ``offset`` later."""
    if op[0] != "window" or op[5] is None:
        return op
    return op[:5] + (op[5] + offset,)


class _NoisePlan:
    """Per-circuit list of gate windows and dephasing ops.

    Every stochastic error is the Pauli channel ``spec.pauli_distribution``
    states for its gate, and every gate that has one (total rate above
    zero: a two-qubit gate, a single-qubit gate under single-qubit
    depolarizing, a DELAY under stochastic idle flips, which runs as the
    identity) is planned the same way.  It takes the pending matrices of
    its qubits into its own matrix, as mat @ pending or mat @ (A ⊗ B),
    and owns one draw index.  Noiseless single-qubit gates are
    multiplied into one pending 2x2 matrix per qubit, and noiseless
    two-qubit gates take the pending matrices as noisy ones do.

    Gates then go, in circuit order, into *windows* of at most
    ``WINDOW_QUBITS`` qubits: a gate joins the latest window that touches
    its qubits, or any later window (it commutes past those, being
    disjoint from them), as long as the window's qubits stay within the
    cap; otherwise it opens a new window.  A window runs as one kernel
    pass of W = G_m ... G_1 over the whole stack.  A row that drew the
    Pauli P after member j is then corrected by C_j = S_j P S_j^dag,
    S_j = G_m ... G_{j+1}, on that row alone; several errors in a row
    multiply, in draw order, into one correction.  This is exactly the
    channel of the gates run one by one.

    Windows close (and the pending matrix of the qubit is placed first)
    only at a DELAY under quasi-static idle dephasing, emitted as a
    ``dephase`` op that turns each row's qubit by its own rate.  A DELAY
    without idle noise is the identity and is skipped.

    A trajectory draws one uniform per draw index, ``n_draws`` in all,
    in circuit order.  The plan keeps, per draw index, the total rate of
    its Pauli channel (``totals``) and the op that owns it (``owner``),
    so ``run_batch`` tests every draw of a batch against its rate at
    once.

    ``join`` runs plans of consecutive circuit blocks as one plan, then
    an optional measurement basis rotation planned from ``ops[split]``
    on; no window or pending matrix crosses a block or basis boundary.
    """

    def __init__(self, circuit: Circuit, spec: NoiseSpec):
        self.width = circuit.width
        self.ops: list[tuple] = []
        self.n_draws = 0
        totals: list[float] = []  # per draw index
        dephasing = spec.idle_dephasing_rad_per_ns > 0
        pending: dict[int, np.ndarray] = {}
        windows: list[tuple[set[int], list]] = []  # open windows: (qubits, members)
        latest: dict[int, int] = {}  # qubit -> index of the latest open window on it

        def place(qubits: tuple[int, ...], mat: np.ndarray, noise=None) -> None:
            j = max([latest.get(q, 0) for q in qubits])
            while j < len(windows) and len(windows[j][0].union(qubits)) > WINDOW_QUBITS:
                j += 1
            if j == len(windows):
                windows.append((set(), []))
            windows[j][0].update(qubits)
            windows[j][1].append((qubits, mat, noise))
            for q in qubits:
                latest[q] = j

        def flush(q: int) -> None:
            mat = pending.pop(q, None)
            if mat is not None:
                place((q,), mat)

        def close() -> None:
            self.ops.extend(_window_op(qset, members) for qset, members in windows)
            windows.clear()
            latest.clear()

        def add_gate(g: Gate) -> None:
            if g.kind == "DELAY" and dephasing and g.duration_ns > 0:
                flush(g.qubits[0])
                close()
                self.ops.append(("dephase", g.qubits[0], g.duration_ns))
            mat, cum, paulis, total = _plan_entry(spec, g)
            if g.is_two_qubit:
                a, b = (pending.pop(q, None) for q in g.qubits)
                if a is not None or b is not None:
                    # a acts on qubits[0], the high bit of the 4x4 index
                    a = _EYE2 if a is None else a
                    b = _EYE2 if b is None else b
                    mat = mat @ (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
            elif total == 0:
                q = g.qubits[0]
                if g.kind != "DELAY":
                    pending[q] = mat @ pending[q] if q in pending else mat
                return
            elif g.qubits[0] in pending:
                mat = mat @ pending.pop(g.qubits[0])
            noise = None
            if total > 0:
                noise = (self.n_draws, cum, paulis)
                self.n_draws += 1
                totals.append(total)
            place(g.qubits, mat, noise)

        for g in circuit.gates:
            add_gate(g)
        for q in sorted(pending):
            flush(q)
        close()
        self.split = len(self.ops)
        self.totals = np.array(totals, dtype=float)
        self.owner = np.zeros(self.n_draws, dtype=np.intp)
        for i, op in enumerate(self.ops):
            if op[0] == "window" and op[5] is not None:
                self.owner[op[5]] = i

    @classmethod
    def of(cls, circuit: Circuit, spec: NoiseSpec) -> _NoisePlan:
        """The plan of ``circuit``, built once while it stays among the
        spec's ``PLAN_MEMO`` most recently used plans.  Plans are keyed
        by the block's content (each gate's kind, qubits, angle and
        duration), so every chain, twirl and family that runs the same
        circuit block shares one plan; its ops are never changed after it
        is built (``join`` shifts copies of its draw indices)."""
        key = (circuit.width,
               tuple((g.kind, g.qubits, g.angle, g.duration_ns) for g in circuit.gates))
        plans = spec._memoized("plans", OrderedDict)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = cls(circuit, spec)
            if len(plans) > PLAN_MEMO:
                plans.popitem(last=False)
        else:
            plans.move_to_end(key)
        return plan

    @classmethod
    def join(cls, parts: list[_NoisePlan], basis: _NoisePlan | None = None) -> _NoisePlan:
        """One plan that runs the circuit plans ``parts`` one after
        another and then ``basis``, from ``ops[split]`` on.  Each part's
        draw indices follow those of the parts before it, so a trajectory
        still draws all its uniforms in one call, in circuit order."""
        plan = cls.__new__(cls)
        plan.width, plan.ops, plan.n_draws = parts[0].width, [], 0
        totals, owners = [], []

        def append(part: _NoisePlan) -> None:
            offset = plan.n_draws
            totals.append(part.totals)
            owners.append(part.owner + len(plan.ops))
            plan.ops.extend(part.ops if not offset else [_shifted(op, offset) for op in part.ops])
            plan.n_draws += part.n_draws

        for part in parts:
            append(part)
        plan.split = len(plan.ops)
        if basis is not None:
            append(basis)
        plan.totals, plan.owner = np.concatenate(totals), np.concatenate(owners)
        return plan

    def run_batch(self, amps: np.ndarray, rngs: list[np.random.Generator],
                  omegas: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Evolve a (T, 2^width) stack of trajectories through the plan.

        Trajectory t draws its ``n_draws`` uniforms at once from
        ``rngs[t]`` (the same numbers as one ``random()`` call per noisy
        operation, in circuit order), and dephases idle windows at its
        quasi-static rates ``omegas[t]``; no draw depends on another
        trajectory, so a batch of T generators equals T one-generator
        batches.  The (T, n_draws) uniforms are compared with ``totals``
        once, and only the windows that own a draw some row hit build
        corrections.  The row count is taken from ``amps``, so a plan
        without draws runs with no generators.  ``amps`` may be
        overwritten: the stack moves between it and one spare array of
        its shape through the kernel, and each correction runs on its row
        in place.

        Returns (after the circuit, after the circuit and the basis
        rotation): the rotation runs on a copy, so the first stack never
        carries it.  Without a basis both are the same array.
        """
        width = self.width
        psi = kept = amps
        spare = np.empty_like(amps)
        n_traj = len(amps)
        hit_ops = ()
        if self.n_draws:
            us = np.empty((n_traj, self.n_draws))
            for t, r in enumerate(rngs):
                us[t] = r.random(self.n_draws)
            hits = us < self.totals
            hit_ops = set(self.owner[hits.any(axis=0)].tolist())
        for i, op in enumerate(self.ops):
            if i == self.split:
                kept, psi = psi, psi.copy()
            if op[0] == "dephase":
                _, q, dur = op
                half = 0.5 * omegas[:, q] * dur
                view = psi.reshape(n_traj, 1 << q, 2, -1)
                view[:, :, 0, :] *= np.exp(-1j * half)[:, None, None]
                view[:, :, 1, :] *= np.exp(1j * half)[:, None, None]
                continue
            _, qubits, mat, members, noisy, draws = op
            out = _apply_matrix(psi, mat, qubits, width, spare)
            if out is spare:
                psi, spare = spare, psi
            if i in hit_ops:
                hit = hits[:, draws]
                rows = np.flatnonzero(hit.any(axis=1))
                corrections = _corrections(members, noisy, hit[rows], us[rows][:, draws],
                                           len(qubits))
                for t, corr in zip(rows, corrections):
                    row = psi[t:t + 1]
                    out = _apply_matrix(row, corr, qubits, width, spare[t:t + 1])
                    if out is not row:
                        row[...] = out
        return (psi, psi) if self.split == len(self.ops) else (kept, psi)


@dataclass
class TrajectoryChain:
    """Circuit blocks run one after another on one batch of noise
    trajectories, the unit ``run_noisy_counts`` advances.

    ``plans`` lists the plans of the chain's blocks so far, in order.
    The live batch holds one amplitude row per trajectory (``amps``,
    None before the chain's first block and after ``restart``) and has
    run the first ``ran`` planned blocks.  Trajectory t owns the
    generator ``rngs[t]``: it first draws the trajectory's quasi-static
    idle rates ``omegas[t]`` (one per qubit, kept for every later block,
    drawn only if the chain is ``quasi_static``), then one uniform per
    noisy operation, block after block.  Sampling never touches these
    generators.
    """

    n_traj: int
    quasi_static: bool
    plans: list[_NoisePlan] = field(default_factory=list)
    amps: np.ndarray | None = None
    rngs: list[np.random.Generator] = field(default_factory=list)
    omegas: np.ndarray | None = None
    ran: int = 0

    def restart(self) -> None:
        """Drop the live batch: the next block starts fresh trajectories,
        which run every planned block."""
        self.amps, self.ran = None, 0


def chain_noise(circuits: list[Circuit | None], spec: NoiseSpec) -> tuple[bool, bool]:
    """(stochastic, quasi_static) of trajectories that run ``circuits``
    (None entries skipped) one after another, read off their plans
    (``_NoisePlan.of``, so a block run as it is reuses the plan).

    quasi_static: some plan dephases an idle window at the trajectory's
    quasi-static rates.  stochastic: that, or some plan draws a Pauli
    error, so that trajectories differ.  Both the sweep and a one-block
    ``run_noisy_counts`` take their trajectory count from it.
    """
    plans = [_NoisePlan.of(c, spec) for c in {id(c): c for c in circuits if c is not None}.values()]
    quasi_static = any(op[0] == "dephase" for plan in plans for op in plan.ops)
    return quasi_static or any(plan.n_draws for plan in plans), quasi_static


def trajectory_count(stochastic: bool, shots: int, shots_per_trajectory: int) -> int:
    """One trajectory per ``shots_per_trajectory`` shots (rounded up) if
    any noise is stochastic; a single one otherwise."""
    return max(1, math.ceil(shots / shots_per_trajectory)) if stochastic else 1


def run_noisy_counts(
    circuit: Circuit,
    spec: NoiseSpec,
    shots: int,
    seed,
    *,
    infinite: bool = False,
    shots_per_trajectory: int = 1024,
    basis: Circuit | None = None,
    chain: TrajectoryChain | None = None,
) -> Counts:
    """Execute under the noise spec and measure.

    The noisy output distribution is estimated as the uniform mixture of
    the trajectories' outcome probabilities (one Pauli insertion pattern
    per trajectory; ``shots_per_trajectory`` sets only how many there
    are).  That mixture goes once through the readout channel
    ``apply_readout_error``; then every shot is an independent draw from
    it, all of them in one multinomial, or with ``infinite=True`` the
    exact mixture scaled to ``shots`` is returned.  ``seed`` may be an
    int or a sequence of ints; the shots are drawn from ``seed + [4]``.

    ``circuit`` is the next block of ``chain``, which this call advances
    in place, so a circuit given block by block is evolved once.  Without
    ``chain`` the circuit is a chain of one block, its trajectory count
    and noise class ``chain_noise`` of the circuit and ``basis``.  The
    block's plan (``_NoisePlan.of``, shared by every run of the same
    block) is appended to the chain's plans.  A chain without a live
    batch starts ``n_traj`` fresh trajectories at |0...0>, trajectory t
    seeded ``seed + [2, t]``.  The batch then runs every planned block it
    has not run yet, joined into one plan (``_NoisePlan.join``): a fresh
    batch re-runs the chain's planned prefix and a carried one the new
    block alone; windows do not cross block boundaries.

    ``basis`` is a measurement basis rotation applied, in the same
    batch evolution, to a copy of the trajectories before sampling; the
    chain does not carry it forward.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots_per_trajectory < 1:
        raise ValueError("shots_per_trajectory must be >= 1")
    width = circuit.width
    base = [int(v) for v in (seed if isinstance(seed, (list, tuple)) else np.atleast_1d(seed))]
    if chain is None:
        stochastic, quasi_static = chain_noise([circuit, basis], spec)
        chain = TrajectoryChain(trajectory_count(stochastic, shots, shots_per_trajectory),
                                quasi_static)
    chain.plans.append(_NoisePlan.of(circuit, spec))
    if chain.amps is None:
        chain.rngs = [_rng(base + [2, t]) for t in range(chain.n_traj)]
        sigma = spec.idle_dephasing_rad_per_ns
        chain.omegas = (np.stack([r.normal(0.0, sigma, size=width) for r in chain.rngs])
                        if chain.quasi_static else None)
        chain.amps = np.tile(Statevector.zero(width).amplitudes, (chain.n_traj, 1))
    plan = _NoisePlan.join(chain.plans[chain.ran:],
                           None if basis is None else _NoisePlan.of(basis, spec))
    chain.ran = len(chain.plans)
    chain.amps, measured = plan.run_batch(chain.amps, chain.rngs, chain.omegas)
    probs = np.zeros(measured.shape[1])
    for row in measured:  # the rows' mean, added in their order, without a (T, 2^L) stack
        probs += np.abs(row) ** 2
    probs /= len(measured)
    if spec.has_readout_error():
        m = spec._memoized(("readout", width), lambda: ConfusionMatrix.from_rates(
            width, spec.readout_eps, spec.readout_eta))
        probs = apply_readout_error(probs, m)
    if infinite:
        return Counts.from_vector(probs * shots, width, float(shots))
    total = _rng(base + [4]).multinomial(shots, probs / probs.sum())
    return Counts.from_vector(total.astype(float), width, float(shots))


# ---------------------------------------------------------------------------
# Exact channel evolution (verification substrate, width <= DENSITY_MAX_WIDTH)
# ---------------------------------------------------------------------------

# Widest register the density oracle takes: rho holds 4^width complex
# entries (16 MiB at width 10) and each gate makes one more of them.
DENSITY_MAX_WIDTH = 10


def _gate_superoperator(spec: NoiseSpec, g: Gate) -> np.ndarray:
    """The channel of a non-DELAY gate as one 4^k x 4^k superoperator on
    row-major vec(rho), reshaped to (2,)*4k: the overrotated unitary U,
    then the Pauli channel, sum_P w_P (P U) (x) conj(P U).  Two-qubit
    gates take ``spec.pauli_distribution``; single-qubit gates put
    ``single_qubit_depolarizing``/4 on each of X, Y and Z, stated here
    apart from the executor.  Built once per spec and (kind, angle,
    duration)."""

    def build():
        u = _overrotated_matrix(g, spec.coherent_overrotation)
        if g.is_two_qubit:
            labels, probs = spec.pauli_distribution(g)
        else:
            labels, probs = "XYZ", np.full(3, spec.single_qubit_depolarizing / 4.0)
        terms = [(1.0 - float(probs.sum()), u)]
        terms += [(pr, _PAULI_MATS[lab] @ u) for lab, pr in zip(labels, probs)]
        sup = sum(w * np.kron(k, k.conj()) for w, k in terms).reshape((2,) * (4 * len(g.qubits)))
        sup.flags.writeable = False
        return sup

    return spec._memoized(("superoperator", g.kind, g.angle, g.duration_ns), build)


def run_noisy_density(circuit: Circuit, spec: NoiseSpec,
                      initial: Statevector | None = None) -> DensityOperator:
    """Exact evolution of the full noise model at width <=
    ``DENSITY_MAX_WIDTH``, never through an operator on the whole register.

    rho is a (2,)*2w tensor, row axes first.  A gate's superoperator
    (``_gate_superoperator``) acts on its qubits' row and column axes by
    one tensordot.  A DELAY of T ns scales its qubit's off-diagonals by
    exp(-(rate T)^2 / 2), the Gaussian average of quasi-static dephasing,
    times 1 - 2 p_flip = exp(-T flip rate) of the stochastic idle flip.
    """
    width = circuit.width
    if width > DENSITY_MAX_WIDTH:
        raise ValueError(f"exact density evolution is limited to width <= "
                         f"DENSITY_MAX_WIDTH = {DENSITY_MAX_WIDTH}, got {width}")
    init = (initial or Statevector.zero(width)).amplitudes
    rho = np.outer(init, init.conj()).reshape((2,) * (2 * width))
    for g in circuit.gates:
        if g.kind == "DELAY":
            t, (q,) = g.duration_ns, g.qubits
            f = math.exp(-0.5 * (spec.idle_dephasing_rad_per_ns * t) ** 2
                         - t * spec.idle_stochastic_rate_per_ns)
            shape = [1] * (2 * width)
            shape[q] = shape[width + q] = 2
            rho = rho * np.array([[1.0, f], [f, 1.0]]).reshape(shape)
            continue
        k = len(g.qubits)
        axes = list(g.qubits) + [width + q for q in g.qubits]
        rho = np.tensordot(_gate_superoperator(spec, g), rho, axes=(range(2 * k, 4 * k), axes))
        rho = np.moveaxis(rho, range(2 * k), axes)
    return DensityOperator(rho.reshape(1 << width, 1 << width), check=False)
