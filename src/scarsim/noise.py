"""Phenomenological hardware noise driven by a pulse-duration model.

The two-qubit interaction gate can be compiled two ways: a fixed pair of
CNOTs (duration independent of the rotation angle) or a single
cross-resonance pulse whose square-Gaussian envelope is rescaled to the
angle (duration constant below an amplitude threshold, affine above).
Longer schedules mean larger stochastic error, modeled as
p = 1 - exp(-duration / tau), with tau calibrated so the two-CNOT
compilation hits a configurable target error rate.

Noisy execution samples Pauli-insertion trajectories over the
statevector (exact for stochastic Pauli channels); exact density-matrix
evolution is available at width <= 4 as the verification substrate.
Relaxation (amplitude damping) is deliberately absent: it is not a Pauli
channel and would break exact trajectory unraveling; only Z-type
dephasing is modeled, leaving damping as a density-matrix extension.
"""
from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache, reduce

import numpy as np

from .qsim import (
    PAULI_1Q,
    Circuit,
    Counts,
    DensityOperator,
    Gate,
    KrausChannel,
    Statevector,
    _apply_matrix,
    _embed,
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


def rzz_duration(theta: float, impl: str, pp: PulseParams) -> float:
    """Pulse-schedule duration in ns of the interaction gate at ``theta``.

    two-cnot: two CNOT schedules; the inner Z rotation is a virtual
    phase shift, so the total does not depend on theta.  scaled-rzx:
    one echoed pair of angle-scaled CR pulses plus dressing overhead.
    """
    if impl == "two-cnot":
        return 2.0 * cnot_duration_ns(pp)
    if impl in ("scaled-rzx", "rzz"):
        return 2.0 * cr_pulse_ns(theta, pp) + 2.0 * pp.single_pulse_ns
    raise ValueError(f"unknown impl {impl!r}")


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
        tau = self.tau_err_ns()
        if gate.kind == "CNOT":
            return gate_error_rate(cnot_duration_ns(self.pulse), tau)
        if gate.kind in ("RZX", "RZZ"):
            d = 2.0 * cr_pulse_ns(abs(gate.angle), self.pulse) + 2.0 * self.pulse.single_pulse_ns
            return gate_error_rate(d, tau)
        raise ValueError(f"no duration model for two-qubit kind {gate.kind!r}")

    def pauli_distribution(self, gate: Gate) -> tuple[list[str], np.ndarray]:
        """(labels, probabilities) over the 15 non-identity Pauli pairs.

        A depolarizing weight p maps to rate p/16 on each non-identity
        pair, i.e. rho -> (1-p) rho + p I/4.
        """
        p = self.two_qubit_error_prob(gate)
        return TWO_QUBIT_PAULI_LABELS, np.full(15, p / 16.0)

    def has_readout_error(self) -> bool:
        return self.readout_eps > 0.0 or self.readout_eta > 0.0

    @cached_property
    def _memo(self) -> dict:
        """Values the executor derives from this spec, computed once each
        (the spec is frozen, so none goes stale; ``replace`` starts a new
        memo): plan entries keyed (kind, angle), forward readout matrices
        keyed ("readout", width)."""
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

# INI key -> NoiseSpec (or PulseParams, for [pulse]) field, per section.
_NOISE_INI_KEYS = {
    "pulse": {k: k for k in ("amp_ref", "width_ref", "sigma", "n_sigma",
                             "sample_dt_ns", "single_pulse_ns")},
    "gates": {k: k for k in ("two_qubit_target_error", "two_qubit_depolarizing",
                             "single_qubit_depolarizing", "coherent_overrotation")},
    "readout": {"eps": "readout_eps", "eta": "readout_eta"},
    "idle": {"dephasing_rad_per_ns": "idle_dephasing_rad_per_ns",
             "stochastic_rate_per_ns": "idle_stochastic_rate_per_ns"},
}


def check_ini_keys(cp: configparser.ConfigParser, allowed: dict, path) -> None:
    """Reject any section or key of ``cp`` that ``allowed`` does not list.

    ``allowed`` maps each section name to a predicate or a collection of
    key names."""
    for section in cp.sections():
        if section not in allowed:
            raise ValueError(f"{path}: unknown section [{section}]")
        known = allowed[section]
        for key in cp.options(section):
            if not (known(key) if callable(known) else key in known):
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")


def load_noise_config(path) -> NoiseSpec:
    """Read a NoiseSpec from an INI document (see docs/noise-config.md).

    Sections: [pulse], [gates], [readout], [idle].  Unset keys fall back
    to the preset named by ``[gates] preset`` (default casablanca-like).
    Unknown sections and keys are rejected.
    """
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    allowed = {sec: set(keys) for sec, keys in _NOISE_INI_KEYS.items()}
    allowed["gates"].add("preset")
    check_ini_keys(cp, allowed, path)
    spec = preset(cp.get("gates", "preset", fallback="casablanca-like"))
    read = {
        sec: {field: cp.getfloat(sec, key) for key, field in keys.items()
              if cp.has_option(sec, key)}
        for sec, keys in _NOISE_INI_KEYS.items()
    }
    pulse_kwargs = read.pop("pulse")
    if pulse_kwargs:
        spec = replace(spec, pulse=replace(spec.pulse, **pulse_kwargs))
    spec_kwargs = {k: v for sec in read.values() for k, v in sec.items()}
    return replace(spec, **spec_kwargs) if spec_kwargs else spec


def _overrotated_matrix(gate: Gate, over: float) -> np.ndarray:
    """The gate's unitary followed by the coherent overrotation
    exp(-i over G/2), G = ZZ after RZZ and ZX after RZX; every other
    gate, CNOT included, is returned as it is."""
    mat = gate_matrix(gate)
    if over and gate.kind in ("RZZ", "RZX"):
        mat = gate_matrix(Gate(gate.kind, (0, 1), angle=over)) @ mat
    return mat


def noisy_gate_channel(gate: Gate, spec: NoiseSpec) -> KrausChannel:
    """A two-qubit gate as the executor runs it: the unitary, then the
    coherent overrotation (``_overrotated_matrix``), then the stochastic
    Pauli channel drawn from the spec's rates."""
    if not gate.is_two_qubit:
        raise ValueError("noisy_gate_channel expects a two-qubit gate")
    unitary = KrausChannel.unitary(_overrotated_matrix(gate, spec.coherent_overrotation))
    labels, probs = spec.pauli_distribution(gate)
    rates = {lab: float(pr) for lab, pr in zip(labels, probs) if pr > 0}
    if not rates:
        return unitary
    return KrausChannel.pauli(2, rates).compose(unitary)


# ---------------------------------------------------------------------------
# Readout confusion
# ---------------------------------------------------------------------------

@dataclass
class ConfusionMatrix:
    """Readout error matrix M with M @ p_ideal = p_noisy.

    tensor mode stores L single-qubit 2x2 factors; full mode the dense
    2^L x 2^L matrix.  Columns of a stochastic M sum to one.
    """

    method: str
    L: int
    factors: list[np.ndarray] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.method == "tensor":
            if self.factors is None or len(self.factors) != self.L:
                raise ValueError("tensor mode needs one 2x2 factor per qubit")
            for f in self.factors:
                if f.shape != (2, 2) or np.any(f < -1e-12):
                    raise ValueError("confusion factors must be nonnegative 2x2")
                if np.max(np.abs(f.sum(axis=0) - 1.0)) > 1e-9:
                    raise ValueError("confusion factor columns must sum to 1")
        elif self.method == "full":
            dim = 2**self.L
            if self.matrix is None or self.matrix.shape != (dim, dim):
                raise ValueError("full mode needs the 2^L x 2^L matrix")
            if np.max(np.abs(self.matrix.sum(axis=0) - 1.0)) > 1e-9:
                raise ValueError("confusion matrix columns must sum to 1")
        else:
            raise ValueError("method must be 'tensor' or 'full'")

    @classmethod
    def identity(cls, L: int) -> "ConfusionMatrix":
        return cls("tensor", L, factors=[np.eye(2) for _ in range(L)])

    @classmethod
    def from_rates(cls, L: int, eps, eta) -> "ConfusionMatrix":
        eps = np.broadcast_to(np.asarray(eps, dtype=float), (L,))
        eta = np.broadcast_to(np.asarray(eta, dtype=float), (L,))
        factors = [
            np.array([[1.0 - e, n], [e, 1.0 - n]]) for e, n in zip(eps, eta)
        ]
        return cls("tensor", L, factors=factors)

    @cached_property
    def _blocks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``_kron_blocks`` of the factors and of their inverses, built once."""
        return _kron_blocks(self.factors), _kron_blocks([np.linalg.inv(f) for f in self.factors])

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factorization of the full matrix, computed once (the same
        LAPACK factorization np.linalg.solve repeats on every call).  A
        singular matrix raises LinAlgError, as np.linalg.solve does."""
        import scipy.linalg  # full mode only: keeps scipy off the import path

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(self.matrix)
        if not np.all(np.diag(lu)):
            raise np.linalg.LinAlgError("singular confusion matrix")
        return lu, piv

    def apply_to_vector(self, vec: np.ndarray) -> np.ndarray:
        """Forward direction: p_noisy = M p_ideal, over the last axis of
        ``vec`` (one vector or a stack of rows)."""
        if self.method == "full":
            return vec @ self.matrix.T
        return _apply_factors(self._blocks[0], vec)

    def invert_vector(self, vec: np.ndarray) -> np.ndarray:
        """Inverse direction: p_ideal = M^-1 p_noisy (may go negative),
        over the last axis of ``vec``."""
        if self.method == "full":
            import scipy.linalg

            return scipy.linalg.lu_solve(self.lu, vec.T).T
        return _apply_factors(self._blocks[1], vec)

    def dense(self) -> np.ndarray:
        return self.matrix if self.method == "full" else reduce(np.kron, self.factors, np.eye(1))


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
    from p and flipping (tensor) or resampling (full) each shot has the
    law Multinomial(n, M p), so shots drawn after this are read out."""
    if probs.shape[-1] != 1 << m.L:
        raise ValueError("confusion matrix width mismatch")
    return m.apply_to_vector(probs)


# ---------------------------------------------------------------------------
# Noisy execution: trajectory unfolding over the statevector
# ---------------------------------------------------------------------------

_PAULI_MATS_2Q = {
    lab: m for lab, m in zip(pauli_basis_labels(2), pauli_basis_matrices(2))
}

_EYE2 = np.eye(2, dtype=complex)

# Widest window of gates the plan runs as one kernel pass.  Up to here a
# pass costs about as much as a 2-qubit one (1.1-1.4 times, at 4 qubits);
# the matrix work per amplitude doubles with each further qubit.
WINDOW_QUBITS = 4

_EYES = [np.eye(1 << k, dtype=complex) for k in range(WINDOW_QUBITS + 1)]
for _eye in _EYES:
    _eye.flags.writeable = False


def _plan_entry(spec: NoiseSpec, g: Gate):
    """A non-DELAY gate as ``_NoisePlan`` runs it under ``spec``: the
    overrotated matrix, and for a two-qubit gate the tuple (matrix,
    cumulative Pauli probabilities, Pauli matrices, their total).  Both
    depend on the gate's kind and angle only, so each is built once per
    spec."""

    def build():
        mat = _overrotated_matrix(g, spec.coherent_overrotation)
        if not g.is_two_qubit:
            return mat
        labels, probs = spec.pauli_distribution(g)
        return mat, np.cumsum(probs), [_PAULI_MATS_2Q[lab] for lab in labels], float(probs.sum())

    return spec._memoized((g.kind, g.angle), build)


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
    draws, totals).  ``members`` lists (local positions, matrix) in run
    order and W is their product; ``noisy`` lists (member index,
    cumulative Pauli probabilities, Pauli matrices) of each member that
    draws an error, with its draw index and total rate in ``draws`` and
    ``totals``.  Members are kept only if some are noisy."""
    qubits = tuple(sorted(qset))
    k = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    lifted, noisy, draws, totals = [], [], [], []
    window = _EYES[k]
    for i, (mq, mat, noise) in enumerate(members):
        pos = tuple(map(local.__getitem__, mq))
        lifted.append((pos, mat))
        window = _lifted_times(mat, pos, k, window)
        if noise is not None:
            draw, cum, paulis, total = noise
            noisy.append((i, cum, paulis))
            draws.append(draw)
            totals.append(total)
    if not noisy:
        return ("window", qubits, window, [], [], None, None)
    return ("window", qubits, window, lifted, noisy, np.array(draws), np.array(totals))


def _corrections(members, noisy, hit: np.ndarray, u: np.ndarray, k: int) -> list[np.ndarray]:
    """One correction per row of ``hit`` (rows x noisy members: where the
    row drew an error; ``u`` holds the draws): the product, in draw
    order, of C_j = S_j P S_j^dag over the members j where the row drew
    the Pauli P, with S_j the product of the window's members after j.
    Only the S_j some row needs are built, in one sweep from the end."""
    need = {noisy[n][0] for n in np.flatnonzero(hit.any(axis=0))}
    suffix = {}
    after = _EYES[k]
    for i in range(len(members) - 1, min(need) - 1, -1):
        if i in need:
            suffix[i] = after
        pos, mat = members[i]
        after = after @ _lift(mat, pos, k)
    out = []
    for row_hit, row_u in zip(hit, u):
        corr = _EYES[k]
        for n in np.flatnonzero(row_hit):
            i, cum, paulis = noisy[n]
            pauli = paulis[int(np.searchsorted(cum, row_u[n], side="right"))]
            s_j = suffix[i]
            corr = s_j @ _lift(pauli, members[i][0], k) @ s_j.conj().T @ corr
        out.append(corr)
    return out


class _NoisePlan:
    """Per-circuit list of fused gate windows and noise ops.

    Noiseless single-qubit gates are multiplied into one 2x2 matrix per
    qubit, and a two-qubit gate takes the pending matrices A and B of its
    qubits into its own matrix as mat @ (A ⊗ B); they run first, then
    the gate, its overrotation and its Pauli error.  Gates then go, in
    circuit order, into *windows* of at most ``WINDOW_QUBITS`` qubits: a
    gate joins the latest window that touches its qubits, or any later
    window (it commutes past those, being disjoint from them), as long as
    the window's qubits stay within the cap; otherwise it opens a new
    window.  A window runs as one kernel pass of W = G_m ... G_1 over the
    whole stack.  A row that drew the Pauli P after member j is then
    corrected by C_j = S_j P S_j^dag, S_j = G_m ... G_{j+1}, on that row
    alone; several errors in a row multiply, in draw order, into one
    correction.  This is exactly the unfused channel.

    Windows close (and pending single-qubit matrices of the qubit are
    placed first) at an op that runs on its own: a DELAY under idle
    noise, emitted as a ``delay`` op, and a single-qubit gate under
    single-qubit depolarizing, a ``gate1`` op (no single-qubit gate is
    then fused).  A DELAY without idle noise is the identity and is
    skipped.  An optional measurement ``basis`` rotation is planned
    after the circuit, from ``ops[split]`` on; no window or pending
    matrix crosses that boundary.

    Every noisy operation, in circuit order, owns one draw index: a
    trajectory draws one uniform per index, ``n_draws`` in all.
    """

    def __init__(self, circuit: Circuit, spec: NoiseSpec, basis: Circuit | None = None):
        self.width = circuit.width
        self.ops: list[tuple] = []
        self.n_draws = 0
        basis_gates = basis.gates if basis is not None else ()
        idle = spec.idle_dephasing_rad_per_ns > 0 or spec.idle_stochastic_rate_per_ns > 0
        fuse = spec.single_qubit_depolarizing == 0.0
        pending: dict[int, np.ndarray] = {}
        windows: list[tuple[set[int], list]] = []  # open windows: (qubits, members)
        latest: dict[int, int] = {}  # qubit -> index of the latest open window on it

        def draw() -> int:
            self.n_draws += 1
            return self.n_draws - 1

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

        def add(gates) -> None:
            for g in gates:
                add_gate(g)
            for q in sorted(pending):
                flush(q)
            close()

        def add_gate(g: Gate) -> None:
            if g.kind == "DELAY":
                if not idle or g.duration_ns <= 0:
                    return
                flush(g.qubits[0])
                close()
                p_flip = 0.5 * (1.0 - math.exp(-g.duration_ns * spec.idle_stochastic_rate_per_ns))
                self.ops.append(("delay", g.qubits, g.duration_ns, p_flip,
                                 draw() if p_flip > 0 else -1))
                return
            entry = _plan_entry(spec, g)
            if g.is_two_qubit:
                mat, cum, mats, total = entry
                a, b = (pending.pop(q, None) for q in g.qubits)
                if a is not None or b is not None:
                    # a acts on qubits[0], the high bit of the 4x4 index
                    a = _EYE2 if a is None else a
                    b = _EYE2 if b is None else b
                    mat = mat @ (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
                place(g.qubits, mat, (draw(), cum, mats, total) if total > 0 else None)
            elif fuse:
                q = g.qubits[0]
                pending[q] = entry @ pending[q] if q in pending else entry
            else:
                close()
                self.ops.append(("gate1", g.qubits, entry, spec.single_qubit_depolarizing, draw()))

        add(circuit.gates)
        self.split = len(self.ops)
        add(basis_gates)

    def run_batch(self, amps: np.ndarray, rngs: list[np.random.Generator],
                  omegas: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Evolve a (T, 2^width) stack of trajectories through the plan.

        Trajectory t draws its ``n_draws`` uniforms at once from
        ``rngs[t]`` (the same numbers as one ``random()`` call per noisy
        operation, in circuit order), and dephases idle windows at its
        quasi-static rates ``omegas[t]``; no draw depends on another
        trajectory, so a batch of T generators equals T one-generator
        batches.  ``amps`` may be overwritten.

        Returns (after the circuit, after the circuit and the basis
        rotation): the rotation runs on a copy, so the first stack never
        carries it.  Without a basis both are the same array.
        """
        width = self.width
        psi = kept = amps
        n_traj = len(rngs)
        us = np.stack([r.random(self.n_draws) for r in rngs]) if self.n_draws else None
        for i, op in enumerate(self.ops):
            if i == self.split:
                kept, psi = psi, psi.copy()
            tag = op[0]
            if tag == "window":
                _, qubits, mat, members, noisy, draws, totals = op
                psi = _apply_matrix(psi, mat, qubits, width)
                if noisy:
                    u = us[:, draws]
                    hit = u < totals
                    rows = np.flatnonzero(hit.any(axis=1))
                    if rows.size:
                        corrections = _corrections(members, noisy, hit[rows], u[rows], len(qubits))
                        for t, corr in zip(rows, corrections):
                            psi[t:t + 1] = _apply_matrix(psi[t:t + 1], corr, qubits, width)
            elif tag == "gate1":
                _, qubits, mat, p1, d = op
                psi = _apply_matrix(psi, mat, qubits, width)
                for t in np.nonzero(us[:, d] < p1 * 0.75)[0]:
                    pauli = "XYZ"[min(int(us[t, d] / (p1 * 0.25)), 2)]
                    psi[t:t + 1] = _apply_matrix(psi[t:t + 1], PAULI_1Q[pauli], qubits, width)
            else:  # delay
                _, qubits, dur, p_flip, d = op
                q = qubits[0]
                if omegas is not None:
                    half = 0.5 * omegas[:, q] * dur
                    view = psi.reshape(n_traj, 1 << q, 2, -1)
                    view[:, :, 0, :] *= np.exp(-1j * half)[:, None, None]
                    view[:, :, 1, :] *= np.exp(1j * half)[:, None, None]
                if p_flip > 0:
                    for t in np.nonzero(us[:, d] < p_flip)[0]:
                        view = psi[t].reshape(1 << q, 2, -1)
                        view[:, 1, :] *= -1.0
        return (psi, psi) if self.split == len(self.ops) else (kept, psi)


@dataclass
class TrajectoryBatch:
    """Noise trajectories carried from one circuit block to the next.

    ``amps`` holds one amplitude row per trajectory.  Trajectory t owns
    the generator ``rngs[t]``: it first draws the trajectory's
    quasi-static idle rates ``omegas[t]`` (one per qubit, kept for every
    later block), then one uniform per noisy operation, block after
    block.  Sampling never touches these generators.
    """

    amps: np.ndarray
    rngs: list[np.random.Generator]
    omegas: np.ndarray | None = None

    @classmethod
    def start(cls, spec: NoiseSpec, rngs: list[np.random.Generator],
              initial: Statevector, quasi_static: bool) -> "TrajectoryBatch":
        """Trajectories at ``initial``; they draw quasi-static idle rates
        only if some circuit they will run has ``quasi_static`` idles."""
        omegas = None
        if quasi_static:
            sigma = spec.idle_dephasing_rad_per_ns
            omegas = np.stack([r.normal(0.0, sigma, size=initial.width) for r in rngs])
        return cls(np.tile(initial.amplitudes, (len(rngs), 1)), rngs, omegas)

    @classmethod
    def seeded(cls, spec: NoiseSpec, n_traj: int, key: list[int],
               initial: Statevector, quasi_static: bool) -> "TrajectoryBatch":
        """``n_traj`` trajectories, trajectory t seeded ``key + [2, t]``."""
        rngs = [np.random.default_rng(key + [2, t]) for t in range(n_traj)]
        return cls.start(spec, rngs, initial, quasi_static)

    def advance(self, plan: _NoisePlan) -> np.ndarray:
        """Evolve the batch through ``plan``; returns the trajectories
        rotated into the plan's measurement basis, which the batch itself
        does not carry forward."""
        self.amps, measured = plan.run_batch(self.amps, self.rngs, self.omegas)
        return measured


def chain_noise(circuits: list[Circuit | None], spec: NoiseSpec) -> tuple[bool, bool]:
    """(stochastic, quasi_static) of trajectories that run ``circuits``
    (None entries skipped) one after another.

    quasi_static: some idle window (a DELAY of positive duration)
    dephases at the trajectory's quasi-static rates.  stochastic: that,
    or some gate draws per-trajectory noise (a two-qubit gate with a
    nonzero Pauli rate, a single-qubit gate under single-qubit
    depolarizing, an idle window under stochastic flips), so that
    trajectories differ.  The one reader of this rule: both the sweep and
    a fresh ``run_noisy_counts`` take their trajectory count from it.
    """
    stochastic = quasi_static = False
    distinct = {id(c): c for c in circuits if c is not None}.values()
    for g in (g for c in distinct for g in c.gates):
        if g.kind == "DELAY":
            if g.duration_ns > 0:
                quasi_static |= spec.idle_dephasing_rad_per_ns > 0
                stochastic |= spec.idle_stochastic_rate_per_ns > 0
        elif g.is_two_qubit:
            stochastic |= _plan_entry(spec, g)[3] > 0
        else:
            stochastic |= spec.single_qubit_depolarizing > 0
        if stochastic and (quasi_static or spec.idle_dephasing_rad_per_ns == 0):
            break
    return stochastic or quasi_static, quasi_static


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
    batch: TrajectoryBatch | None = None,
    basis: Circuit | None = None,
) -> Counts:
    """Execute under the noise spec and measure.

    Shots are split across noise trajectories (one Pauli insertion
    pattern per trajectory).  Each trajectory's outcome probabilities go
    through the readout channel ``apply_readout_error``; then each draws
    its shots in one multinomial, or with ``infinite=True`` contributes
    its exact distribution.  ``seed`` may be an int or a sequence of
    ints; the shots are drawn from ``seed + [4]``.

    Without ``batch`` the circuit starts fresh trajectories from
    |0...0>, seeded ``seed + [2, t]`` (see ``TrajectoryBatch.seeded``).
    With ``batch`` it continues that batch's trajectories, which it
    advances in place, so a circuit given block by block is evolved
    once.  ``basis`` is a measurement basis rotation applied, in the
    same batch evolution, to a copy of the trajectories before sampling;
    the batch does not carry it forward.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots_per_trajectory < 1:
        raise ValueError("shots_per_trajectory must be >= 1")
    width = circuit.width
    plan = _NoisePlan(circuit, spec, basis)
    base = [int(v) for v in np.atleast_1d(seed)]
    if batch is None:
        stochastic, quasi_static = chain_noise([circuit, basis], spec)
        n_traj = trajectory_count(stochastic, shots, shots_per_trajectory)
        batch = TrajectoryBatch.seeded(spec, n_traj, base, Statevector.zero(width),
                                       quasi_static)
    probs = np.abs(batch.advance(plan)) ** 2
    if spec.has_readout_error():
        m = spec._memoized(("readout", width), lambda: ConfusionMatrix.from_rates(
            width, spec.readout_eps, spec.readout_eta))
        probs = apply_readout_error(probs, m)
    if infinite:
        return Counts.from_vector(probs.mean(axis=0) * shots, width, float(shots), exact=True)
    n_traj = len(probs)
    share = np.full(n_traj, shots // n_traj)
    share[:shots % n_traj] += 1
    rng = np.random.default_rng(base + [4])
    total = rng.multinomial(share, probs / probs.sum(axis=1, keepdims=True)).sum(axis=0)
    return Counts.from_vector(total.astype(float), width, float(shots))


# ---------------------------------------------------------------------------
# Exact channel evolution (verification substrate, width <= 4)
# ---------------------------------------------------------------------------

def run_noisy_density(circuit: Circuit, spec: NoiseSpec,
                      initial: Statevector | None = None) -> DensityOperator:
    """Exact evolution of the full noise model at width <= 4.

    Quasi-static idle dephasing enters as its Gaussian ensemble average
    (off-diagonal decay exp(-(rate * T)^2 / 2)).
    """
    width = circuit.width
    if width > 4:
        raise ValueError("exact density evolution limited to width <= 4")
    init = initial or Statevector.zero(width)
    rho = np.outer(init.amplitudes, init.amplitudes.conj())
    over = spec.coherent_overrotation
    for g in circuit.gates:
        if g.kind == "DELAY":
            rho = _apply_idle_dephasing(rho, g.qubits[0], g.duration_ns, spec, width)
            continue
        u = _embed(_overrotated_matrix(g, over), g.qubits, width)
        rho = u @ rho @ u.conj().T
        if g.is_two_qubit:
            labels, probs = spec.pauli_distribution(g)
            total = float(probs.sum())
            if total > 0:
                mixed = (1.0 - total) * rho
                for lab, pr in zip(labels, probs):
                    if pr > 0:
                        pm = _embed(_PAULI_MATS_2Q[lab], g.qubits, width)
                        mixed += pr * (pm @ rho @ pm.conj().T)
                rho = mixed
        elif spec.single_qubit_depolarizing > 0:
            p1 = spec.single_qubit_depolarizing
            mixed = (1.0 - 0.75 * p1) * rho
            for letter in "XYZ":
                pm = _embed(PAULI_1Q[letter], g.qubits, width)
                mixed += 0.25 * p1 * (pm @ rho @ pm.conj().T)
            rho = mixed
    return DensityOperator(rho, check=False)


def _apply_idle_dephasing(rho, q, duration_ns, spec, width):
    factor = 1.0
    if spec.idle_dephasing_rad_per_ns > 0 and duration_ns > 0:
        factor *= math.exp(-0.5 * (spec.idle_dephasing_rad_per_ns * duration_ns) ** 2)
    if spec.idle_stochastic_rate_per_ns > 0 and duration_ns > 0:
        p_flip = 0.5 * (1.0 - math.exp(-duration_ns * spec.idle_stochastic_rate_per_ns))
        factor *= 1.0 - 2.0 * p_flip
    if factor == 1.0:
        return rho
    zmat = _embed(PAULI_1Q["Z"], (q,), width)
    return 0.5 * (1.0 + factor) * rho + 0.5 * (1.0 - factor) * (zmat @ rho @ zmat)
