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
from functools import cached_property

import numpy as np
import scipy.linalg

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


def scaled_amplitude(theta: float, pp: PulseParams) -> float:
    """|A(theta)| for angles below the threshold (width pinned to zero)."""
    theta_star = threshold_angle(pp)
    if not 0.0 <= theta <= theta_star + 1e-12:
        raise ValueError(f"theta {theta} above the amplitude-scaling threshold {theta_star}")
    alpha = pulse_area(pp)
    return 2.0 * alpha * theta / (math.pi * gaussian_flank_area_per_amp(pp))


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

    Two-qubit gate errors come from one of three sources, in precedence
    order: an explicit Pauli-pair rate map, a fixed depolarizing
    parameter, or the pulse-duration law calibrated so the two-CNOT
    interaction gate hits ``two_qubit_target_error``.  Readout errors
    are per-qubit (eps: 0->1, eta: 1->0).  Idle dephasing is a
    quasi-static per-trajectory Z rotation rate (std in rad/ns), which
    dynamical decoupling echoes out; the optional stochastic variant is
    a per-idle Z flip that DD does not cancel.
    """

    pulse: PulseParams = field(default_factory=PulseParams)
    two_qubit_pauli_rates: dict | None = None
    two_qubit_depolarizing: float | None = None
    two_qubit_target_error: float = 0.016
    single_qubit_depolarizing: float = 0.0
    readout_eps: float = 0.0
    readout_eta: float = 0.0
    idle_dephasing_rad_per_ns: float = 0.0
    idle_stochastic_rate_per_ns: float = 0.0
    coherent_overrotation: float = 0.0

    def __post_init__(self):
        if self.two_qubit_pauli_rates is not None:
            total = sum(self.two_qubit_pauli_rates.values())
            if total > 1.0 or any(v < 0 for v in self.two_qubit_pauli_rates.values()):
                raise ValueError("Pauli rates must be nonnegative with sum <= 1")
            if set(self.two_qubit_pauli_rates) - set(TWO_QUBIT_PAULI_LABELS):
                raise ValueError("Pauli rate keys must be two-qubit non-identity labels")
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
        if self.two_qubit_pauli_rates is not None:
            return sum(self.two_qubit_pauli_rates.values())
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
        if self.two_qubit_pauli_rates is not None:
            labels = list(self.two_qubit_pauli_rates)
            probs = np.array([self.two_qubit_pauli_rates[k] for k in labels])
            return labels, probs
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
    f.name for f in fields(NoiseSpec) if f.name not in ("pulse", "two_qubit_pauli_rates")
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
    def inverse_factors(self) -> list[np.ndarray]:
        """Per-qubit inverses of the tensor factors, computed once."""
        return [np.linalg.inv(f) for f in self.factors]

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factorization of the full matrix, computed once (the same
        LAPACK factorization np.linalg.solve repeats on every call).  A
        singular matrix raises LinAlgError, as np.linalg.solve does."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(self.matrix)
        if not np.all(np.diag(lu)):
            raise np.linalg.LinAlgError("singular confusion matrix")
        return lu, piv

    def apply_to_vector(self, vec: np.ndarray) -> np.ndarray:
        """Forward direction: p_noisy = M p_ideal."""
        if self.method == "full":
            return self.matrix @ vec
        return _apply_factors(self.factors, vec)

    def invert_vector(self, vec: np.ndarray) -> np.ndarray:
        """Inverse direction: p_ideal = M^-1 p_noisy (may go negative)."""
        if self.method == "full":
            return scipy.linalg.lu_solve(self.lu, vec)
        return _apply_factors(self.inverse_factors, vec)

    def dense(self) -> np.ndarray:
        if self.method == "full":
            return self.matrix
        out = np.array([[1.0]])
        for f in self.factors:
            out = np.kron(out, f)
        return out


def _apply_factors(factors: list[np.ndarray], vec: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix per qubit (qubit 0 most significant)."""
    out = vec.reshape([2] * len(factors))
    for q, f in enumerate(factors):
        out = np.moveaxis(np.tensordot(f, out, axes=([1], [q])), 0, q)
    return out.reshape(-1)


def apply_readout_error(counts: Counts, m: ConfusionMatrix, seed: int) -> Counts:
    """Forward (simulation-direction) readout noise on measured counts.

    Exact counts are pushed through M as probabilities; sampled counts
    get per-shot bit flips at the per-qubit rates (tensor mode) or are
    resampled from the full-matrix columns.  Outcomes are visited in
    ascending index order, so a seed fixes the result.
    """
    if m.L != counts.width:
        raise ValueError("confusion matrix width mismatch")
    vec = counts.vector
    if counts.exact:
        return Counts.from_vector(m.apply_to_vector(vec), counts.width,
                                  counts.total_shots, exact=True)
    rng = np.random.default_rng(seed)
    dim = vec.size
    outcomes = np.flatnonzero(vec)
    shots = np.rint(vec[outcomes]).astype(np.int64)
    if m.method == "tensor":
        L = counts.width
        eps = np.array([f[1, 0] for f in m.factors])
        eta = np.array([f[0, 1] for f in m.factors])
        # one row of per-bit flip probabilities per shot, shots grouped by
        # outcome; a flipped bit k toggles bit k of the outcome index
        rates = np.repeat(np.where(bit_table(L)[outcomes] == 0, eps, eta), shots, axis=0)
        flips = rng.random(rates.shape) < rates
        place = 2.0 ** np.arange(L - 1, -1, -1)
        flipped = np.repeat(outcomes, shots) ^ (flips @ place).astype(np.int64)
        out = np.bincount(flipped, minlength=dim)
    else:
        out = np.zeros(dim, dtype=np.int64)
        for i, n in zip(outcomes, shots):
            col = m.matrix[:, i]
            out += rng.multinomial(n, col / col.sum())
    return Counts(out.astype(float), counts.total_shots)


# ---------------------------------------------------------------------------
# Noisy execution: trajectory unfolding over the statevector
# ---------------------------------------------------------------------------

_PAULI_MATS_2Q = {
    lab: m for lab, m in zip(pauli_basis_labels(2), pauli_basis_matrices(2))
}

_EYE2 = np.eye(2, dtype=complex)


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


class _NoisePlan:
    """Per-circuit list of gate matrices and error distributions.

    Noiseless single-qubit gates are multiplied into one 2x2 matrix per
    qubit, and a two-qubit gate takes the pending matrices A and B of its
    qubits into its own op as mat @ (A ⊗ B): they run first, then the
    gate, its overrotation and its Pauli error, so the modelled channel
    is unchanged.  A DELAY on the qubit, the end of the circuit and the
    basis boundary emit a pending matrix as an op of its own.  Fusion is
    off when per-gate single-qubit noise is switched on, since that
    noise attaches to individual gates.  An optional measurement
    ``basis`` rotation is planned after the circuit, from ``ops[split]``
    on, with no fusion across the boundary.
    """

    def __init__(self, circuit: Circuit, spec: NoiseSpec, basis: Circuit | None = None):
        self.width = circuit.width
        self.ops: list[tuple] = []
        self.has_stochastic = False
        self.has_quasi_static = False
        fuse = spec.single_qubit_depolarizing == 0.0
        pending: dict[int, np.ndarray] = {}

        def flush(q: int):
            mat = pending.pop(q, None)
            if mat is not None:
                self.ops.append(("gate", (q,), mat))

        def add(gates) -> None:
            for g in gates:
                add_gate(g)
            for q in sorted(pending):
                flush(q)

        def add_gate(g: Gate) -> None:
            if g.kind == "DELAY":
                flush(g.qubits[0])
                p_flip = 0.0
                if spec.idle_stochastic_rate_per_ns > 0 and g.duration_ns > 0:
                    p_flip = 0.5 * (1.0 - math.exp(-g.duration_ns * spec.idle_stochastic_rate_per_ns))
                    self.has_stochastic = True
                if spec.idle_dephasing_rad_per_ns > 0 and g.duration_ns > 0:
                    self.has_quasi_static = True
                self.ops.append(("delay", g.qubits, g.duration_ns, p_flip))
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
                if total > 0:
                    self.has_stochastic = True
                    self.ops.append(("gate2", g.qubits, mat, cum, mats, total))
                else:
                    self.ops.append(("gate", g.qubits, mat))
            elif fuse:
                q = g.qubits[0]
                pending[q] = entry @ pending[q] if q in pending else entry
            else:
                self.has_stochastic = True
                self.ops.append(("gate1", g.qubits, entry, spec.single_qubit_depolarizing))

        add(circuit.gates)
        self.split = len(self.ops)
        if basis is not None:
            add(basis.gates)
        self.stochastic = self.has_stochastic or self.has_quasi_static

    def run_batch(self, amps: np.ndarray, rngs: list[np.random.Generator],
                  omegas: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Evolve a (T, 2^width) stack of trajectories through the plan.

        Trajectory t draws one uniform per noisy operation from
        ``rngs[t]``, in plan order, and dephases idle windows at its
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
        for i, op in enumerate(self.ops):
            if i == self.split:
                kept, psi = psi, psi.copy()
            tag = op[0]
            if tag == "gate":
                psi = _apply_matrix(psi, op[2], op[1], width)
            elif tag == "gate2":
                _, qubits, mat, cum, mats, total = op
                psi = _apply_matrix(psi, mat, qubits, width)
                us = np.array([r.random() for r in rngs])
                for t in np.nonzero(us < total)[0]:
                    k = int(np.searchsorted(cum, us[t], side="right"))
                    psi[t:t + 1] = _apply_matrix(psi[t:t + 1], mats[k], qubits, width)
            elif tag == "gate1":
                _, qubits, mat, p1 = op
                psi = _apply_matrix(psi, mat, qubits, width)
                us = np.array([r.random() for r in rngs])
                for t in np.nonzero(us < p1 * 0.75)[0]:
                    pauli = "XYZ"[min(int(us[t] / (p1 * 0.25)), 2)]
                    psi[t:t + 1] = _apply_matrix(psi[t:t + 1], PAULI_1Q[pauli], qubits, width)
            else:  # delay
                _, qubits, dur, p_flip = op
                q = qubits[0]
                if omegas is not None and dur > 0:
                    half = 0.5 * omegas[:, q] * dur
                    view = psi.reshape(n_traj, 1 << q, 2, -1)
                    view[:, :, 0, :] *= np.exp(-1j * half)[:, None, None]
                    view[:, :, 1, :] *= np.exp(1j * half)[:, None, None]
                if p_flip > 0:
                    us = np.array([r.random() for r in rngs])
                    for t in np.nonzero(us < p_flip)[0]:
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


def chain_noise(circuits: list[Circuit], spec: NoiseSpec) -> tuple[bool, bool]:
    """(stochastic, quasi_static) of trajectories that run ``circuits``
    one after another: whether some circuit's plan draws per-trajectory
    noise, and whether some circuit dephases idles at quasi-static rates.
    The same rule as a single circuit's ``_NoisePlan``."""
    plans = [_NoisePlan(c, spec) for c in {id(c): c for c in circuits}.values()]
    return any(p.stochastic for p in plans), any(p.has_quasi_static for p in plans)


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
    pattern per trajectory); with ``infinite=True`` each trajectory
    contributes its exact outcome distribution instead of samples.
    Forward readout confusion is applied last.  ``seed`` may be an int
    or a sequence of ints; the shots are drawn from ``seed + [4]`` and
    the readout flips from ``seed + [3]``.

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
    width = circuit.width
    plan = _NoisePlan(circuit, spec, basis)
    base = [int(v) for v in np.atleast_1d(seed)]
    if batch is None:
        n_traj = trajectory_count(plan.stochastic, shots, shots_per_trajectory)
        batch = TrajectoryBatch.seeded(spec, n_traj, base, Statevector.zero(width),
                                       plan.has_quasi_static)
    measured = batch.advance(plan)

    n_traj = len(measured)
    if infinite:
        probs = np.mean(np.abs(measured) ** 2, axis=0)
        counts = Counts.from_vector(probs * shots, width, float(shots), exact=True)
    else:
        share = [shots // n_traj] * n_traj
        for i in range(shots % n_traj):
            share[i] += 1
        rng = np.random.default_rng(base + [4])
        total = np.zeros(2**width, dtype=np.int64)
        for t in range(n_traj):
            if share[t] == 0:
                continue
            p = np.abs(measured[t]) ** 2
            total += rng.multinomial(share[t], p / p.sum())
        counts = Counts.from_vector(total.astype(float), width, float(shots))

    if spec.has_readout_error():
        m = spec._memoized(("readout", width), lambda: ConfusionMatrix.from_rates(
            width, spec.readout_eps, spec.readout_eta))
        counts = apply_readout_error(counts, m, base + [3])
    return counts


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
