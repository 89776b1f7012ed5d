"""Physics observables: staggered magnetization, return probability,
accumulated error, and the ancilla-free unequal-time correlator.

The correlator C_Y(t) = <Y_pi(t) Y_pi(0)> on the alternating initial
state reduces to local terms <Z2|(PYP)_j(t) Y_i|Z2> over even source
sites i.  Each local term is measured without an ancilla from four
prepared branches per source site:

    re: (1/2) [ <(PYP)_j(t)>_{M=+1} - <(PYP)_j(t)>_{M=-1} ]
    im: -(1/2) [ <(PYP)_j(t)>_{+Y} - <(PYP)_j(t)>_{-Y} ]

where the M branches prepare the Y eigenstates of qubit i (normalized
states; the projective outcome probabilities are exactly 1/2 because
<Z2|Y_i|Z2> = 0) and the +-Y branches rotate qubit i by -+pi/2 about Y.
All (PYP)_j of one parity commute and are read from a single
measurement after rotating that parity's qubits into the Y basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    ModelParams,
    build_trotter_step,
    neel_bitstring,
    neel_prep_circuit,
    trotter_step,
)
from .noise import _NoisePlan, noiseless
from .qsim import (
    Circuit,
    Counts,
    Statevector,
    bit_table,
    h,
    run_circuit,
    ry,
    s,
    sdg,
    x,
)

CY_BRANCHES = ("M+1", "M-1", "+Y", "-Y")
PARITIES = ("even", "odd")


def stagger_sign(site: int) -> int:
    """(-1)^i for 1-based site i."""
    return -1 if site % 2 == 1 else 1


# ---------------------------------------------------------------------------
# Time series container
# ---------------------------------------------------------------------------

@dataclass
class TimeSeries:
    """Values on a strictly increasing Vt grid with per-point errors."""

    steps: np.ndarray
    times: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        self.errors = np.asarray(self.errors, dtype=float)
        n = len(self.steps)
        if not (len(self.times) == len(self.values) == len(self.errors) == n):
            raise ValueError("series columns must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.steps)


def series_from_values(steps, dt_v, values, errors=None) -> TimeSeries:
    steps = np.asarray(steps, dtype=int)
    values = np.asarray(values)
    errors = np.zeros(len(steps)) if errors is None else np.asarray(errors, float)
    return TimeSeries(steps, steps * dt_v, values, errors)


# ---------------------------------------------------------------------------
# Estimators: the normalized outcome vector (sampled, exact, or quasi
# counts) contracted with cached per-width tables
# ---------------------------------------------------------------------------

def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _z_table(L: int) -> np.ndarray:
    """(2^L, L) table of the Z eigenvalue 1 - 2 b_i of each site."""
    return _read_only(1.0 - 2.0 * bit_table(L))


@lru_cache(maxsize=8)
def _echo_masks(reference: str) -> np.ndarray:
    """(2, 2^L) masks: Hamming distance 0, and at most 1, to the reference."""
    if set(reference) - {"0", "1"}:
        raise ValueError(f"invalid reference bitstring {reference!r}")
    ref = np.array(list(reference), dtype=np.int8)
    dist = np.sum(bit_table(len(reference)) != ref, axis=1)
    return _read_only(np.stack([dist == 0, dist <= 1]))


@lru_cache(maxsize=8)
def _pyp_table(L: int, parity: str) -> np.ndarray:
    """(sites of the parity, 2^L) values of the (PYP)_j estimator: the
    rotated bit contributes 1 - 2 b_j, each existing neighbor the
    indicator b = 0 (one-sided at the chain ends)."""
    bits = bit_table(L)
    rows = []
    for j in parity_sites(L, parity):
        val = 1.0 - 2.0 * bits[:, j - 1]
        for nb in (j - 1, j + 1):
            if 1 <= nb <= L:
                val = val * (bits[:, nb - 1] == 0)
        rows.append(val)
    return _read_only(np.array(rows).reshape(len(rows), 2**L))


class Support(NamedTuple):
    """The outcomes an estimator reads: outcome indices ``idx``, their
    normalized ``weights`` and the register ``width``."""

    idx: np.ndarray | slice
    weights: np.ndarray
    width: int


def support(obj) -> Support:
    """The ``Support`` of a state (every outcome, ``idx = slice(None)``)
    or of counts; a ``Support`` is returned as it is, so several
    estimates of one object can share one pass.

    For counts only the nonzero outcomes are kept, in ascending order,
    so the rounding of every sum is independent of the zeros the vector
    holds.
    """
    if isinstance(obj, Support):
        return obj
    if isinstance(obj, Statevector):
        return Support(slice(None), obj.probabilities(), obj.width)
    idx = np.flatnonzero(obj.vector)
    if idx.size == 0:
        raise ValueError("empty counts")
    w = obj.vector[idx]
    total = w.sum()
    if total == 0:
        raise ValueError("counts carry zero total weight")
    return Support(idx, w / total, obj.width)


def per_site_z(obj) -> np.ndarray:
    """<Z_i> for each site, from a state, counts or their support."""
    idx, w, width = support(obj)
    return w @ _z_table(width)[idx]


def stagger_sum(zs: np.ndarray) -> float:
    """sum_i (-1)^i zs_i over per-site values (1-based sites)."""
    signs = np.array([stagger_sign(q + 1) for q in range(len(zs))])
    return float(signs @ zs)


def staggered_magnetization(obj) -> float:
    """sum_i (-1)^i <Z_i> (1-based sites): -L on |Z2>, +L on |Z2'>."""
    return stagger_sum(per_site_z(obj))


def loschmidt_echo(obj, reference: str, flips_allowed: int = 0) -> float:
    """Weight fraction within Hamming distance ``flips_allowed`` of the
    reference bitstring, from counts, a state or their support."""
    if len(reference) != obj.width:
        raise ValueError("reference length must match counts width")
    if flips_allowed not in (0, 1):
        raise ValueError("flips_allowed must be 0 or 1")
    idx, w, _ = support(obj)
    return float(w[_echo_masks(reference)[flips_allowed][idx]].sum())


def accumulated_error(
    per_site_qpu: np.ndarray,
    per_site_ref: np.ndarray,
    per_site_std: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Running mean of the per-site mean squared magnetization deviation.

    Rows are steps 0..T.  D_0 is the step-0 integrand; for n >= 1,
    D_n = (1/n) sum_{k=1..n} e_k with e_k the per-site mean of
    |<Z_i>_ref - <Z_i>_qpu|^2 at step k.  Errors propagate to first
    order from the per-site standard deviations.
    """
    qpu = np.asarray(per_site_qpu, dtype=float)
    ref = np.asarray(per_site_ref, dtype=float)
    if qpu.shape != ref.shape:
        raise ValueError("QPU and reference series shapes differ")
    n_steps, L = qpu.shape
    diff = ref - qpu
    e = np.mean(diff**2, axis=1)
    d_vals = np.empty(n_steps)
    d_vals[0] = e[0]
    if n_steps > 1:
        d_vals[1:] = np.cumsum(e[1:]) / np.arange(1, n_steps)
    if per_site_std is None:
        return d_vals, np.zeros(n_steps)
    std = np.asarray(per_site_std, dtype=float)
    var_e = np.sum((2.0 * diff * std) ** 2, axis=1) / L**2
    d_err = np.empty(n_steps)
    d_err[0] = np.sqrt(var_e[0])
    if n_steps > 1:
        d_err[1:] = np.sqrt(np.cumsum(var_e[1:])) / np.arange(1, n_steps)
    return d_vals, d_err


# ---------------------------------------------------------------------------
# (PYP)_j estimation
# ---------------------------------------------------------------------------

def parity_sites(L: int, parity: str) -> list[int]:
    if parity == "even":
        return [j for j in range(1, L + 1) if j % 2 == 0]
    if parity == "odd":
        return [j for j in range(1, L + 1) if j % 2 == 1]
    raise ValueError("parity must be 'even' or 'odd'")


def y_basis_rotation(L: int, parity: str) -> Circuit:
    """Rotate the parity group's qubits from the Y to the Z basis
    (S-dagger then H), leaving the neighbor projectors in the Z basis."""
    gates = []
    for j in parity_sites(L, parity):
        q = j - 1
        gates.extend([sdg(q), h(q)])
    return Circuit(L, gates)


def pyp_expectation(counts: Counts, parity: str) -> np.ndarray:
    """<(PYP)_j> for every site j of the parity, in ``parity_sites``
    order, from one counts object.

    The counts come from a circuit whose parity-group qubits were
    rotated Y->Z before measurement: the rotated bit contributes
    (1 - 2b_j), the unrotated neighbors enter as ground-state
    indicators, one-sided at the chain ends.  Each site is its own dot
    product (one matrix-vector product would round differently).
    """
    idx, w, L = support(counts)
    return np.array([w @ row[idx] for row in _pyp_table(L, parity)])


def pyp_matrix(L: int, j: int) -> np.ndarray:
    """Dense (PYP)_j operator (oracle use)."""
    if not 1 <= j <= L:
        raise ValueError("site out of range")
    from .qsim import PAULI_1Q

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


# ---------------------------------------------------------------------------
# Correlator circuits and assembly
# ---------------------------------------------------------------------------

def cy_branch_prep(L: int, i: int, branch: str) -> Circuit:
    """Source-site preparation layer applied after the Neel circuit.

    The M branches build the Y eigenstates of qubit i out of its |1>
    component (X or identity, then H, then S; with S = diag(1, i) the
    identity route lands on |-y>, so labels attach to the produced
    eigenstate).  The rotated branches apply exp(+-i pi Y_i / 4).
    """
    if i % 2 != 0:
        raise ValueError("source site must be even (the Neel state holds |1> there)")
    if not 2 <= i <= L:
        raise ValueError("source site out of range")
    q = i - 1
    if branch == "M+1":
        gates = [x(q), h(q), s(q)]
    elif branch == "M-1":
        gates = [h(q), s(q)]
    elif branch == "+Y":
        gates = [ry(q, -np.pi / 2)]  # exp(+i pi Y/4)
    elif branch == "-Y":
        gates = [ry(q, np.pi / 2)]
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return Circuit(L, gates)


def assemble_cy(terms: np.ndarray) -> np.ndarray:
    """C_Y of the local terms <(PYP)_j>, shaped (..., sources, branches,
    L): sources i = 2, 4, ... <= L, branches in ``CY_BRANCHES`` order,
    sites j = 1..L; any other trailing shape is refused.  One complex
    value per leading index, summed source by source and site by site
    across every leading index at once."""
    terms = np.asarray(terms)
    L = terms.shape[-1] if terms.ndim else 0
    if L < 2 or terms.shape[-3:] != (L // 2, len(CY_BRANCHES), L):
        raise ValueError(f"terms must be shaped (..., L // 2 sources, {len(CY_BRANCHES)} "
                         f"branches, L >= 2 sites), got {terms.shape}")
    total = np.zeros(terms.shape[:-3], dtype=complex)
    for si, i in enumerate(range(2, L + 1, 2)):
        m_plus, m_minus, y_plus, y_minus = np.moveaxis(terms[..., si, :, :], -2, 0)
        for j in range(1, L + 1):
            vm = m_plus[..., j - 1] - m_minus[..., j - 1]
            vy = y_plus[..., j - 1] - y_minus[..., j - 1]
            total += stagger_sign(i) * stagger_sign(j) * (0.5 * vm - 0.5j * vy)
    return total


def simulate_cy_noiseless(p: ModelParams, steps: int, impl: str = "rzz") -> np.ndarray:
    """Full measurement protocol in noiseless infinite-shot mode: C_Y
    after 0, 1, ..., ``steps`` Trotter steps, as a complex array.

    The (source, branch) states are carried forward as one stack, one
    Trotter step at a time through one noiseless plan of the step, and
    measured in both parity bases, each planned once, after every step
    (rows never mix, so each evolves as it would alone), into one
    ``assemble_cy`` array.  This is the convention-pinning check: it
    must agree with ``cy_oracle`` before the protocol is trusted at scale.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    L = p.L
    spec = noiseless()
    step = _NoisePlan(build_trotter_step(p, impl=impl), spec)
    bases = {parity: _NoisePlan(y_basis_rotation(L, parity), spec) for parity in PARITIES}
    neel = run_circuit(Statevector.zero(L), neel_prep_circuit(L))
    families = [(i, b) for i in range(2, L + 1, 2) for b in CY_BRANCHES]
    psi = np.stack([run_circuit(neel, cy_branch_prep(L, i, b)).amplitudes for i, b in families])
    terms = np.empty((steps + 1, len(families), L))
    for n in range(steps + 1):
        if n:
            psi = step.run_batch(psi, [])[0]
        for parity, basis in bases.items():
            cols = [j - 1 for j in parity_sites(L, parity)]
            probs = np.abs(basis.run_batch(psi.copy(), [])[0]) ** 2
            for f, row in enumerate(probs):  # one infinite shot each
                terms[n, f, cols] = pyp_expectation(Counts(row / row.sum(), 1.0), parity)
    return assemble_cy(terms.reshape(steps + 1, L // 2, len(CY_BRANCHES), L))


def _apply_ypi(psi: np.ndarray, L: int) -> np.ndarray:
    """Y_pi psi over the last axis of ``psi``, from bit masks: (PYP)_j
    takes each basis state whose neighbors of site j read 0 to the state
    with bit j flipped, with Y's phase i (1 - 2 b_j)."""
    idx = np.arange(1 << L)
    out = np.zeros(np.shape(psi), dtype=complex)
    for j in range(1, L + 1):
        coef = 1j * (1 - 2 * ((idx >> (L - j)) & 1))
        for nb in (j - 1, j + 1):
            if 1 <= nb <= L:
                coef = coef * (((idx >> (L - nb)) & 1) == 0)
        out += stagger_sign(j) * (coef * psi)[..., idx ^ (1 << (L - j))]
    return out


def cy_oracle(p: ModelParams, steps: int) -> complex:
    """Two-time correlator <Z2| U^dag Y_pi U Y_pi |Z2> with U the
    ``steps``-fold Trotter step, applied to |Z2> and Y_pi |Z2> as one
    two-row stack one step at a time (``trotter_step``); Y_pi is applied
    from bit masks, so no 2^L x 2^L matrix is formed."""
    bra = Statevector.from_bitstring(neel_bitstring(p.L)).amplitudes
    pair = np.stack([bra, _apply_ypi(bra, p.L)])
    for _ in range(steps):
        pair = trotter_step(p, pair)
    return complex(pair[0].conj() @ _apply_ypi(pair[1], p.L))
