"""Dense statevector circuit simulation, outcome counts and the Pauli basis.

Conventions, fixed once and used everywhere:

* Chain sites are numbered 1..L in physics formulas; qubit indices are
  0-based, qubit q <-> site q+1.
* A state is its complex amplitude array, of length 2^width; T states
  are a (T, 2^width) stack.
* Amplitude and outcome index i encodes qubit 0 as the most significant
  bit: bit k of i, counted from the left, is qubit k, i.e. site k+1
  (``bit_table``).  In a bitstring, character k is that same bit.
* |0> is the Z = +1 eigenstate (occupation n = 0).
* Rotations follow RP(theta) = exp(-i * theta * P / 2) for P in
  {X, Y, Z, ZZ, ZX}; S = diag(1, i).
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import cos, sin, sqrt

import numpy as np

SQRT2_INV = 1.0 / sqrt(2.0)

ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "RZZ", "RZX"})
TWO_QUBIT_KINDS = frozenset({"RZZ", "RZX", "CNOT"})
FIXED_KINDS = frozenset({"H", "S", "SDG", "X", "Y", "Z", "CNOT"})
ALL_KINDS = ROTATION_KINDS | FIXED_KINDS | {"DELAY"}

_FIXED_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": _FIXED_MATRICES["X"],
    "Y": _FIXED_MATRICES["Y"],
    "Z": _FIXED_MATRICES["Z"],
}
PAULI_LETTERS = "IXYZ"


@dataclass(frozen=True, eq=False)
class Gate:
    """One circuit operation on an ordered tuple of qubits.

    ``angle`` is required for rotation kinds and forbidden otherwise;
    ``duration_ns`` is only set for kind="DELAY" (an annotated idle
    window, identity in noiseless runs).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    duration_ns: float = 0.0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit index in {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not np.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires one finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} must not carry an angle")
        expected = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} acts on {expected} qubit(s), got {len(self.qubits)}")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2

    def inverse(self) -> "Gate":
        return self._inverse

    @cached_property
    def _inverse(self) -> "Gate":
        """The inverse, built once per gate (folding asks for it at
        every fold of the gate)."""
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.qubits, angle=-self.angle)
        if self.kind == "S":
            return Gate("SDG", self.qubits)
        if self.kind == "SDG":
            return Gate("S", self.qubits)
        return self


# -- terse constructors used throughout the package --

def rx(q: int, theta: float) -> Gate:
    return Gate("RX", (q,), angle=theta)


def ry(q: int, theta: float) -> Gate:
    return Gate("RY", (q,), angle=theta)


def rz(q: int, theta: float) -> Gate:
    return Gate("RZ", (q,), angle=theta)


def rzz(q0: int, q1: int, theta: float) -> Gate:
    return Gate("RZZ", (q0, q1), angle=theta)


def rzx(control: int, target: int, theta: float) -> Gate:
    return Gate("RZX", (control, target), angle=theta)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def sdg(q: int) -> Gate:
    return Gate("SDG", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def delay(q: int, duration_ns: float) -> Gate:
    if duration_ns < 0:
        raise ValueError("delay duration must be nonnegative")
    return Gate("DELAY", (q,), duration_ns=duration_ns)


def pauli_gate(index: int, q: int) -> Gate | None:
    """Pauli index 0..3 -> None (identity skipped) or an X/Y/Z gate."""
    if index == 0:
        return None
    return Gate(PAULI_LETTERS[index], (q,))


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate (DELAY is the identity)."""
    k = gate.kind
    if k in _FIXED_MATRICES:
        return _FIXED_MATRICES[k]
    if k == "DELAY":
        return np.eye(2, dtype=complex)
    t = gate.angle
    c, sn = cos(t / 2.0), sin(t / 2.0)
    if k == "RX":
        return np.array([[c, -1j * sn], [-1j * sn, c]])
    if k == "RY":
        return np.array([[c, -sn], [sn, c]], dtype=complex)
    if k == "RZ":
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])
    if k == "RZZ":
        ph = np.exp(-0.5j * t)
        return np.diag([ph, ph.conjugate(), ph.conjugate(), ph])
    if k == "RZX":
        # block diagonal: RX(theta) on control=0, RX(-theta) on control=1
        rxm = np.array([[c, -1j * sn], [-1j * sn, c]])
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = rxm
        out[2:, 2:] = rxm.conj().T
        return out
    raise ValueError(f"unhandled kind {k}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``width`` qubits; immutable once built."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be >= 1")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.width:
                raise ValueError(
                    f"gate {g.kind} on {g.qubits} exceeds width {self.width}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def two_qubit_positions(self) -> tuple[int, ...]:
        """Indices in ``gates`` of the two-qubit gates, found once."""
        return tuple(i for i, g in enumerate(self.gates) if g.is_two_qubit)

    @property
    def n_two_qubit(self) -> int:
        return len(self.two_qubit_positions)


def _check_state(psi, width: int) -> np.ndarray:
    """``psi`` as a complex array, refused unless it holds 2^width
    amplitudes of unit norm (to 1e-10)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (1 << width,):
        raise ValueError(f"state shape {psi.shape} != ({1 << width},) for width {width}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
    return psi


def _apply_matrix(psi: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], width: int,
                  spare: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the k listed qubits of every row of a
    C-contiguous (T, 2^width) stack of amplitude arrays; the only
    amplitude kernel.  ``qubits[0]`` is the most significant bit of the
    matrix index.

    ``spare`` is caller-owned scratch of the stack's shape and dtype.
    The kernel allocates nothing: it returns whichever of ``psi`` and
    ``spare`` holds the result and leaves the other overwritten, so a
    caller passes the two buffers back and forth.

    A window on consecutive qubits in ascending order multiplies a
    reshaped view of the stack into ``spare`` (``_layout`` says where);
    any other window is gathered into ``spare``, multiplied into ``psi``
    and scattered back into ``spare``.  A single qubit runs elementwise,
    with ``spare`` as scratch, into ``psi``.  Each row comes out bit for
    bit as it would run alone, and as the gathered form gives it."""
    n_traj = psi.shape[0]
    layout = _layout(qubits, width)
    if layout is None:  # one qubit
        q = qubits[0]
        view = psi.reshape(n_traj, 1 << q, 2, -1)
        a, b = view[:, :, 0, :], view[:, :, 1, :]
        out = spare.reshape(view.shape)
        lo, hi = out[:, :, 0, :], out[:, :, 1, :]
        # every product reads psi and writes spare: a ufunc that reads one
        # half of psi and writes the other copies its input (the halves'
        # bounds overlap), and one that scales a single amplitude in place
        # rounds differently from a longer stack
        np.multiply(mat[0, 0], a, out=lo)
        np.multiply(mat[0, 1], b, out=hi)
        np.add(lo, hi, out=lo)
        np.multiply(mat[1, 0], a, out=hi)
        a[...] = lo
        np.multiply(mat[1, 1], b, out=lo)
        np.add(hi, lo, out=b)
        return psi
    if layout == "rows":  # consecutive, ending at the last qubit
        dim = len(mat)
        np.matmul(psi.reshape(-1, dim), mat.T, out=spare.reshape(-1, dim))
        return spare
    if layout == "view":  # consecutive, with qubits after them
        shape = (-1, len(mat), 1 << (width - qubits[0] - len(qubits)))
        np.matmul(mat, psi.reshape(shape), out=spare.reshape(shape))
        return spare
    full, to_front, back = layout
    spare.reshape(full)[...] = psi.reshape(full).transpose(to_front)
    moved = (n_traj, len(mat), -1)
    np.matmul(mat, spare.reshape(moved), out=psi.reshape(moved))
    spare.reshape(full)[...] = psi.reshape(full).transpose(back)
    return spare


# A view's matmuls each cover 2^(k + rest) amplitudes of a row, for a
# window of k qubits with ``rest`` qubits after it.  Below this many the
# per-matmul overhead makes gathering the window faster (measured at 12
# qubits, 4 rows).
_VIEW_MIN_AMPS = 1 << 7


@lru_cache(maxsize=4096)
def _layout(qubits: tuple[int, ...], width: int):
    """How the kernel runs a window on ``qubits``: None for one qubit;
    "rows" or "view" for consecutive ascending qubits, run on a reshape
    of the stack; else the gathered form: the (T, 2, ..., 2) shape of a
    stack and the axis orders that move the axes of ``qubits``, in
    order, right after the trajectory axis, and back.

    A reshape is used only where it rounds as the gathered form, whose
    matmul has 2^(width - k) columns: BLAS rounds a product one or two
    columns wide differently from a wider one.  Starting at qubit 0, the
    view is the gathered form's own shape; otherwise both must be at
    least four columns wide."""
    k, q = len(qubits), qubits[0]
    if k == 1:
        return None
    if qubits == tuple(range(q, q + k)):
        rest = width - q - k
        if q == 0:
            return "view"
        if width - k >= 2 and rest == 0:
            return "rows"
        if rest >= 2 and 1 << (k + rest) >= _VIEW_MIN_AMPS:
            return "view"
    axes = [1 + q for q in qubits]
    to_front = [0] + axes + [a for a in range(1, width + 1) if a not in axes]
    return (-1,) + (2,) * width, tuple(to_front), tuple(int(a) for a in np.argsort(to_front))


def _run_gates(psi: np.ndarray, gates, width: int) -> np.ndarray:
    """Apply gates in order, one pass each, to a (T, 2^width) stack (DELAY is
    the identity); ``psi`` is overwritten."""
    spare = np.empty_like(psi)
    for g in gates:
        if g.kind != "DELAY":
            out = _apply_matrix(psi, gate_matrix(g), g.qubits, width, spare)
            if out is spare:
                psi, spare = spare, psi
    return psi


def run_circuit(psi: np.ndarray, circuit: Circuit) -> np.ndarray:
    """The amplitudes of ``circuit`` applied, gate by gate, to the state
    ``psi``; deterministic for noiseless circuits."""
    psi = _check_state(psi, circuit.width)
    return _run_gates(psi[None].copy(), circuit.gates, circuit.width)[0]


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary, every basis column evolved as one stack; oracle use,
    width <= 10."""
    if circuit.width > 10:
        raise ValueError("circuit_unitary limited to width <= 10")
    columns = np.eye(2**circuit.width, dtype=complex)
    return _run_gates(columns, circuit.gates, circuit.width).T


@lru_cache(maxsize=8)
def bit_table(width: int) -> np.ndarray:
    """(2^width, width) int8 table: entry [i, k] is bit k of outcome i,
    counted from the left (qubit k, site k+1).  Cached and read-only."""
    idx = np.arange(2**width)
    table = ((idx[:, None] >> (width - 1 - np.arange(width))) & 1).astype(np.int8)
    table.flags.writeable = False
    return table


class OutcomeView(Mapping):
    """Read-only bitstring -> weight mapping over the nonzero entries of
    a counts vector.  Keys are formatted only when iterated; ``len`` and
    ``values()`` read the vector directly."""

    __slots__ = ("_vec", "_width")

    def __init__(self, vec: np.ndarray, width: int):
        self._vec = vec
        self._width = width

    def __len__(self) -> int:
        return int(np.count_nonzero(self._vec))

    def __iter__(self):
        return (format(i, f"0{self._width}b") for i in np.flatnonzero(self._vec))

    def __getitem__(self, key: str) -> float:
        if not isinstance(key, str) or len(key) != self._width or set(key) - {"0", "1"}:
            raise KeyError(key)
        value = self._vec[int(key, 2)]
        if value == 0:
            raise KeyError(key)
        return float(value)

    def values(self) -> list[float]:
        return self._vec[np.flatnonzero(self._vec)].tolist()


@dataclass(frozen=True, eq=False)
class Counts:
    """Measured outcome weights as a dense vector over the 2^width basis.

    ``vector[i]`` is the weight of outcome i; bit k of i, counted from
    the left, is the measured bit of qubit k (site k+1), the order of a
    state's amplitudes.  Infinite-shot data are float counts
    (probabilities x shots).  ``quasi`` marks signed quasi-counts
    produced by readout inversion, where individual values may be
    negative and need not sum to ``total_shots``.  The vector is
    read-only.
    """

    vector: np.ndarray
    total_shots: float
    quasi: bool = False

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=float)
        if vec.ndim != 1 or vec.size < 2 or vec.size & (vec.size - 1):
            raise ValueError("counts vector length must be a power of two >= 2")
        vec = vec.view()
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        if not self.quasi:
            total = vec.sum()
            if abs(total - self.total_shots) > 1e-6 * max(1.0, self.total_shots):
                raise ValueError("counts do not sum to total_shots")

    @property
    def width(self) -> int:
        return self.vector.size.bit_length() - 1

    @property
    def data(self) -> OutcomeView:
        """Bitstring view of the nonzero outcomes (inspection and tests)."""
        return OutcomeView(self.vector, self.width)

    def to_vector(self) -> np.ndarray:
        """The outcome vector itself (read-only)."""
        return self.vector

    @classmethod
    def from_vector(cls, vec: np.ndarray, width: int, total_shots: float,
                    quasi: bool = False) -> "Counts":
        if np.shape(vec) != (2**width,):
            raise ValueError(f"counts vector must have length 2^{width}")
        return cls(vec, total_shots, quasi=quasi)


# ---------------------------------------------------------------------------
# Pauli basis
# ---------------------------------------------------------------------------

def pauli_basis_matrices(n: int) -> list[np.ndarray]:
    """4^n Pauli matrices ordered (I,X,Y,Z)^n, first qubit most significant.
    Built once per n: a fresh list of shared, read-only matrices."""
    return list(_pauli_basis(n))


@lru_cache(maxsize=None)
def _pauli_basis(n: int) -> tuple[np.ndarray, ...]:
    mats = [np.array([[1]], dtype=complex)]
    for _ in range(n):
        mats = [np.kron(m, PAULI_1Q[ch]) for m in mats for ch in PAULI_LETTERS]
    for m in mats:
        m.flags.writeable = False
    return tuple(mats)


def pauli_basis_labels(n: int) -> list[str]:
    labels = [""]
    for _ in range(n):
        labels = [lab + ch for lab in labels for ch in PAULI_LETTERS]
    return labels
