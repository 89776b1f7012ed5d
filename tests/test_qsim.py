"""Core simulator: gate algebra, execution, sampling, the Pauli basis."""
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim import qsim
from scarsim.noise import noiseless, run_noisy_counts
from scarsim.qsim import (
    Circuit,
    Counts,
    Gate,
    Statevector,
    circuit_unitary,
    cnot,
    gate_matrix,
    h,
    pauli_basis_matrices,
    pauli_gate,
    run_circuit,
    rx,
    ry,
    rz,
    rzz,
    rzx,
    s,
    x,
)


def _embed(mat: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Lift a 2^k operator on the listed qubits to the full 2^width space
    (the kernel's dense oracle)."""
    k = len(qubits)
    dim = 2**width
    mat_t = np.asarray(mat, dtype=complex).reshape([2] * (2 * k))
    full = np.eye(dim, dtype=complex).reshape([2] * (2 * width))
    # contract the k output axes of the identity with the gate inputs
    full = np.tensordot(mat_t, full, axes=(list(range(k, 2 * k)), list(qubits)))
    full = np.moveaxis(full, range(k), qubits)
    return full.reshape(dim, dim)


def pauli_string(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string, letter k on qubit k."""
    return reduce(np.kron, (qsim.PAULI_1Q[ch] for ch in letters))


class TestGateConstruction:
    def test_rotation_requires_angle(self):
        with pytest.raises(ValueError):
            Gate("RX", (0,))

    def test_non_rotation_rejects_angle(self):
        with pytest.raises(ValueError):
            Gate("H", (0,), angle=0.3)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            rx(0, float("nan"))

    def test_repeated_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(ValueError):
            Circuit(2, [x(3)])


class TestGateMatrices:
    def test_hssh_is_x_up_to_phase(self):
        # composition identity pinning the S = diag(1, i) convention
        m = gate_matrix(h(0)) @ gate_matrix(s(0)) @ gate_matrix(s(0)) @ gate_matrix(h(0))
        ratio = m @ np.linalg.inv(gate_matrix(x(0)))
        np.testing.assert_allclose(ratio, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("kind,pauli", [("RX", "X"), ("RY", "Y"), ("RZ", "Z")])
    def test_rotation_convention(self, kind, pauli):
        theta = 0.731
        from scipy.linalg import expm

        expected = expm(-0.5j * theta * qsim.PAULI_1Q[pauli])
        got = gate_matrix(Gate(kind, (0,), angle=theta))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("kind,letters", [("RZZ", "ZZ"), ("RZX", "ZX")])
    def test_two_qubit_rotation_convention(self, kind, letters):
        theta = 1.234
        from scipy.linalg import expm

        expected = expm(-0.5j * theta * pauli_string(letters))
        got = gate_matrix(Gate(kind, (0, 1), angle=theta))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_inverse_gates(self):
        for g in [rx(0, 0.3), rz(0, -1.1), rzz(0, 1, 2.0), cnot(0, 1), s(0), h(0)]:
            prod = gate_matrix(g) @ gate_matrix(g.inverse())
            np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-12)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    return run_circuit(state, Circuit(state.width, [gate]))


def expectation(state: Statevector, letters: str) -> float:
    return np.vdot(state.amplitudes, pauli_string(letters) @ state.amplitudes).real


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(Statevector.zero(1), h(0))
        np.testing.assert_allclose(out.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_rzz_phase_on_00(self):
        # ZZ eigenvalue +1 on |00>: phase exp(-i*theta/2) = exp(-i*1.0)
        out = apply_gate(Statevector.zero(2), rzz(0, 1, 2.0))
        np.testing.assert_allclose(out.amplitudes[0], np.exp(-1.0j), atol=1e-12)
        np.testing.assert_allclose(np.abs(out.amplitudes), [1, 0, 0, 0], atol=1e-12)

    def test_cnot_truth_table(self):
        out = apply_gate(Statevector.from_bitstring("10"), cnot(0, 1))
        np.testing.assert_allclose(out.amplitudes, Statevector.from_bitstring("11").amplitudes)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_gate(Statevector.zero(1), x(4))  # the one-qubit circuit refuses it

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = Statevector(amps / np.linalg.norm(amps))
        for g in [h(0), rzz(1, 2, 0.77), cnot(2, 0), rx(1, -2.2)]:
            state = apply_gate(state, g)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


@st.composite
def _kernel_cases(draw):
    """(width, ordered subset of 1 to width qubits: any order, or an
    ascending run of consecutive qubits starting at the first qubit, at a
    middle one or ending at the last, stack height up to the 8
    trajectories of the paper's shape, seed)."""
    width = draw(st.integers(1, 7))
    k = draw(st.integers(1, width))
    where = draw(st.sampled_from(["any", "first", "middle", "last"]))
    if where == "any":
        qubits = tuple(draw(st.permutations(range(width)))[:k])
    else:
        inner = (1, width - k - 1) if width - k >= 2 else (0, width - k)
        start = {"first": 0, "last": width - k}.get(where)
        start = draw(st.integers(*inner)) if start is None else start
        qubits = tuple(range(start, start + k))
    return width, qubits, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_kernel_cases())
def test_kernel_matches_embedded_matrix(case):
    # every row of the one amplitude kernel equals the dense embedded
    # operator times that row, for random unitaries on up to 7 qubits in
    # any order, and is bit for bit the row run alone, which is what lets
    # trajectories share a row until their first error.  The result is
    # one of the two buffers
    width, qubits, n_traj, seed = case
    rng = np.random.default_rng(seed)
    dim = 2 ** len(qubits)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    given = rng.normal(size=(n_traj, 2**width)) + 1j * rng.normal(size=(n_traj, 2**width))
    given /= np.linalg.norm(given, axis=1, keepdims=True)
    psi, spare = given.copy(), np.empty_like(given)
    out = qsim._apply_matrix(psi, unitary, qubits, width, spare)
    assert out is psi or out is spare
    full = _embed(unitary, qubits, width)
    assert out.shape == given.shape
    for row_in, row_out in zip(given, out):
        np.testing.assert_allclose(row_out, full @ row_in, rtol=0, atol=1e-12)
        alone = row_in[None].copy()
        alone = qsim._apply_matrix(alone, unitary, qubits, width, np.empty_like(alone))
        np.testing.assert_array_equal(alone[0], row_out)


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        state = Statevector.from_bitstring("011")
        out = run_circuit(state, Circuit(3))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_x_involution(self):
        c = Circuit(5, [x(q) for q in range(5)] * 2)
        out = run_circuit(Statevector.zero(5), c)
        np.testing.assert_allclose(out.amplitudes, Statevector.zero(5).amplitudes, atol=1e-12)

    def test_neel_prep(self):
        # X on even sites (1-based) of |00000> prepares |01010>
        c = Circuit(5, [x(q) for q in range(5) if (q + 1) % 2 == 0])
        out = run_circuit(Statevector.zero(5), c)
        np.testing.assert_allclose(
            out.amplitudes, Statevector.from_bitstring("01010").amplitudes
        )

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Statevector.zero(2), Circuit(3))

    def test_norm_preserved_long_random_circuit(self):
        # 10^4 gates on 6 qubits stays normalized to 1e-10
        rng = np.random.default_rng(11)
        gates = []
        for _ in range(10_000):
            kind = rng.integers(4)
            if kind == 0:
                gates.append(rx(int(rng.integers(6)), float(rng.normal())))
            elif kind == 1:
                gates.append(rz(int(rng.integers(6)), float(rng.normal())))
            elif kind == 2:
                q0, q1 = rng.choice(6, size=2, replace=False)
                gates.append(rzz(int(q0), int(q1), float(rng.normal())))
            else:
                q0, q1 = rng.choice(6, size=2, replace=False)
                gates.append(cnot(int(q0), int(q1)))
        out = run_circuit(Statevector.zero(6), Circuit(6, gates))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_unitarity_oracle(self, width):
        # matrix assembled from basis-state runs is unitary to 1e-9
        rng = np.random.default_rng(width)
        gates = []
        for _ in range(30):
            q0, q1 = rng.choice(width, size=2, replace=False)
            gates.extend(
                [
                    rx(int(q0), float(rng.normal())),
                    rzx(int(q0), int(q1), float(rng.normal())),
                    cnot(int(q1), int(q0)),
                ]
            )
        u = circuit_unitary(Circuit(width, gates))
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(2**width), atol=1e-9
        )


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(Statevector.zero(1), "Z") == pytest.approx(1.0)

    def test_x_on_plus(self):
        plus = apply_gate(Statevector.zero(1), h(0))
        assert expectation(plus, "X") == pytest.approx(1.0)

    def test_zz_on_01(self):
        state = Statevector.from_bitstring("01")
        assert expectation(state, "ZZ") == pytest.approx(-1.0)

    def test_random_state_against_dense_matrix(self):
        # the Pauli string's dense matrix against its letters run as gates,
        # letter k on qubit k
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = Statevector(amps / np.linalg.norm(amps))
        for letters in ["XZIY", "IIZI", "YYXX"]:
            gates = [pauli_gate("IXYZ".index(ch), q) for q, ch in enumerate(letters)]
            phi = run_circuit(state, Circuit(4, [g for g in gates if g is not None]))
            gated = np.vdot(state.amplitudes, phi.amplitudes).real
            assert expectation(state, letters) == pytest.approx(gated, abs=1e-12)


class TestSampling:
    # the one sampler, run_noisy_counts, in the noiseless case
    def test_basis_state_all_counts_on_one_string(self):
        counts = run_noisy_counts(Circuit(4, [x(1), x(3)]), noiseless(), 500, seed=1)
        assert counts.data == {"0101": 500.0}

    def test_infinite_shot_bell(self):
        bell = Circuit(2, [h(0), cnot(0, 1)])
        counts = run_noisy_counts(bell, noiseless(), 8192, seed=0, infinite=True)
        assert counts.data == pytest.approx({"00": 4096.0, "11": 4096.0})

    def test_seed_determinism(self):
        plus = Circuit(1, [h(0)])
        a = run_noisy_counts(plus, noiseless(), 1000, seed=42)
        b = run_noisy_counts(plus, noiseless(), 1000, seed=42)
        assert a.data == b.data

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            run_noisy_counts(Circuit(1, []), noiseless(), 0, seed=0)

    def test_finite_shot_convergence_5_sigma(self):
        bell = Circuit(2, [h(0), cnot(0, 1)])
        shots = 100_000
        counts = run_noisy_counts(bell, noiseless(), shots, seed=9)
        freq = counts.data.get("00", 0.0) / shots
        assert abs(freq - 0.5) < 5 * np.sqrt(0.25 / shots)

    def test_infinite_shot_matches_probabilities_exactly(self):
        rng = np.random.default_rng(5)
        circ = Circuit(3, [g for q in range(3) for g in (rx(q, rng.uniform(0, 3)),
                                                        rz(q, rng.uniform(0, 3)))]
                       + [cnot(0, 1), rzz(1, 2, 0.7), ry(2, 1.1)])
        counts = run_noisy_counts(circ, noiseless(), 1, seed=0, infinite=True)
        want = run_circuit(Statevector.zero(3), circ).probabilities()
        np.testing.assert_allclose(counts.to_vector(), want, atol=1e-15)


class TestCounts:
    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            Counts.from_dict({"00": 3.0}, total_shots=5.0, width=2)

    def test_quasi_counts_allow_mismatch_and_negatives(self):
        c = Counts.from_dict({"0": -0.25, "1": 1.25}, total_shots=1.0, width=1, quasi=True)
        assert c.data["0"] < 0

    def test_vector_round_trip(self):
        c = Counts.from_dict({"01": 2.0, "10": 3.0}, total_shots=5.0, width=2)
        back = Counts.from_vector(c.to_vector(), 2, 5.0)
        assert back.data == c.data


def test_embedding_acts_on_the_listed_qubit():
    # the dense embedding the kernel test compares with
    flip = _embed(qsim.PAULI_1Q["X"], (1,), 2)
    out = flip @ Statevector.from_bitstring("10").amplitudes
    np.testing.assert_array_equal(out, Statevector.from_bitstring("11").amplitudes)


class TestPauliBasis:
    def test_basis_is_built_once_and_read_only(self):
        # tomography asks for the basis thousands of times per run
        first, second = pauli_basis_matrices(2), pauli_basis_matrices(2)
        assert first is not second and all(a is b for a, b in zip(first, second))
        with pytest.raises(ValueError, match="read-only"):
            first[1][0, 0] = 2.0

    def test_basis_order(self):
        mats = pauli_basis_matrices(2)
        np.testing.assert_array_equal(mats[1], np.kron(np.eye(2), qsim.PAULI_1Q["X"]))
        np.testing.assert_array_equal(mats[4], np.kron(qsim.PAULI_1Q["X"], np.eye(2)))


class TestIdleIntervals:
    def test_delay_is_identity_in_noiseless_run(self):
        state = apply_gate(Statevector.zero(1), h(0))
        out = apply_gate(state, qsim.delay(0, 500.0))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
