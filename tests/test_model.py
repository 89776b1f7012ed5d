"""Chain model: Hamiltonian forms, Trotter step, Neel states, Fibonacci space."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from scarsim.model import (
    ModelParams,
    bond_gates,
    build_hamiltonian,
    build_trotter_step,
    exact_evolve,
    fibonacci_projector,
    neel_bitstring,
    neel_state,
    trotter_angles,
    trotter_step,
)
from scarsim.qsim import Circuit, bit_table, circuit_unitary, run_circuit
from oracles import (
    basis_state,
    build_hamiltonian_occupation,
    fibonacci_dimension,
    project,
    qmbs_params,
)


def _trotter_steps(p: ModelParams, steps: int, **kwargs) -> Circuit:
    """``steps`` repetitions of the Trotter step (no state preparation)."""
    return Circuit(p.L, build_trotter_step(p, **kwargs).gates * steps)


class TestHamiltonian:
    def test_pauli_and_occupation_forms_differ_by_identity(self):
        # the two forms must differ by a multiple of the identity
        p = ModelParams(V=1.3, Omega=0.4, dt=1.0, L=4)
        diff = (build_hamiltonian_occupation(p) - build_hamiltonian(p)).toarray()
        shift = diff[0, 0]
        np.testing.assert_allclose(diff, shift * np.eye(2**p.L), atol=1e-12)
        assert shift == pytest.approx(p.V * (p.L - 1))

    def test_11_vs_00_gap(self):
        # occupation term contributes 4V only on |11> for L=2, Omega=0
        p = ModelParams(V=0.7, Omega=0.0, dt=1.0, L=2)
        ham = build_hamiltonian(p).toarray()
        gap = ham[0b11, 0b11] - ham[0b00, 0b00]
        assert gap == pytest.approx(4 * p.V)

    def test_diagonal_when_omega_zero(self):
        p = ModelParams(V=1.0, Omega=0.0, dt=1.0, L=3)
        ham = build_hamiltonian(p).toarray()
        np.testing.assert_allclose(ham, np.diag(np.diag(ham)))

    def test_hermitian(self):
        ham = build_hamiltonian(qmbs_params(5)).toarray()
        np.testing.assert_allclose(ham, ham.conj().T)


class TestTrotterAngles:
    def test_qmbs_zz_angle(self):
        ang = trotter_angles(qmbs_params(5))
        assert ang.theta_zz == pytest.approx(2.0)

    def test_x_angle(self):
        ang = trotter_angles(ModelParams(V=1.0, Omega=0.24, dt=1.0, L=5))
        assert ang.theta_x == pytest.approx(0.48)

    def test_edge_rule(self):
        ang = trotter_angles(ModelParams(V=0.9, Omega=0.3, dt=0.5, L=4))
        assert ang.theta_z_edge == pytest.approx(ang.theta_z_bulk / 2)
        assert ang.theta_zz == pytest.approx(-ang.theta_z_edge)

    def test_edge_sites_get_half_angle_in_circuit(self):
        p = qmbs_params(6)
        circ = build_trotter_step(p, impl="rzz")
        ang = trotter_angles(p)
        z_gates = {g.qubits[0]: g.angle for g in circ.gates if g.kind == "RZ"}
        assert z_gates[0] == pytest.approx(ang.theta_z_edge)
        assert z_gates[5] == pytest.approx(ang.theta_z_edge)
        for q in range(1, 5):
            assert z_gates[q] == pytest.approx(ang.theta_z_bulk)


class TestTrotterStep:
    @pytest.mark.parametrize("impl", ["two-cnot", "scaled-rzx", "rzz"])
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_step_unitary_matches_layer_product(self, impl, L):
        # dense matrix-exponential oracle for the three-layer splitting
        p = ModelParams(V=1.0, Omega=0.24, dt=1.0, L=L)
        u_circ = circuit_unitary(build_trotter_step(p, impl=impl))
        # the step applied to each basis state: row i is U e_i
        u_oracle = trotter_step(p, np.eye(2**L)).T
        np.testing.assert_allclose(u_circ, u_oracle, atol=1e-10)

    def test_bond_order_irrelevant_to_unitary(self):
        # the step schedules even bonds, then odd ones; the bond gates
        # commute, so the sequential bond order gives the same unitary
        p = qmbs_params(5)
        step = build_trotter_step(p)
        bonds = [g for b in range(p.L - 1)
                 for g in bond_gates(b, b + 1, trotter_angles(p).theta_zz, "scaled-rzx")]
        sequential = Circuit(p.L, list(step.gates[:2 * p.L]) + bonds)  # X and Z layers first
        assert sorted(map(repr, sequential.gates)) == sorted(map(repr, step.gates))
        np.testing.assert_allclose(circuit_unitary(step), circuit_unitary(sequential), atol=1e-12)

    def test_convergence_to_exact_with_small_dt(self):
        # first-order Trotter: halving dt roughly halves the state error
        L, t = 4, 1.0
        errs = {}
        for dt in (0.1, 0.05):
            p = ModelParams(V=1.0, Omega=0.24, dt=dt, L=L)
            steps = round(t / dt)
            psi = run_circuit(
                neel_state(L), _trotter_steps(p, steps, impl="rzz")
            )
            ref = exact_evolve(p, steps)[-1]
            errs[dt] = np.linalg.norm(psi - ref)
        ratio = errs[0.1] / errs[0.05]
        assert 1.7 <= ratio <= 2.3

    def test_idle_annotation_covers_spectator_qubits(self):
        p = qmbs_params(5)
        circ = build_trotter_step(p, impl="rzz", idle_ns=100.0)
        delays = [g for g in circ.gates if g.kind == "DELAY"]
        # even sub-layer busies qubits 0..3 -> qubit 4 idles; odd sub-layer
        # busies 1..4 -> qubit 0 idles
        assert {g.qubits[0] for g in delays} == {0, 4}

    def test_negative_idle_window_refused(self):
        # the idle windows are built by qsim.delay, which refuses a
        # negative duration
        with pytest.raises(ValueError, match="nonnegative"):
            build_trotter_step(qmbs_params(5), impl="rzz", idle_ns=-1.0)


class TestNeelStates:
    def test_z2_bitstring(self):
        assert neel_bitstring(5) == "01010"

    def test_staggered_extremal_value(self):
        # Z_pi = sum_i (-1)^i Z_i takes -L on |Z2>
        L = 6
        state = neel_state(L)
        z = 1 - 2 * bit_table(L).astype(float)  # Z eigenvalue of each qubit per outcome
        val = np.abs(state) ** 2 @ z @ (-1.0) ** np.arange(1, L + 1)
        assert val == pytest.approx(-L)


def _dense_hamiltonian(p: ModelParams) -> np.ndarray:
    """The Pauli form, one matrix element at a time from the bit strings."""
    L = p.L
    ham = np.zeros((2**L, 2**L))
    for i in range(2**L):
        z = [1 - 2 * int(b) for b in format(i, f"0{L}b")]
        ham[i, i] = (p.V * sum(z[q] * z[q + 1] for q in range(L - 1))
                     - 2 * p.V * sum(z[1:-1]) - p.V * (z[0] + z[-1]))
        for q in range(L):
            ham[i ^ (1 << q), i] += p.Omega
    return ham


class TestExactEvolve:
    def test_t_zero_returns_initial(self):
        (out,) = exact_evolve(qmbs_params(6), 0)
        np.testing.assert_allclose(out, neel_state(6), atol=1e-12)

    def test_norm_one_at_all_times(self):
        for dt in (0.3, 2.0, 17.5):
            for out in exact_evolve(ModelParams(V=1.0, Omega=0.24, dt=dt, L=5), 3):
                assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 8), V=st.floats(-2.0, 2.0), Omega=st.floats(-2.0, 2.0),
           dt=st.floats(-1.5, 1.5), steps=st.integers(0, 5))
    @example(L=3, V=1.0, Omega=0.4, dt=1.7, steps=1)
    @example(L=3, V=2.0, Omega=2.6899415272651496e-164, dt=1.5, steps=4)
    def test_matches_expm_oracle(self, L, V, Omega, dt, steps):
        p = ModelParams(V=V, Omega=Omega, dt=dt, L=L)
        ham = _dense_hamiltonian(p)
        psi0 = neel_state(L)
        out = exact_evolve(p, steps)
        assert out.shape == (steps + 1, 2**L)
        for n, psi in enumerate(out):
            ref = expm(-1j * ham * n * dt) @ psi0
            np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-10)

    def test_norm_and_energy_conserved_above_the_dense_range(self):
        p = qmbs_params(15, dt=0.5)
        ham = build_hamiltonian(p)
        states = exact_evolve(p, 2)
        energies = [np.vdot(a, ham @ a).real for a in states]
        for a, energy in zip(states, energies):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
            assert energy == pytest.approx(energies[0], abs=1e-9)

    def test_l12_revival_window(self):
        # staggered magnetization revival within Vt in [15, 25]
        states = exact_evolve(qmbs_params(12), 30)[1:]
        mags = np.array([_staggered_from_probs(np.abs(psi) ** 2, 12) for psi in states])
        # the initial value is -L; the revival is the most negative point
        # after the first half-period upswing
        revival_step = 1 + int(np.argmin(mags[10:])) + 10
        assert 15 <= revival_step <= 25
        assert mags[revival_step - 1] / 12 < -0.4


def _staggered_from_probs(probs: np.ndarray, L: int) -> float:
    idx = np.arange(2**L)
    bits = (idx[:, None] >> (L - 1 - np.arange(L))) & 1
    signs = np.array([(-1) ** (q + 1) for q in range(L)])
    zper = 1.0 - 2.0 * bits
    return float(probs @ (zper * signs).sum(axis=1))


class TestFibonacci:
    def test_l5_dimension_brute_force(self):
        # brute-force enumeration of the 2^5 strings without adjacent 1s
        count = sum(
            1 for i in range(32) if "11" not in format(i, "05b")
        )
        assert count == 13
        assert fibonacci_projector(5).sum() == 13

    def test_dimension_matches_recursion(self):
        for L in range(1, 21):
            assert fibonacci_projector(L).sum() == fibonacci_dimension(L)

    def test_neel_weight_is_one(self):
        mask = fibonacci_projector(5)
        _, w = project(neel_state(5), mask)
        assert w == pytest.approx(1.0)

    def test_zero_weight_flagged(self):
        mask = fibonacci_projector(2)
        state_11 = basis_state("11")
        proj, w = project(state_11, mask)
        assert proj is None and w == 0.0

    def test_projected_state_renormalized(self):
        psi = run_circuit(
            neel_state(4),
            _trotter_steps(qmbs_params(4), 3, impl="rzz"),
        )
        proj, w = project(psi, fibonacci_projector(4))
        assert 0 < w < 1
        assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-12)

    def test_l12_trotter_average_weight(self):
        # ideal Trotter keeps 60-90% weight in the subspace on average
        p = qmbs_params(12)
        mask = fibonacci_projector(12)
        psi = neel_state(12)
        step = build_trotter_step(p, impl="rzz")
        weights = []
        for _ in range(39):
            psi = run_circuit(psi, step)
            weights.append(project(psi, mask)[1])
        assert 0.6 <= np.mean(weights) <= 0.9
