"""Chain model: Hamiltonian forms, Trotter step, Neel states, Fibonacci space."""
import numpy as np
import pytest
from scipy.linalg import expm

from scarsim import model
from scarsim.model import (
    ModelParams,
    bond_gates,
    build_hamiltonian,
    build_hamiltonian_occupation,
    build_trotter_step,
    exact_evolve,
    fibonacci_dimension,
    fibonacci_projector,
    neel_bitstring,
    neel_state,
    project,
    qmbs_params,
    trotter_angles,
    trotter_step_matrix,
)
from scarsim.qsim import Circuit, PauliString, circuit_unitary, run_circuit


def _trotter_steps(p: ModelParams, steps: int, **kwargs) -> Circuit:
    """``steps`` repetitions of the Trotter step (no state preparation)."""
    return Circuit(p.L, build_trotter_step(p, **kwargs).gates * steps)


class TestHamiltonian:
    def test_pauli_and_occupation_forms_differ_by_identity(self):
        # the two forms must differ by a multiple of the identity
        p = ModelParams(V=1.3, Omega=0.4, dt=1.0, L=4)
        diff = build_hamiltonian_occupation(p) - build_hamiltonian(p)
        shift = diff[0, 0]
        np.testing.assert_allclose(diff, shift * np.eye(2**p.L), atol=1e-12)
        assert shift == pytest.approx(p.V * (p.L - 1))

    def test_11_vs_00_gap(self):
        # occupation term contributes 4V only on |11> for L=2, Omega=0
        p = ModelParams(V=0.7, Omega=0.0, dt=1.0, L=2)
        ham = build_hamiltonian(p)
        gap = ham[0b11, 0b11] - ham[0b00, 0b00]
        assert gap == pytest.approx(4 * p.V)

    def test_diagonal_when_omega_zero(self):
        p = ModelParams(V=1.0, Omega=0.0, dt=1.0, L=3)
        ham = build_hamiltonian(p)
        np.testing.assert_allclose(ham, np.diag(np.diag(ham)))

    def test_hermitian(self):
        ham = build_hamiltonian(qmbs_params(5))
        np.testing.assert_allclose(ham, ham.conj().T)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(qmbs_params(15))


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
        u_oracle = trotter_step_matrix(p)
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
            ref = exact_evolve(p, t)
            errs[dt] = np.linalg.norm(psi.amplitudes - ref.amplitudes)
        ratio = errs[0.1] / errs[0.05]
        assert 1.7 <= ratio <= 2.3

    def test_idle_annotation_covers_spectator_qubits(self):
        p = qmbs_params(5)
        circ = build_trotter_step(p, impl="rzz", idle_ns=100.0)
        delays = [g for g in circ.gates if g.kind == "DELAY"]
        # even sub-layer busies qubits 0..3 -> qubit 4 idles; odd sub-layer
        # busies 1..4 -> qubit 0 idles
        assert {g.qubits[0] for g in delays} == {0, 4}


class TestNeelStates:
    def test_z2_bitstring(self):
        assert neel_bitstring(5) == "01010"

    def test_z2prime_bitstring(self):
        assert neel_bitstring(5, "Z2'") == "10101"

    def test_staggered_extremal_value(self):
        # Z_pi = sum_i (-1)^i Z_i takes -L on |Z2>
        L = 6
        state = neel_state(L)
        val = sum(
            (-1) ** (q + 1)
            * np.vdot(state.amplitudes,
                      PauliString("I" * q + "Z" + "I" * (L - q - 1)).matrix() @ state.amplitudes).real
            for q in range(L)
        )
        assert val == pytest.approx(-L)


class TestExactEvolve:
    def test_t_zero_returns_initial(self):
        p = qmbs_params(6)
        out = exact_evolve(p, 0.0)
        np.testing.assert_allclose(out.amplitudes, neel_state(6).amplitudes, atol=1e-12)

    def test_norm_one_at_all_times(self):
        p = qmbs_params(5)
        for t in (0.3, 2.0, 17.5):
            out = exact_evolve(p, t)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_matches_expm_oracle(self):
        p = ModelParams(V=1.0, Omega=0.4, dt=1.0, L=3)
        t = 1.7
        ref = expm(-1j * build_hamiltonian(p) * t) @ neel_state(3).amplitudes
        out = exact_evolve(p, t)
        np.testing.assert_allclose(out.amplitudes, ref, atol=1e-10)

    @pytest.mark.slow
    def test_l12_revival_window(self):
        # staggered magnetization revival within Vt in [15, 25]
        p = qmbs_params(12)
        mags = []
        for step in range(1, 31):
            psi = exact_evolve(p, float(step))
            probs = psi.probabilities()
            zvals = _staggered_from_probs(probs, 12)
            mags.append(zvals)
        mags = np.array(mags)
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
        assert fibonacci_projector(5).dimension == 13

    def test_dimension_matches_recursion(self):
        for L in range(1, 21):
            assert fibonacci_projector(L).dimension == fibonacci_dimension(L)

    def test_neel_weight_is_one(self):
        mask = fibonacci_projector(5)
        _, w = project(neel_state(5), mask)
        assert w == pytest.approx(1.0)

    def test_zero_weight_flagged(self):
        mask = fibonacci_projector(2)
        state_11 = model.Statevector.from_bitstring("11")
        proj, w = project(state_11, mask)
        assert proj is None and w == 0.0

    def test_projected_state_renormalized(self):
        psi = run_circuit(
            neel_state(4),
            _trotter_steps(qmbs_params(4), 3, impl="rzz"),
        )
        proj, w = project(psi, fibonacci_projector(4))
        assert 0 < w < 1
        assert np.linalg.norm(proj.amplitudes) == pytest.approx(1.0, abs=1e-12)

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
