"""Twirling, folding ZNE, readout inversion, postselection, decoupling."""
from functools import reduce

import numpy as np
import pytest

from scarsim import mitigation, noise
from scarsim.mitigation import (
    calibrate_confusion,
    effective_scale,
    effective_twirled_noise_ptm,
    fold_count,
    fold_gates_random,
    insert_dd,
    mitigate_readout,
    postselect,
    twirl_circuit,
    twirl_cnot,
    twirl_rzz,
    zne_extrapolate,
)
from scarsim.model import build_trotter_step, neel_state, qmbs_params
from scarsim.noise import ConfusionMatrix, NoiseSpec, noiseless
from scarsim.qsim import (
    Circuit,
    Counts,
    Gate,
    KrausChannel,
    Statevector,
    circuit_unitary,
    cnot,
    delay,
    gate_matrix,
    h,
    is_pauli_stochastic,
    pauli_basis_matrices,
    pauli_gate,
    pauli_transfer_matrix,
    run_circuit,
    rx,
    rzz,
    rzx,
    x,
)

PAULIS_1Q = pauli_basis_matrices(1)
CNOT_MAT = gate_matrix(cnot(0, 1))


def _pauli_pair_matrix(alpha: int, beta: int) -> np.ndarray:
    return np.kron(PAULIS_1Q[alpha], PAULIS_1Q[beta])


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    return abs(abs(np.trace(a.conj().T @ b)) - a.shape[0]) < tol


class TestTwirlCnot:
    def test_identity_pair(self):
        assert twirl_cnot(0, 0) == (0, 0)

    def test_x_on_control_copies_to_target(self):
        assert twirl_cnot(1, 0) == (1, 1)

    def test_all_16_pairs_match_conjugation_oracle(self):
        # brute force: CNOT (s^a x s^b) CNOT must equal s^g x s^d up to phase
        for alpha in range(4):
            for beta in range(4):
                gamma, delta = twirl_cnot(alpha, beta)
                assert gamma in range(4) and delta in range(4)
                conj = CNOT_MAT @ _pauli_pair_matrix(alpha, beta) @ CNOT_MAT
                assert _equal_up_to_phase(conj, _pauli_pair_matrix(gamma, delta))

    def test_sandwich_restores_cnot(self):
        for alpha in range(4):
            for beta in range(4):
                gamma, delta = twirl_cnot(alpha, beta)
                total = (
                    _pauli_pair_matrix(gamma, delta)
                    @ CNOT_MAT
                    @ _pauli_pair_matrix(alpha, beta)
                )
                assert _equal_up_to_phase(total, CNOT_MAT)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            twirl_cnot(4, 0)


class TestTwirlRzz:
    def test_identity_keeps_sign(self):
        assert twirl_rzz(0, 0).angle_sign == 1

    def test_x_on_control_flips(self):
        assert twirl_rzz(1, 0).angle_sign == -1

    def test_zz_commutes(self):
        assert twirl_rzz(3, 3).angle_sign == 1

    @pytest.mark.parametrize("theta", [0.7, 2.0])
    def test_sandwich_restores_rzz_exactly(self, theta):
        target = gate_matrix(rzz(0, 1, theta))
        for alpha in range(4):
            for beta in range(4):
                assign = twirl_rzz(alpha, beta)
                sp = _pauli_pair_matrix(alpha, beta)
                total = sp @ gate_matrix(rzz(0, 1, assign.angle_sign * theta)) @ sp
                np.testing.assert_allclose(total, target, atol=1e-12)

    def test_rzx_generalization(self):
        theta = 1.1
        target = gate_matrix(rzx(0, 1, theta))
        for alpha in range(4):
            for beta in range(4):
                assign = mitigation._twirl_rotation(alpha, beta, "ZX")
                sp = _pauli_pair_matrix(alpha, beta)
                total = sp @ gate_matrix(rzx(0, 1, assign.angle_sign * theta)) @ sp
                np.testing.assert_allclose(total, target, atol=1e-12)


def _scalar_draw_twirl(circuit: Circuit, seed) -> list[tuple]:
    """Reference twirl: two scalar draws per two-qubit gate, gate by gate;
    rotations flip their angle when the pair anticommutes with the
    generator.  Returns (kind, qubits, angle) per gate."""
    rng = np.random.default_rng(seed)
    gates = []
    for g in circuit.gates:
        if not g.is_two_qubit:
            gates.append(g)
            continue
        alpha, beta = int(rng.integers(4)), int(rng.integers(4))
        if g.kind == "CNOT":
            post, angle = twirl_cnot(alpha, beta), None
        else:
            generator = {"RZZ": "ZZ", "RZX": "ZX"}[g.kind]
            anti = sum(p != 0 and "IXYZ"[p] != axis
                       for p, axis in zip((alpha, beta), generator)) % 2
            post, angle = (alpha, beta), -g.angle if anti else g.angle
        gates += [pauli_gate(i, q) for i, q in zip((alpha, beta), g.qubits)]
        gates.append(Gate(g.kind, g.qubits, angle=angle))
        gates += [pauli_gate(i, q) for i, q in zip(post, g.qubits)]
    return [(g.kind, g.qubits, g.angle) for g in gates if g is not None]


class TestTwirlCircuit:
    def test_matches_per_gate_scalar_draws(self):
        # one bulk draw of every Pauli index gives, gate for gate, the
        # circuit of two scalar draws per gate; CNOT, RZZ and RZX in both
        # qubit orders, between single-qubit gates
        pairs = [cnot(0, 1), cnot(2, 0), rzz(1, 2, 0.7), rzz(2, 1, -1.3),
                 rzx(0, 2, 2.1), rzx(2, 0, 0.4)]
        short = Circuit(3, [h(0)] + pairs + [rx(1, 0.3)] + pairs[::-1])
        long = Circuit(3, [pairs[k % 6] if k % 5 else h(k % 3) for k in range(400)])
        for circ, seeds in [(short, range(300)), (long, range(20))]:
            for seed in seeds:
                got = [(g.kind, g.qubits, g.angle) for g in twirl_circuit(circ, seed=seed).gates]
                assert got == _scalar_draw_twirl(circ, seed), seed
        seed = [3, 0, 2, 1, 1]  # a sweep's twirl seed key
        assert ([(g.kind, g.qubits, g.angle) for g in twirl_circuit(long, seed=seed).gates]
                == _scalar_draw_twirl(long, seed))

    def test_seed_determinism(self):
        circ = build_trotter_step(qmbs_params(4), impl="two-cnot")
        a = twirl_circuit(circ, seed=5)
        b = twirl_circuit(circ, seed=5)
        assert [(g.kind, g.qubits, g.angle) for g in a.gates] == [
            (g.kind, g.qubits, g.angle) for g in b.gates
        ]

    def test_no_two_qubit_gates_passthrough(self):
        circ = Circuit(2, [h(0), rx(1, 0.3)])
        assert twirl_circuit(circ, seed=1).gates == circ.gates

    @pytest.mark.parametrize("impl", ["rzz", "scaled-rzx"])
    def test_trotter_step_state_unchanged(self, impl):
        p = qmbs_params(3)
        circ = build_trotter_step(p, impl=impl)
        init = neel_state(3)
        ref = run_circuit(init, circ)
        for seed in range(5):
            out = run_circuit(init, twirl_circuit(circ, seed=seed))
            assert np.linalg.norm(out.amplitudes - ref.amplitudes) < 1e-9

    def test_two_cnot_state_unchanged_up_to_phase(self):
        p = qmbs_params(3)
        circ = build_trotter_step(p, impl="two-cnot")
        init = neel_state(3)
        ref = run_circuit(init, circ)
        for seed in range(5):
            out = run_circuit(init, twirl_circuit(circ, seed=seed))
            assert abs(abs(np.vdot(out.amplitudes, ref.amplitudes)) - 1.0) < 1e-9

    def test_unitary_preserved_up_to_phase(self):
        p = qmbs_params(3)
        circ = build_trotter_step(p, impl="two-cnot")
        u_ref = circuit_unitary(circ)
        u_tw = circuit_unitary(twirl_circuit(circ, seed=11))
        assert _equal_up_to_phase(u_ref, u_tw, tol=1e-9)


class TestTwirlTheorem:
    def test_coherent_overrotation_becomes_stochastic(self):
        over = gate_matrix(rzz(0, 1, 0.2))
        noise_ch = KrausChannel.unitary(over)
        before = pauli_transfer_matrix(noise_ch)
        off_before = before - np.diag(np.diag(before))
        assert np.max(np.abs(off_before)) > 1e-3
        after = effective_twirled_noise_ptm(noise_ch)
        assert is_pauli_stochastic(after, tol=1e-12)
        np.testing.assert_allclose(after, np.diag(np.diag(before)), atol=1e-12)

    def test_generic_channel_becomes_stochastic(self):
        # any channel, not just coherent ones
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(a)
        mix = KrausChannel(
            [np.sqrt(0.9) * np.eye(4, dtype=complex), np.sqrt(0.1) * u]
        )
        after = effective_twirled_noise_ptm(mix)
        assert is_pauli_stochastic(after, tol=1e-12)


class TestFolding:
    def test_lambda_one_unchanged(self):
        circ = build_trotter_step(qmbs_params(4))
        assert fold_gates_random(circ, 1.0, seed=0) is circ

    def test_lambda_three_folds_everything(self):
        circ = build_trotter_step(qmbs_params(4), impl="rzz")
        n2 = circ.n_two_qubit
        folded = fold_gates_random(circ, 3.0, seed=0)
        assert folded.n_two_qubit == 3 * n2

    def test_fractional_count(self):
        assert fold_count(12, 1.5) == 3
        assert effective_scale(12, 1.5) == pytest.approx(1.5)

    def test_tie_rounds_toward_more_folding(self):
        assert fold_count(30, 1.5) == 8

    def test_unitary_unchanged(self):
        circ = build_trotter_step(qmbs_params(3), impl="two-cnot")
        u_ref = circuit_unitary(circ)
        for lam in (1.5, 2.0, 3.0):
            u_fold = circuit_unitary(fold_gates_random(circ, lam, seed=2))
            np.testing.assert_allclose(u_fold, u_ref, atol=1e-9)

    def test_rzz_folds_with_negated_angle(self):
        circ = Circuit(2, [rzz(0, 1, 0.8)])
        folded = fold_gates_random(circ, 3.0, seed=0)
        kinds = [(g.kind, g.angle) for g in folded.gates]
        assert kinds == [("RZZ", 0.8), ("RZZ", -0.8), ("RZZ", 0.8)]

    def test_lambda_below_one_rejected(self):
        with pytest.raises(ValueError):
            fold_gates_random(Circuit(2, [cnot(0, 1)]), 0.5, seed=0)


class TestZNEExtrapolate:
    def test_exact_line(self):
        res = zne_extrapolate([(1.0, 0.9, 1.0), (1.5, 0.85, 1.0), (2.0, 0.8, 1.0)])
        assert res.intercept == pytest.approx(1.0, abs=1e-12)
        assert res.slope == pytest.approx(-0.1, abs=1e-12)

    def test_constant_values(self):
        res = zne_extrapolate([(1.0, 0.42, 0.0), (1.5, 0.42, 0.0), (2.0, 0.42, 0.0)])
        assert res.intercept == pytest.approx(0.42, abs=1e-12)
        assert res.slope == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_design_rejected(self):
        with pytest.raises(ValueError):
            zne_extrapolate([(1.0, 0.5, 0.1), (1.0, 0.6, 0.1)])

    def test_rounding_level_sigma_counts_as_exact(self):
        # twirl spreads of ~4e-16 between exact values must not become
        # 1/sigma^2 weights of ~1e31 (that made the normal matrix singular)
        pts = [(1.0, 0.7, 4e-16), (1.0, 0.7, 4e-16), (1.5, 0.61, 0.02),
               (1.5, 0.65, 0.02), (2.0, 0.55, 0.03), (2.0, 0.5, 0.03)]
        res = zne_extrapolate(pts)
        assert np.isfinite(res.intercept) and np.isfinite(res.intercept_std)
        assert [s for _, _, s in res.points] == [0.0, 0.0, 0.02, 0.02, 0.03, 0.03]
        unweighted = zne_extrapolate([(l, v, 0.0) for l, v, _ in pts])
        assert res.intercept == unweighted.intercept

    def test_small_but_real_sigma_keeps_weights(self):
        pts = [(1.0, 0.9, 1e-6), (1.5, 0.85, 2e-6), (2.0, 0.8, 1e-6)]
        res = zne_extrapolate(pts)
        assert [s for _, _, s in res.points] == [1e-6, 2e-6, 1e-6]
        assert res.intercept_std > 0

    def test_covariance_calibration_monte_carlo(self):
        # 1000 resamples of a known line: quoted intercept std must cover
        # the truth at the 3-sigma level nearly always
        a_true, b_true, sig = 0.95, -0.08, 0.02
        lams = np.array([1.0, 1.0, 1.5, 1.5, 2.0, 2.0])
        rng = np.random.default_rng(123)
        hits = 0
        n = 1000
        for _ in range(n):
            vals = a_true + b_true * lams + rng.normal(0, sig, size=lams.size)
            res = zne_extrapolate([(l, v, sig) for l, v in zip(lams, vals)])
            if abs(res.intercept - a_true) <= 3 * res.intercept_std:
                hits += 1
        assert hits / n > 0.98


class TestZNEBiasReduction:
    @pytest.mark.parametrize("p", [0.01, 0.02])
    def test_depolarizing_trotter_bias_halved(self, p):
        # exact per-lambda expectations on a 5-step chain of 4 sites
        params = qmbs_params(4)
        spec = NoiseSpec(two_qubit_depolarizing=p)
        prep = Circuit(4, [x(1), x(3)])
        step = build_trotter_step(params, impl="rzz")
        zpi_op = _staggered_op(4)
        for steps in range(1, 6):
            circ = Circuit(4, prep.gates + step.gates * steps)
            ideal = run_circuit(Statevector.zero(4), circ)
            ideal_val = float(
                np.real(np.vdot(ideal.amplitudes, zpi_op @ ideal.amplitudes))
            )
            pts = []
            for lam in (1.0, 1.5, 2.0):
                folded = fold_gates_random(circ, lam, seed=9)
                rho = noise.run_noisy_density(folded, spec)
                val = rho.expectation(zpi_op)
                pts.append((effective_scale(circ.n_two_qubit, lam), val, 0.0))
            res = zne_extrapolate(pts)
            unmit = pts[0][1]
            assert abs(res.intercept - ideal_val) <= 0.5 * abs(unmit - ideal_val)


def _staggered_op(L: int) -> np.ndarray:
    op = np.zeros((2**L, 2**L))
    idx = np.arange(2**L)
    for q in range(L):
        sign = (-1) ** (q + 1)
        zdiag = 1.0 - 2.0 * ((idx >> (L - 1 - q)) & 1)
        op += sign * np.diag(zdiag)
    return op


class TestReadoutMitigation:
    def test_identity_noop(self):
        c = Counts.from_dict({"01": 3.0, "11": 5.0}, 8.0, 2)
        out = mitigate_readout(c, ConfusionMatrix.from_rates(2, 0.0, 0.0))
        assert out.data == pytest.approx(c.data)

    def test_forward_then_invert_recovers(self):
        m = ConfusionMatrix.from_rates(3, eps=0.1, eta=0.05)
        ideal = Counts.from_dict({"010": 600.0, "101": 400.0}, 1000.0, 3)
        probs = noise.apply_readout_error(ideal.vector / ideal.total_shots, m)
        noisy = Counts.from_vector(probs * ideal.total_shots, 3, ideal.total_shots)
        back = mitigate_readout(noisy, m)
        for k, v in ideal.data.items():
            assert back.data.get(k, 0.0) == pytest.approx(v, abs=1e-10)

    def test_tensor_and_full_modes_agree(self):
        tensor = ConfusionMatrix.from_rates(3, eps=0.08, eta=0.02)
        full = ConfusionMatrix("full", 3, matrix=reduce(np.kron, tensor.factors))
        c = Counts.from_dict({"010": 500.0, "011": 300.0, "110": 200.0}, 1000.0, 3)
        out_t = mitigate_readout(c, tensor)
        out_f = mitigate_readout(c, full)
        for k in set(out_t.data) | set(out_f.data):
            assert out_t.data.get(k, 0.0) == pytest.approx(out_f.data.get(k, 0.0), abs=1e-10)

    def test_negative_quasi_counts_flagged(self):
        m = ConfusionMatrix.from_rates(1, eps=0.2, eta=0.1)
        c = Counts.from_dict({"1": 1000.0}, 1000.0, 1)
        out = mitigate_readout(c, m)
        assert out.quasi and any(v < 0 for v in out.data.values())

    def test_singular_confusion_rejected(self):
        m = ConfusionMatrix.from_rates(1, eps=0.5, eta=0.5)  # rank-1 factor
        c = Counts.from_dict({"1": 10.0}, 10.0, 1)
        with pytest.raises(np.linalg.LinAlgError):
            mitigate_readout(c, m)


class TestCalibration:
    def test_noiseless_gives_identity(self):
        m = calibrate_confusion(noiseless(), 3, shots=100, method="tensor", infinite=True)
        np.testing.assert_allclose(reduce(np.kron, m.factors), np.eye(8), atol=1e-12)

    def test_tensor_infinite_exact(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.07, readout_eta=0.04)
        m = calibrate_confusion(spec, 2, shots=1, method="tensor", infinite=True)
        for f in m.factors:
            np.testing.assert_allclose(f, [[0.93, 0.04], [0.07, 0.96]], atol=1e-12)

    def test_full_matches_tensor_product_for_product_noise(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.05, readout_eta=0.02)
        full = calibrate_confusion(spec, 2, shots=1, method="full", infinite=True)
        tensor = calibrate_confusion(spec, 2, shots=1, method="tensor", infinite=True)
        np.testing.assert_allclose(full.matrix, np.kron(*tensor.factors), atol=1e-10)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            calibrate_confusion(noiseless(), 2, shots=0)


class TestPostselect:
    def test_example_fraction(self):
        c = Counts.from_dict({"0101": 500.0, "0110": 300.0}, 800.0, 4)
        res = postselect(c)
        assert res.counts.data == {"0101": 500.0}
        assert res.retained_fraction == pytest.approx(0.625)

    def test_neel_counts_unchanged(self):
        c = Counts.from_dict({"0101": 100.0}, 100.0, 4)
        res = postselect(c)
        assert res.counts.data == c.data and res.retained_fraction == 1.0

    def test_uniform_l4_keeps_fibonacci_count(self):
        data = {format(i, "04b"): 1.0 for i in range(16)}
        res = postselect(Counts.from_dict(data, 16.0, 4))
        assert len(res.counts.data) == 8

    def test_idempotent(self):
        c = Counts.from_dict({"0110": 3.0, "0100": 5.0}, 8.0, 4)
        once = postselect(c)
        twice = postselect(once.counts)
        assert twice.counts.data == once.counts.data
        assert twice.retained_fraction == 1.0

    def test_empty_retained_flagged(self):
        res = postselect(Counts.from_dict({"11": 7.0}, 7.0, 2))
        assert res.empty and res.counts.total_shots == 0


class TestDynamicalDecoupling:
    def test_no_delays_unchanged(self):
        circ = Circuit(2, [h(0), cnot(0, 1)])
        assert insert_dd(circ, 35.5).gates == circ.gates

    def test_short_delay_untouched(self):
        circ = Circuit(1, [delay(0, 50.0)])
        assert insert_dd(circ, 35.5).gates == circ.gates

    def test_segments_and_budget(self):
        circ = Circuit(1, [delay(0, 400.0)])
        out = insert_dd(circ, 35.5)
        kinds = [g.kind for g in out.gates]
        assert kinds == ["DELAY", "RX", "DELAY", "RX", "DELAY"]
        tau = 400.0 - 2 * 35.5
        delays = [g.duration_ns for g in out.gates if g.kind == "DELAY"]
        assert delays == pytest.approx([tau / 4, tau / 2, tau / 4])

    def test_pi_pulse_pair_is_identity(self):
        u = gate_matrix(rx(0, np.pi)) @ gate_matrix(rx(0, -np.pi))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_echo_cancels_quasi_static_dephasing(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, idle_dephasing_rad_per_ns=0.01)
        circ = Circuit(1, [h(0), delay(0, 400.0)])
        # |<+|psi>|^2 of one trajectory, read as the weight of 0 after H
        basis = Circuit(1, [h(0)])

        def fidelity(c):
            counts = noise.run_noisy_counts(c, spec, shots=1, seed=4, infinite=True, basis=basis)
            return counts.vector[0]

        assert fidelity(circ) < 1.0 - 1e-6
        assert fidelity(insert_dd(circ, 35.5)) > 1.0 - 1e-10
