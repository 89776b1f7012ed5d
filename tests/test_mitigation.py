"""Twirling, folding ZNE, readout inversion, postselection, decoupling."""
from functools import reduce

import numpy as np
import pytest

from scarsim import noise
from scarsim.mitigation import (
    _closing,
    calibrate_confusion,
    effective_scale,
    fold_count,
    fold_gates_random,
    insert_dd,
    line_fits,
    mitigate_readout,
    postselect,
    twirl_circuit,
    zne_extrapolate,
)
from scarsim.model import build_trotter_step, neel_state, qmbs_params
from scarsim.noise import ConfusionMatrix, NoiseSpec, noiseless
from scarsim.qsim import (
    Circuit,
    Counts,
    Gate,
    Statevector,
    circuit_unitary,
    cnot,
    delay,
    gate_matrix,
    h,
    pauli_basis_matrices,
    pauli_gate,
    run_circuit,
    rx,
    rzz,
    rzx,
    x,
)
from scarsim.tomography import gate_ptm

PAULIS_1Q = pauli_basis_matrices(1)
CNOT_MAT = gate_matrix(cnot(0, 1))


def _pauli_pair_matrix(alpha: int, beta: int) -> np.ndarray:
    return np.kron(PAULIS_1Q[alpha], PAULIS_1Q[beta])


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    return abs(abs(np.trace(a.conj().T @ b)) - a.shape[0]) < tol


class TestTwirlCnot:
    def test_identity_pair(self):
        assert _closing("CNOT", 0, 0) == (0, 0, 1)

    def test_x_on_control_copies_to_target(self):
        assert _closing("CNOT", 1, 0) == (1, 1, 1)

    def test_all_16_pairs_match_conjugation_oracle(self):
        # brute force: CNOT (s^a x s^b) CNOT must equal s^g x s^d up to phase
        for alpha in range(4):
            for beta in range(4):
                gamma, delta, sign = _closing("CNOT", alpha, beta)
                assert gamma in range(4) and delta in range(4) and sign == 1
                conj = CNOT_MAT @ _pauli_pair_matrix(alpha, beta) @ CNOT_MAT
                assert _equal_up_to_phase(conj, _pauli_pair_matrix(gamma, delta))

    def test_sandwich_restores_cnot(self):
        for alpha in range(4):
            for beta in range(4):
                gamma, delta, _ = _closing("CNOT", alpha, beta)
                total = (
                    _pauli_pair_matrix(gamma, delta)
                    @ CNOT_MAT
                    @ _pauli_pair_matrix(alpha, beta)
                )
                assert _equal_up_to_phase(total, CNOT_MAT)


class TestTwirlRzz:
    def test_identity_keeps_sign(self):
        assert _closing("RZZ", 0, 0)[2] == 1

    def test_x_on_control_flips(self):
        assert _closing("RZZ", 1, 0)[2] == -1

    def test_zz_commutes(self):
        assert _closing("RZZ", 3, 3)[2] == 1

    @pytest.mark.parametrize("theta", [0.7, 2.0])
    def test_sandwich_restores_rzz_exactly(self, theta):
        target = gate_matrix(rzz(0, 1, theta))
        for alpha in range(4):
            for beta in range(4):
                gamma, delta, sign = _closing("RZZ", alpha, beta)
                assert (gamma, delta) == (alpha, beta)
                sp = _pauli_pair_matrix(alpha, beta)
                total = sp @ gate_matrix(rzz(0, 1, sign * theta)) @ sp
                np.testing.assert_allclose(total, target, atol=1e-12)

    def test_rzx_generalization(self):
        theta = 1.1
        target = gate_matrix(rzx(0, 1, theta))
        for alpha in range(4):
            for beta in range(4):
                gamma, delta, sign = _closing("RZX", alpha, beta)
                assert (gamma, delta) == (alpha, beta)
                sp = _pauli_pair_matrix(alpha, beta)
                total = sp @ gate_matrix(rzx(0, 1, sign * theta)) @ sp
                np.testing.assert_allclose(total, target, atol=1e-12)


# CNOT (s^a x s^b) CNOT = s^g x s^d up to phase: (alpha, beta) -> (gamma, delta)
CNOT_CLOSING = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (3, 2), (0, 3): (3, 3),
    (1, 0): (1, 1), (1, 1): (1, 0), (1, 2): (2, 3), (1, 3): (2, 2),
    (2, 0): (2, 1), (2, 1): (2, 0), (2, 2): (1, 3), (2, 3): (1, 2),
    (3, 0): (3, 0), (3, 1): (3, 1), (3, 2): (0, 2), (3, 3): (0, 3),
}


def _scalar_draw_twirl(circuit: Circuit, seed) -> list[tuple]:
    """Reference twirl: two scalar draws per two-qubit gate, gate by gate;
    CNOT closes with the pair of ``CNOT_CLOSING``, and rotations flip
    their angle when the pair anticommutes with the generator.  Returns
    (kind, qubits, angle) per gate."""
    rng = np.random.default_rng(seed)
    gates = []
    for g in circuit.gates:
        if not g.is_two_qubit:
            gates.append(g)
            continue
        alpha, beta = int(rng.integers(4)), int(rng.integers(4))
        if g.kind == "CNOT":
            post, angle = CNOT_CLOSING[alpha, beta], None
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


def _twirl_average(ptm: np.ndarray) -> np.ndarray:
    """The PTM averaged over conjugation by the 16 two-qubit Paulis."""
    sandwiches = [gate_ptm(p) for p in pauli_basis_matrices(2)]
    return sum(r @ ptm @ r for r in sandwiches) / len(sandwiches)


class TestTwirlTheorem:
    def test_coherent_overrotation_becomes_stochastic(self):
        before = gate_ptm(rzz(0, 1, 0.2))
        off_before = before - np.diag(np.diag(before))
        assert np.max(np.abs(off_before)) > 1e-3
        np.testing.assert_allclose(_twirl_average(before), np.diag(np.diag(before)),
                                   rtol=0, atol=1e-12)

    def test_generic_channel_becomes_stochastic(self):
        # any channel, not just coherent ones: a PTM is linear in the
        # channel, so the mixture 0.9 id + 0.1 U . U^dag has this PTM
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(a)
        mix = 0.9 * np.eye(16) + 0.1 * gate_ptm(u)
        after = _twirl_average(mix)
        np.testing.assert_allclose(after - np.diag(np.diag(after)), 0.0, rtol=0, atol=1e-12)


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
        # twirl spreads of ~4e-16 between exact values once became 1/sigma^2
        # weights of ~1e31 (that made the normal matrix singular); sigma is
        # not a weight, so the fit is that of the points with sigma 0
        pts = [(1.0, 0.7, 4e-16), (1.0, 0.7, 4e-16), (1.5, 0.61, 0.02),
               (1.5, 0.65, 0.02), (2.0, 0.55, 0.03), (2.0, 0.5, 0.03)]
        res = zne_extrapolate(pts)
        assert np.isfinite(res.intercept) and np.isfinite(res.covariance).all()
        assert [s for _, _, s in res.points] == [0.0] * len(pts)
        unweighted = zne_extrapolate([(l, v, 0.0) for l, v, _ in pts])
        assert res.intercept == unweighted.intercept

    @pytest.mark.parametrize("pts", [
        [(1.0, -0.376, 0.01), (1.0, 0.0676, 0.01), (1.5, 0.3, 1.1169311454556775e-10),
         (1.5, 0.3000000001116931, 1.1169311454556775e-10), (2.0, -0.2913, 0.003),
         (2.0, 0.294, 0.003)],
        [(1.0, 1.1839, 0.01), (1.0, 0.3038, 0.01), (1.5, 0.3, 1.3828638644349605e-10),
         (1.5, 0.30000000013828637, 1.3828638644349605e-10), (2.0, 0.1921, 0.003),
         (2.0, 0.2659, 0.003)],
    ], ids=["indefinite-covariance", "singular-normal-matrix"])
    def test_weights_past_double_precision_take_the_unweighted_fit(self, pts):
        # sigmas that once weighed one scale ~1e18 times the others (an
        # indefinite covariance, a singular normal matrix) give the fit of
        # the same points with sigma 0, with a positive semidefinite
        # covariance and every sigma recorded as 0
        res = zne_extrapolate(pts)
        unweighted = zne_extrapolate([(l, v, 0.0) for l, v, _ in pts])
        assert (res.intercept, res.slope) == (unweighted.intercept, unweighted.slope)
        np.testing.assert_array_equal(res.covariance, unweighted.covariance)
        assert np.linalg.eigvalsh(res.covariance).min() >= 0
        assert [s for _, _, s in res.points] == [0.0] * len(pts)

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            zne_extrapolate([(1.0, 0.5, 0.0), (1.5, np.nan, 0.0), (2.0, 0.4, 0.0)])

    def test_covariance_calibration_monte_carlo(self):
        # 1000 resamples of a known line: the quoted intercept std, from
        # the residuals over n - 2 = 4 degrees of freedom, must cover the
        # truth at the 3-sigma level (99.73%, as a Student-t(4) interval)
        # nearly always, and its square must average to the intercept's
        # true variance sigma^2 (X^T X)^-1_00
        stats = pytest.importorskip("scipy.stats")
        a_true, b_true, sig = 0.95, -0.08, 0.02
        lams = np.array([1.0, 1.0, 1.5, 1.5, 2.0, 2.0])
        rng = np.random.default_rng(123)
        t3 = stats.t.ppf(stats.norm.cdf(3.0), df=lams.size - 2)
        hits = 0
        variances = []
        n = 1000
        for _ in range(n):
            vals = a_true + b_true * lams + rng.normal(0, sig, size=lams.size)
            res = zne_extrapolate([(l, v, sig) for l, v in zip(lams, vals)])
            variances.append(res.covariance[0, 0])
            if abs(res.intercept - a_true) <= t3 * np.sqrt(variances[-1]):
                hits += 1
        assert hits / n > 0.98
        design = np.column_stack([np.ones_like(lams), lams])
        true_var = sig**2 * np.linalg.inv(design.T @ design)[0, 0]
        assert np.mean(variances) == pytest.approx(true_var, rel=0.05)


class TestLineFits:
    def test_exact_lines_over_shared_and_per_row_scales(self):
        lams = np.array([1.0, 1.0, 1.5, 1.5, 2.0, 2.0])
        c0, c1 = np.array([[0.9], [-0.3], [2.0]]), np.array([[-0.1], [0.25], [0.0]])
        vals = c0 + c1 * lams
        for scales in (lams, np.tile(lams, (3, 1))):
            coef, cov = line_fits(scales, vals)
            np.testing.assert_allclose(coef, np.hstack([c0, c1]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(cov, 0.0, atol=1e-28)

    def test_missing_samples_are_left_out(self):
        # NaN holes: a row's fit is the fit of its finite samples alone
        rng = np.random.default_rng(5)
        lams = np.array([1.0, 1.0, 1.5, 1.5, 2.0, 2.0])
        vals = rng.normal(size=(4, 6))
        vals[0, 1] = vals[1, [2, 3]] = vals[2, [0, 4]] = np.nan
        coef, cov = line_fits(lams, vals)
        for r in range(4):
            keep = np.isfinite(vals[r])
            res = zne_extrapolate([(l, v, 0.0) for l, v in zip(lams[keep], vals[r, keep])])
            design = np.column_stack([np.ones(keep.sum()), lams[keep]])
            want, *_ = np.linalg.lstsq(design, vals[r, keep], rcond=None)
            resid = vals[r, keep] - design @ want
            want_cov = resid @ resid / (keep.sum() - 2) * np.linalg.inv(design.T @ design)
            np.testing.assert_allclose(coef[r], want, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(cov[r], want_cov, rtol=1e-12, atol=1e-16)
            np.testing.assert_array_equal(coef[r], [res.intercept, res.slope])
            np.testing.assert_array_equal(cov[r], res.covariance)

    def test_one_distinct_scale_pools_its_samples(self):
        # rows left with one distinct scale give the mean and the ddof-1
        # variance of their samples (0 for one sample); a row without
        # samples is NaN
        lams = np.array([1.0, 1.0, 1.0, 2.0])
        vals = np.array([[0.2, 0.4, 0.9, np.nan],
                         [0.5, np.nan, np.nan, np.nan],
                         [np.nan] * 4])
        coef, cov = line_fits(lams, vals)
        np.testing.assert_allclose(coef[:, 0], [0.5, 0.5, np.nan], rtol=1e-15)
        np.testing.assert_allclose(cov[:, 0, 0], [np.var([0.2, 0.4, 0.9], ddof=1), 0.0, np.nan],
                                   rtol=1e-15)
        assert np.isnan(coef[:, 1]).all()
        assert np.isnan(cov[:, [0, 1, 1], [1, 0, 1]]).all()


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
                val = np.trace(zpi_op @ rho).real
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

    def test_matches_dense_solve(self):
        m = ConfusionMatrix.from_rates(3, eps=0.08, eta=0.02)
        c = Counts.from_dict({"010": 500.0, "011": 300.0, "110": 200.0}, 1000.0, 3)
        want = np.linalg.solve(reduce(np.kron, m.factors), c.vector)
        np.testing.assert_allclose(mitigate_readout(c, m).vector, want, rtol=0, atol=1e-10)

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
        m = calibrate_confusion(noiseless(), 3, shots=100, infinite=True)
        np.testing.assert_allclose(reduce(np.kron, m.factors), np.eye(8), atol=1e-12)

    def test_tensor_infinite_exact(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.07, readout_eta=0.04)
        m = calibrate_confusion(spec, 2, shots=1, infinite=True)
        for f in m.factors:
            np.testing.assert_allclose(f, [[0.93, 0.04], [0.07, 0.96]], atol=1e-12)

    def test_finite_shot_rates_within_binomial_error(self):
        # each factor's off-diagonal is a Binomial(shots, rate) / shots
        # estimate of the spec's rate: every one within 5 standard errors,
        # and their mean over the seeds within 5 standard errors of the mean
        L, shots, seeds = 3, 4096, range(24)
        spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.05, readout_eta=0.02)
        est = np.array([[(f[1, 0], f[0, 1])
                         for f in calibrate_confusion(spec, L, shots, seed=s).factors]
                        for s in seeds])  # (seed, qubit, eps/eta)
        rates = np.array([spec.readout_eps, spec.readout_eta])
        se = np.sqrt(rates * (1 - rates) / shots)
        assert np.all(np.abs(est - rates) <= 5 * se)
        assert np.all(np.abs(est.mean(axis=0) - rates) <= 5 * se / np.sqrt(len(seeds)))
        assert len({e.tobytes() for e in est}) == len(seeds)  # each seed draws its own shots

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
