"""Pulse-duration model, noise channels, readout confusion, trajectories."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim import noise
from scarsim.mitigation import fold_gates_random, twirl_circuit
from scarsim.model import build_trotter_step, neel_prep_circuit, qmbs_params
from scarsim.noise import (
    ConfusionMatrix,
    NoiseSpec,
    PulseParams,
    apply_readout_error,
    casablanca_like,
    gate_error_rate,
    gaussian_flank_area_per_amp,
    load_noise_config,
    noiseless,
    noisy_gate_channel,
    preset,
    pulse_area,
    run_noisy_counts,
    run_noisy_density,
    rzz_duration,
    scaled_width,
    threshold_angle,
)
from scarsim.observables import y_basis_rotation
from scarsim.qsim import (
    ALL_KINDS,
    PAULI_LETTERS,
    ROTATION_KINDS,
    TWO_QUBIT_KINDS,
    Circuit,
    DensityOperator,
    Gate,
    PauliString,
    Statevector,
    apply_channel,
    bit_table,
    cnot,
    h,
    pauli_gate,
    pauli_transfer_matrix,
    run_circuit,
    rzx,
    rzz,
    sample_counts,
)


class TestPulseArea:
    def test_zero_width_leaves_flank_area(self):
        pp = PulseParams(amp_ref=0.3, width_ref=0.0, sigma=50.0, n_sigma=2.0)
        expected = 0.3 * 50.0 * math.sqrt(2 * math.pi) * math.erf(2.0)
        assert pulse_area(pp) == pytest.approx(expected)

    def test_linear_in_amplitude(self):
        pp1 = PulseParams(amp_ref=0.2)
        pp2 = PulseParams(amp_ref=0.4)
        assert pulse_area(pp2) == pytest.approx(2 * pulse_area(pp1))

    def test_reference_value(self):
        pp = PulseParams(amp_ref=0.2, width_ref=400.0, sigma=64.0, n_sigma=2.0)
        expected = 0.2 * 400.0 + 0.2 * 64.0 * math.sqrt(2 * math.pi) * math.erf(2.0)
        assert pulse_area(pp) == pytest.approx(expected, rel=1e-12)


class TestScaledPulse:
    def test_width_at_reference_angle(self):
        pp = PulseParams()
        assert scaled_width(math.pi / 2, pp) == pytest.approx(pp.width_ref, abs=1e-9)

    def test_width_vanishes_at_threshold(self):
        pp = PulseParams()
        assert scaled_width(threshold_angle(pp), pp) == pytest.approx(0.0, abs=1e-9)

    def test_width_at_pi(self):
        pp = PulseParams()
        expected = 2 * pp.width_ref + gaussian_flank_area_per_amp(pp)
        assert scaled_width(math.pi, pp) == pytest.approx(expected, rel=1e-12)

    def test_duration_continuous_at_threshold(self):
        pp = PulseParams()
        ts = threshold_angle(pp)
        below = noise.cr_pulse_ns(ts - 1e-12, pp)
        above = noise.cr_pulse_ns(ts + 1e-12, pp)
        assert abs(below - above) < 1e-9


class TestDurations:
    def test_two_cnot_angle_independent(self):
        pp = PulseParams()
        assert rzz_duration(0.2, "two-cnot", pp) == rzz_duration(2.4, "two-cnot", pp)

    def test_scaled_monotone_nondecreasing(self):
        pp = PulseParams()
        grid = np.linspace(0.0, 2.5, 60)
        durs = [rzz_duration(t, "scaled-rzx", pp) for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(durs, durs[1:]))

    def test_scaled_shorter_than_two_cnot_everywhere(self):
        pp = PulseParams()
        for t in np.linspace(0.05, 2.5, 50):
            assert rzz_duration(t, "scaled-rzx", pp) < rzz_duration(t, "two-cnot", pp)

    def test_constant_below_threshold_affine_above(self):
        pp = PulseParams()
        ts = threshold_angle(pp)
        lo = [rzz_duration(t, "scaled-rzx", pp) for t in np.linspace(0.0, ts * 0.9, 5)]
        assert max(lo) - min(lo) < 1e-12
        hi_grid = np.linspace(ts * 1.5, 2.4, 5)
        hi = [rzz_duration(t, "scaled-rzx", pp) for t in hi_grid]
        slopes = np.diff(hi) / np.diff(hi_grid)
        assert np.ptp(slopes) < 1e-9 and slopes[0] > 0


class TestErrorRate:
    def test_zero_duration(self):
        assert gate_error_rate(0.0, 1e4) == 0.0

    def test_calibration_target(self):
        spec = casablanca_like()
        d = rzz_duration(2.0, "two-cnot", spec.pulse)
        assert gate_error_rate(d, spec.tau_err_ns()) == pytest.approx(0.016, rel=1e-9)

    def test_scaled_strictly_smaller_than_target(self):
        spec = casablanca_like()
        tau = spec.tau_err_ns()
        d = rzz_duration(2.0, "scaled-rzx", spec.pulse)
        assert gate_error_rate(d, tau) < 0.016

    def test_halving_duration_halves_small_p(self):
        tau = 5e4
        p1 = gate_error_rate(800.0, tau)
        p2 = gate_error_rate(400.0, tau)
        assert p2 == pytest.approx(p1 / 2, rel=0.05)


class TestNoisyGateChannel:
    def test_zero_rates_gives_pure_unitary(self):
        ch = noisy_gate_channel(rzz(0, 1, 1.0), noiseless())
        assert len(ch.kraus_ops) == 1

    def test_depolarizing_ptm_pattern(self):
        # remove the ideal unitary: residual noise PTM is diag(1, 1-p x15)
        p = 0.02
        spec = NoiseSpec(two_qubit_depolarizing=p)
        gate = rzz(0, 1, 1.3)
        ptm = pauli_transfer_matrix(noisy_gate_channel(gate, spec))
        from scarsim.qsim import KrausChannel, gate_matrix

        ptm_u = pauli_transfer_matrix(KrausChannel.unitary(gate_matrix(gate)))
        residual = ptm @ ptm_u.T
        np.testing.assert_allclose(residual, np.diag([1.0] + [1 - p] * 15), atol=1e-10)

    def test_coherent_overrotation_is_not_stochastic(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, coherent_overrotation=0.1)
        gate = rzz(0, 1, 2.0)
        ptm = pauli_transfer_matrix(noisy_gate_channel(gate, spec))
        from scarsim.qsim import KrausChannel, gate_matrix

        ptm_u = pauli_transfer_matrix(KrausChannel.unitary(gate_matrix(gate)))
        residual = ptm @ ptm_u.T
        off = residual - np.diag(np.diag(residual))
        assert np.max(np.abs(off)) > 1e-3

    def test_rejects_single_qubit_gate(self):
        with pytest.raises(ValueError):
            noisy_gate_channel(h(0), noiseless())

    @pytest.mark.parametrize("gate", [rzz(0, 1, 0.9), rzx(0, 1, 0.9), cnot(0, 1)],
                             ids=lambda g: g.kind)
    def test_channel_matches_exact_executor(self, gate):
        # one rule for a two-qubit gate's error: the unitary, then the
        # overrotation about its own generator (none after CNOT), then
        # the Pauli channel, exactly as run_noisy_density applies them
        spec = NoiseSpec(two_qubit_depolarizing=0.05, coherent_overrotation=0.3)
        rng = np.random.default_rng(8)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        init = Statevector(amps / np.linalg.norm(amps))
        rho = DensityOperator.from_statevector(init)
        got = apply_channel(rho, noisy_gate_channel(gate, spec), gate.qubits)
        want = run_noisy_density(Circuit(2, [gate]), spec, initial=init)
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)


class TestReadout:
    def test_identity_confusion_is_noop(self):
        probs = np.array([[0.0, 0.5, 0.5, 0.0], [0.25, 0.25, 0.5, 0.0]])
        out = apply_readout_error(probs, ConfusionMatrix.identity(2))
        np.testing.assert_array_equal(out, probs)

    def test_full_flip(self):
        probs = np.array([0.0, 1.0, 0.0, 0.0])  # "01"
        m = ConfusionMatrix.from_rates(2, eps=1.0, eta=1.0)
        np.testing.assert_array_equal(apply_readout_error(probs, m), [0.0, 0.0, 1.0, 0.0])

    def test_infinite_shot_column_read(self):
        m = ConfusionMatrix.from_rates(1, eps=0.1, eta=0.05)
        out = apply_readout_error(np.array([1.0, 0.0]), m)
        np.testing.assert_allclose(out, [0.9, 0.1], rtol=0, atol=1e-15)

    def test_sampled_rates_converge(self):
        # 50000 shots of |00> through the sampled executor's readout channel
        spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.1, readout_eta=0.05)
        out = run_noisy_counts(Circuit(2), spec, shots=50000, seed=3)
        flipped_first = sum(v for k, v in out.data.items() if k[0] == "1")
        freq = flipped_first / 50000.0
        assert abs(freq - 0.1) < 5 * math.sqrt(0.1 * 0.9 / 50000.0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            apply_readout_error(np.ones((2, 8)) / 8, ConfusionMatrix.identity(2))

    @pytest.mark.parametrize("method, width", [("tensor", w) for w in range(1, 14)]
                             + [("full", w) for w in range(1, 11)])
    def test_kernel_matches_dense_oracle(self, method, width):
        # both directions on a single row and a (T, 2^L) stack, against
        # dense() and its inverse up to width 10; above that (tensor mode
        # only: a dense matrix would take 32 MB and up) against one
        # tensordot per qubit, the per-factor contraction dense() encodes
        rng = np.random.default_rng([width, method == "full"])
        m = ConfusionMatrix.from_rates(width, rng.uniform(0, 0.3, width),
                                       rng.uniform(0, 0.3, width))
        if method == "full":
            mat = np.eye(2**width) + rng.uniform(0, 0.5 / 2**width, (2**width, 2**width))
            m = ConfusionMatrix("full", width, matrix=mat / mat.sum(axis=0))
        stack = rng.random((4, 2**width))
        if width <= 10:
            dense = m.dense()
            forward, inverse = stack @ dense.T, stack @ np.linalg.inv(dense).T
        else:
            forward = np.stack([_per_qubit(m.factors, row) for row in stack])
            inverse = np.stack([_per_qubit([np.linalg.inv(f) for f in m.factors], row)
                                for row in stack])
        for vec, fwd, inv in ((stack, forward, inverse), (stack[1], forward[1], inverse[1])):
            got_fwd, got_inv = m.apply_to_vector(vec), m.invert_vector(vec)
            assert got_fwd.shape == got_inv.shape == vec.shape
            np.testing.assert_allclose(got_fwd, fwd, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_inv, inv, rtol=0, atol=1e-10)

    def test_tensor_and_full_agree_on_product_model(self):
        tensor = ConfusionMatrix.from_rates(2, eps=0.07, eta=0.02)
        full = ConfusionMatrix("full", 2, matrix=tensor.dense())
        vec = np.array([0.4, 0.1, 0.3, 0.2])
        np.testing.assert_allclose(
            tensor.apply_to_vector(vec), full.apply_to_vector(vec), atol=1e-12
        )

    def test_forward_then_inverse_round_trip(self):
        m = ConfusionMatrix.from_rates(3, eps=0.05, eta=0.03)
        vec = np.array([0.2, 0.1, 0.05, 0.15, 0.1, 0.2, 0.1, 0.1])
        np.testing.assert_allclose(m.invert_vector(m.apply_to_vector(vec)), vec, atol=1e-12)

    def test_full_inversion_factors_once(self, monkeypatch):
        import scipy.linalg

        calls = []
        factor = scipy.linalg.lu_factor

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        rng = np.random.default_rng(4)
        mat = np.eye(16) + 0.05 * rng.random((16, 16))
        m = ConfusionMatrix("full", 4, matrix=mat / mat.sum(axis=0))
        for _ in range(3):
            vec = rng.random(16) * 1000.0
            want = np.linalg.solve(m.matrix, vec)
            np.testing.assert_allclose(m.invert_vector(vec), want, rtol=1e-12, atol=0)
        assert calls == [(16, 16)]

    def test_singular_full_matrix_rejected(self):
        m = ConfusionMatrix("full", 1, matrix=np.full((2, 2), 0.5))
        with pytest.raises(np.linalg.LinAlgError):
            m.invert_vector(np.array([1.0, 0.0]))


def _per_qubit(factors, vec):
    """One 2x2 factor per qubit (qubit 0 most significant), applied by a
    tensordot over that qubit's axis."""
    out = vec.reshape([2] * len(factors))
    for q, f in enumerate(factors):
        out = np.moveaxis(np.tensordot(f, out, axes=([1], [q])), 0, q)
    return out.reshape(-1)


class TestTrajectoryExecution:
    def test_noiseless_infinite_matches_ideal(self):
        circ = Circuit(2, [h(0), cnot(0, 1)])
        counts = run_noisy_counts(circ, noiseless(), shots=4096, seed=0, infinite=True)
        ideal = sample_counts(run_circuit(Statevector.zero(2), circ), 4096, 0, infinite=True)
        assert counts.data == pytest.approx(ideal.data, abs=1e-10)

    def test_seed_determinism(self):
        circ = build_trotter_step(qmbs_params(3), impl="two-cnot")
        spec = casablanca_like()
        a = run_noisy_counts(circ, spec, shots=512, seed=7)
        b = run_noisy_counts(circ, spec, shots=512, seed=7)
        assert a.data == b.data

    def test_trajectories_match_exact_density(self):
        # Monte-Carlo channel unraveling vs exact evolution, 5-sigma band:
        # 100k trajectories, each contributing its exact distribution;
        # XXI is read as Z0 Z1 after an H (x) H basis rotation
        circ = Circuit(3, [h(0), cnot(0, 1), rzz(1, 2, 0.7), cnot(0, 2)])
        spec = NoiseSpec(two_qubit_depolarizing=0.08)
        n = 100_000
        rho = run_noisy_density(circ, spec)
        signs = 1 - 2 * bit_table(3).astype(float)  # Z eigenvalue per qubit
        cases = [(("ZZI", "IZZ"), None), (("XXI",), Circuit(3, [h(0), h(1)]))]
        for labels, basis in cases:
            counts = run_noisy_counts(circ, spec, shots=n, seed=17, infinite=True,
                                      shots_per_trajectory=1, basis=basis)
            for label in labels:
                support = [q for q, ch in enumerate(label) if ch != "I"]
                mc = counts.vector @ np.prod(signs[:, support], axis=1) / n
                exact = rho.expectation(PauliString(label).matrix())
                sigma = 1.0 / math.sqrt(n)  # Pauli variance <= 1
                assert abs(mc - exact) < 5 * sigma

    def test_quasi_static_dephasing_acts_on_delays(self):
        circ = Circuit(1, [h(0), noise.Gate("DELAY", (0,), duration_ns=300.0)])
        spec = NoiseSpec(two_qubit_target_error=0.0, idle_dephasing_rad_per_ns=0.01)
        # one trajectory; |<+|psi>|^2 is the weight of 0 after an H basis
        counts = run_noisy_counts(circ, spec, shots=1, seed=5, infinite=True,
                                  basis=Circuit(1, [h(0)]))
        fidelity = counts.vector[0]
        assert fidelity < 1.0 - 1e-6

    @pytest.mark.parametrize("value", [0, -3])
    def test_invalid_shots_per_trajectory_rejected(self, value):
        # 0 divided by zero in trajectory_count; a negative value ran one
        # trajectory
        with pytest.raises(ValueError, match="shots_per_trajectory"):
            run_noisy_counts(Circuit(2, [h(0), cnot(0, 1)]), casablanca_like(), 64, 0,
                             shots_per_trajectory=value)

    def test_finite_shot_split_preserves_total(self):
        circ = Circuit(2, [h(0), cnot(0, 1)])
        spec = NoiseSpec(two_qubit_depolarizing=0.05)
        counts = run_noisy_counts(circ, spec, shots=1000, seed=1, shots_per_trajectory=64)
        assert sum(counts.data.values()) == 1000.0

    def test_batched_trajectories_equal_sequential(self):
        # a batch of T generators evolves each trajectory exactly as T
        # one-generator batches do: no draw depends on another trajectory
        from scarsim.model import build_trotter_step, qmbs_params

        circ = build_trotter_step(qmbs_params(4), impl="two-cnot", idle_ns=200.0)
        spec = NoiseSpec(
            two_qubit_depolarizing=0.1,
            single_qubit_depolarizing=0.05,
            idle_dephasing_rad_per_ns=0.005,
            idle_stochastic_rate_per_ns=1e-4,
        )
        plan = noise._NoisePlan(circ, spec)
        init = Statevector.zero(4)
        assert noise.chain_noise([circ], spec) == (True, True)
        batch = noise.TrajectoryBatch.start(
            spec, [np.random.default_rng([3, t]) for t in range(6)], init, True
        )
        batch.advance(plan)
        batch.advance(plan)  # a second block continues the same trajectories
        for t in range(6):
            single = noise.TrajectoryBatch.start(spec, [np.random.default_rng([3, t])], init, True)
            single.advance(plan)
            single.advance(plan)
            np.testing.assert_allclose(batch.amps[t], single.amps[0], atol=1e-12)
        assert len({batch.amps[t].tobytes() for t in range(6)}) > 1


class TestPresets:
    def test_preset_lookup(self):
        assert preset("noiseless") == noiseless()
        assert preset("casablanca-like") == casablanca_like()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("nonexistent")

    def test_override(self):
        spec = preset("casablanca-like", readout_eps=0.0, readout_eta=0.0)
        assert not spec.has_readout_error()

    def test_threshold_below_benchmark_grid(self):
        # the benchmark sweeps theta in [0.2, 2.4]; slopes must rise from
        # the first grid point, so the amplitude threshold sits below it
        assert threshold_angle(casablanca_like().pulse) < 0.2

    def test_config_round_trip(self, tmp_path):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(
            "[pulse]\nsigma = 40\n\n[gates]\npreset = casablanca-like\n"
            "two_qubit_target_error = 0.01\n\n[readout]\neps = 0.04\neta = 0.01\n\n"
            "[idle]\ndephasing_rad_per_ns = 0.002\n"
        )
        spec = load_noise_config(cfg)
        assert spec.pulse.sigma == 40.0
        assert spec.two_qubit_target_error == 0.01
        assert spec.readout_eps == 0.04
        assert spec.idle_dephasing_rad_per_ns == 0.002

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[gates]\ntwo_qubit_target_eror = 0.01\n", "'two_qubit_target_eror'"),
            ("[readout]\nepsilon = 0.01\n", "'epsilon'"),
            ("[idle]\ndephasing = 0.01\n", "'dephasing'"),
            ("[pulses]\nsigma = 40\n", "[pulses]"),
            ("[pulse]\npreset = noiseless\n", "'preset' in [pulse]"),
        ],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, text, name):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=re.escape(name)):
            load_noise_config(cfg)

    def test_invalid_values_rejected_at_load(self, tmp_path):
        for text in ("[gates]\ntwo_qubit_target_error = 1.0\n",
                     "[idle]\ndephasing_rad_per_ns = -0.001\n",
                     "[idle]\nstochastic_rate_per_ns = -1e-5\n"):
            cfg = tmp_path / "noise.ini"
            cfg.write_text(text)
            with pytest.raises(ValueError):
                load_noise_config(cfg)


class TestNoiseSpecValidation:
    def test_target_error_one_rejected(self):
        # 1 would put log(0) into tau_err_ns when a gate is first run
        with pytest.raises(ValueError, match="two_qubit_target_error"):
            NoiseSpec(two_qubit_target_error=1.0)
        assert NoiseSpec(two_qubit_target_error=0.999).tau_err_ns() > 0

    def test_negative_idle_dephasing_rejected(self):
        with pytest.raises(ValueError, match="idle_dephasing_rad_per_ns"):
            NoiseSpec(idle_dephasing_rad_per_ns=-1e-3)

    def test_negative_idle_stochastic_rate_rejected(self):
        with pytest.raises(ValueError, match="idle_stochastic_rate_per_ns"):
            NoiseSpec(idle_stochastic_rate_per_ns=-1e-5)

    def test_preset_override_validated(self):
        with pytest.raises(ValueError):
            preset("casablanca-like", idle_stochastic_rate_per_ns=-1.0)


@st.composite
def _plan_circuits(draw, width):
    """Up to 16 gates of every kind the plan fuses, DELAY included, with
    two-qubit gates in either qubit order."""
    gates = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(sorted(ALL_KINDS)))
        if kind in TWO_QUBIT_KINDS:
            qubits = tuple(draw(st.permutations(range(width)))[:2])
        else:
            qubits = (draw(st.integers(0, width - 1)),)
        angle = draw(st.floats(-math.pi, math.pi)) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, qubits, angle=angle,
                          duration_ns=80.0 if kind == "DELAY" else 0.0))
    return Circuit(width, gates)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.integers(2, 4),
       over=st.floats(0.01, 1.0) | st.floats(-1.0, -0.01), with_basis=st.booleans())
def test_fused_plan_matches_density_oracle(data, width, over, with_basis):
    # folding single-qubit gates into the next two-qubit op, and gates
    # into windows, keeps the overrotated channel: the executor's outcome
    # distribution equals the diagonal of the exact unfused density
    # evolution
    circ = data.draw(_plan_circuits(width))
    basis = data.draw(_plan_circuits(width)) if with_basis else None
    spec = NoiseSpec(two_qubit_target_error=0.0, coherent_overrotation=over)
    got = run_noisy_counts(circ, spec, shots=1, seed=0, infinite=True, basis=basis).vector
    full = Circuit(width, circ.gates + (basis.gates if basis else ()))
    want = np.real(np.diag(run_noisy_density(full, spec).matrix))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("impl", ["scaled-rzx", "two-cnot"])
def test_plan_windows_stay_within_four_qubits_and_the_basis_split(impl):
    # every op spans at most 4 qubits, and no window crosses
    # the basis boundary: the stack after ops[:split] is the circuit alone
    L = 5
    step = build_trotter_step(qmbs_params(L), impl=impl, idle_ns=100.0)
    circ = twirl_circuit(Circuit(L, neel_prep_circuit(L).gates + step.gates), seed=1)
    basis = y_basis_rotation(L, "even")
    plan = noise._NoisePlan(circ, noiseless(), basis=basis)
    assert 0 < plan.split < len(plan.ops)
    assert all(op[0] == "window" and len(op[1]) <= 4 for op in plan.ops)
    init = Statevector.zero(L)
    kept, measured = plan.run_batch(init.amplitudes[None, :].copy(), [np.random.default_rng(0)])
    with_basis = Circuit(L, circ.gates + basis.gates)
    np.testing.assert_allclose(kept[0], run_circuit(init, circ).amplitudes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(measured[0], run_circuit(init, with_basis).amplitudes,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_twirled_brickwork_step_plans_to_four_windows(lam):
    # 11 bonds of an L=12 step, their twirl Paulis and folds fit in the
    # windows {0-3}, {4-7}, {8-11} and {3, 4, 7, 8}
    L = 12
    circ = twirl_circuit(fold_gates_random(build_trotter_step(qmbs_params(L)), lam, seed=3),
                         seed=1)
    plan = noise._NoisePlan(circ, casablanca_like())
    assert len(plan.ops) <= 4
    assert all(op[0] == "window" and len(op[1]) <= 4 for op in plan.ops)
    assert plan.n_draws == circ.n_two_qubit


def test_idle_windows_without_idle_noise_plan_nothing():
    # without idle noise a DELAY is the identity: it adds no op and splits
    # no window; with idle noise each one runs as a delay op
    with_idles = build_trotter_step(qmbs_params(5), idle_ns=100.0)
    without = build_trotter_step(qmbs_params(5))
    spec = casablanca_like()
    plan = noise._NoisePlan(with_idles, spec)
    assert len(plan.ops) == len(noise._NoisePlan(without, spec).ops)
    assert not any(op[0] == "delay" for op in plan.ops)
    idle = noise._NoisePlan(with_idles, casablanca_like(idle_stochastic_rate_per_ns=1e-4))
    n_delays = sum(g.kind == "DELAY" for g in with_idles.gates)
    assert sum(op[0] == "delay" for op in idle.ops) == n_delays > 0


class _FixedUniforms:
    """Stand-in for a trajectory generator whose draws are fixed."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def random(self, n):
        assert n == self.row.size
        return self.row.copy()


def test_window_corrections_equal_inserted_paulis():
    # chosen rows draw chosen Paulis after chosen two-qubit gates of a
    # 7-qubit folded, twirled step (windows cover 4 of the 7 qubits at
    # most); every row of the fused plan must equal the unfused circuit
    # with those Paulis inserted as gates, before and after the basis
    L = 7
    step = build_trotter_step(qmbs_params(L), impl="scaled-rzx")
    circ = twirl_circuit(fold_gates_random(
        Circuit(L, neel_prep_circuit(L).gates + step.gates), 2.0, seed=5), seed=2)
    basis = y_basis_rotation(L, "odd")
    spec = NoiseSpec(two_qubit_depolarizing=0.32)  # 0.02 on each of the 15 Paulis
    plan = noise._NoisePlan(circ, spec, basis=basis)
    two_qubit = [i for i, g in enumerate(circ.gates) if g.is_two_qubit]
    n = len(two_qubit)
    assert plan.n_draws == n
    shared = next(op[5] for op in plan.ops if op[0] == "window" and len(op[4]) >= 3)
    rng = np.random.default_rng(11)
    rows = [
        {},  # no error
        {0: 4},
        {int(shared[0]): 14, int(shared[1]): 1, int(shared[2]): 9},  # one window
        {d: (d % 15) for d in range(0, n, 3)},
        {n - 1: 7},
        {d: int(rng.integers(15)) for d in range(n)},  # an error after every gate
    ]
    uniforms = []
    for errors in rows:
        u = np.full(n, 0.99)
        for d, k in errors.items():
            u[d] = 0.02 * (k + 0.5)  # selects Pauli k of the cumulative rates
        uniforms.append(_FixedUniforms(u))
    psi = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    init = Statevector(psi / np.linalg.norm(psi))
    kept, measured = plan.run_batch(np.tile(init.amplitudes, (len(rows), 1)), uniforms)
    labels = noise.TWO_QUBIT_PAULI_LABELS
    for t, errors in enumerate(rows):
        gates = []
        for i, g in enumerate(circ.gates):
            gates.append(g)
            if g.is_two_qubit and two_qubit.index(i) in errors:
                label = labels[errors[two_qubit.index(i)]]
                gates += [pauli_gate(PAULI_LETTERS.index(ch), q)
                          for ch, q in zip(label, g.qubits) if ch != "I"]
        want = run_circuit(init, Circuit(L, gates))
        np.testing.assert_allclose(kept[t], want.amplitudes, rtol=0, atol=1e-12)
        want = run_circuit(want, basis)
        np.testing.assert_allclose(measured[t], want.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.integers(2, 4),
       depolarizing=st.sampled_from([None, 0.0, 0.05]),
       target=st.sampled_from([0.0, 0.016]),
       single=st.sampled_from([0.0, 0.01]),
       dephasing=st.sampled_from([0.0, 0.002]),
       flips=st.sampled_from([0.0, 1e-4]))
def test_chain_noise_agrees_with_what_the_plans_do(data, width, depolarizing, target,
                                                   single, dephasing, flips):
    # chain noise is stochastic exactly when some plan draws per-trajectory
    # noise or dephases an idle window, and quasi-static exactly when some
    # plan dephases one
    circuits = [data.draw(_plan_circuits(width)) for _ in range(data.draw(st.integers(1, 3)))]
    spec = NoiseSpec(two_qubit_depolarizing=depolarizing, two_qubit_target_error=target,
                     single_qubit_depolarizing=single, idle_dephasing_rad_per_ns=dephasing,
                     idle_stochastic_rate_per_ns=flips)
    plans = [noise._NoisePlan(c, spec) for c in circuits]
    dephases = [dephasing > 0 and any(op[0] == "delay" for op in p.ops) for p in plans]
    flags = [(p.n_draws > 0 or deph, deph) for p, deph in zip(plans, dephases)]
    for c, want in zip(circuits, flags):
        assert noise.chain_noise([c], spec) == want
    assert noise.chain_noise(circuits, spec) == (
        any(s for s, _ in flags), any(dephases))
