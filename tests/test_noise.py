"""Pulse-duration model, noise channels, readout confusion, trajectories."""
import copy
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim import model, noise
from scarsim.mitigation import fold_gates_random, insert_dd, twirl_circuit, twirl_is_visible
from scarsim.model import build_trotter_step, neel_prep_circuit, qmbs_params
from scarsim.noise import (
    ConfusionMatrix,
    NoiseSpec,
    PulseParams,
    apply_readout_error,
    casablanca_like,
    gate_error_rate,
    gaussian_flank_area_per_amp,
    noiseless,
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
    Gate,
    PauliString,
    Statevector,
    bit_table,
    cnot,
    delay,
    h,
    pauli_basis_matrices,
    pauli_gate,
    run_circuit,
    rx,
    ry,
    rz,
    rzx,
    rzz,
    s,
    sdg,
    x,
)
from scarsim.tomography import gate_ptm, realized_gate_ptms
from test_qsim import _embed


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


# angles on both sides of the amplitude threshold (about 0.174 rad), ends included
_LAW_THETAS = sorted({*np.linspace(0.0, 2.5, 11).tolist(), 0.1742, 0.1743})
_LAW_SPECS = [casablanca_like(),
              NoiseSpec(pulse=PulseParams(width_ref=400.0), two_qubit_target_error=0.03)]


class TestCompiledGateLaws:
    """The pulse and error laws of each interaction-gate compilation in
    closed form: every duration and rate is exact, not approximate."""

    @pytest.mark.parametrize("impl", model.RZZ_IMPLS)
    def test_rzz_duration_closed_form(self, impl):
        for pp in (PulseParams(), PulseParams(width_ref=400.0, single_pulse_ns=20.0)):
            for theta in _LAW_THETAS:
                want = (2.0 * noise.cnot_duration_ns(pp) if impl == "two-cnot"
                        else 2.0 * noise.cr_pulse_ns(theta, pp) + 2.0 * pp.single_pulse_ns)
                assert rzz_duration(theta, impl, pp) == want

    @pytest.mark.parametrize("spec", _LAW_SPECS)
    def test_two_qubit_error_prob_is_the_rate_of_the_gate_duration(self, spec):
        pp, tau = spec.pulse, spec.tau_err_ns()
        assert spec.two_qubit_error_prob(cnot(0, 1)) == gate_error_rate(
            noise.cnot_duration_ns(pp), tau)
        for theta in _LAW_THETAS:
            want = gate_error_rate(
                2.0 * noise.cr_pulse_ns(theta, pp) + 2.0 * pp.single_pulse_ns, tau)
            for g in (rzx(0, 1, theta), rzx(0, 1, -theta), rzz(0, 1, theta), rzz(1, 0, -theta)):
                assert spec.two_qubit_error_prob(g) == want

    @pytest.mark.parametrize("spec", _LAW_SPECS)
    def test_realized_error_compounds_the_compiled_gates(self, spec):
        from scarsim.experiments import _realized_error

        p_cnot = spec.two_qubit_error_prob(cnot(0, 1))
        for theta in _LAW_THETAS:
            assert _realized_error(theta, "two-cnot", spec) == pytest.approx(
                1.0 - (1.0 - p_cnot) ** 2, rel=0, abs=1e-15)
            assert _realized_error(theta, "scaled-rzx", spec) == pytest.approx(
                spec.two_qubit_error_prob(rzx(0, 1, theta)), rel=0, abs=1e-15)

    def test_realized_error_counts_the_single_qubit_gates(self):
        # the executor draws an error after every gate of a compilation,
        # so the inner RZ of two-cnot and both RY of scaled-rzx count at
        # the single-qubit rate
        from scarsim.experiments import _realized_error

        p1 = 0.004
        spec = casablanca_like(single_qubit_depolarizing=p1)
        p_cnot = spec.two_qubit_error_prob(cnot(0, 1))
        for theta in _LAW_THETAS:
            assert _realized_error(theta, "two-cnot", spec) == pytest.approx(
                1.0 - (1.0 - p_cnot) ** 2 * (1.0 - p1), rel=0, abs=1e-15)
            assert _realized_error(theta, "scaled-rzx", spec) == pytest.approx(
                1.0 - (1.0 - spec.two_qubit_error_prob(rzx(0, 1, theta))) * (1.0 - p1) ** 2,
                rel=0, abs=1e-15)
            assert _realized_error(theta, "rzz", spec) == spec.two_qubit_error_prob(
                rzz(0, 1, theta))

    def test_unknown_compilation_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            model.bond_gates(0, 1, 1.0, "bogus")


class TestNoisyGateChannel:
    """The channel of one atomic gate as process tomography reads it,
    ``realized_gate_ptms(..., "atomic")``."""

    def test_depolarizing_ptm_pattern(self):
        # remove the ideal unitary: residual noise PTM is diag(1, 1-p x15)
        p = 0.02
        spec = NoiseSpec(two_qubit_depolarizing=p)
        gate = rzz(0, 1, 1.3)
        ptm = realized_gate_ptms(gate, spec, "atomic")[0]
        residual = ptm @ gate_ptm(gate).T
        np.testing.assert_allclose(residual, np.diag([1.0] + [1 - p] * 15), atol=1e-10)

    def test_coherent_overrotation_is_not_stochastic(self):
        spec = NoiseSpec(two_qubit_target_error=0.0, coherent_overrotation=0.1)
        gate = rzz(0, 1, 2.0)
        ptm = realized_gate_ptms(gate, spec, "atomic")[0]
        residual = ptm @ gate_ptm(gate).T
        off = residual - np.diag(np.diag(residual))
        assert np.max(np.abs(off)) > 1e-3

    @pytest.mark.parametrize("gate", [rzz(0, 1, 0.9), rzx(0, 1, 0.9), cnot(0, 1)],
                             ids=lambda g: g.kind)
    def test_channel_matches_exact_executor(self, gate):
        # one rule for a two-qubit gate's error: the unitary, then the
        # overrotation about its own generator (none after CNOT), then
        # the Pauli channel, exactly as run_noisy_density applies them;
        # the PTM, recovered from product inputs, carries it to an
        # entangled one
        spec = NoiseSpec(two_qubit_depolarizing=0.05, coherent_overrotation=0.3)
        rng = np.random.default_rng(8)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        init = Statevector(amps / np.linalg.norm(amps))
        paulis = pauli_basis_matrices(2)
        coords = [np.vdot(init.amplitudes, p @ init.amplitudes).real for p in paulis]
        got = sum(c * p for c, p in zip(realized_gate_ptms(gate, spec, "atomic")[0] @ coords,
                                        paulis)) / 4
        want = run_noisy_density(Circuit(2, [gate]), spec, initial=init)
        np.testing.assert_allclose(got, want.matrix, rtol=0, atol=1e-12)


class TestReadout:
    def test_identity_confusion_is_noop(self):
        probs = np.array([[0.0, 0.5, 0.5, 0.0], [0.25, 0.25, 0.5, 0.0]])
        out = apply_readout_error(probs, ConfusionMatrix.from_rates(2, 0.0, 0.0))
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
            apply_readout_error(np.ones((2, 8)) / 8, ConfusionMatrix.from_rates(2, 0.0, 0.0))

    def test_singular_factor_runs_forward_and_refuses_inversion(self):
        # eps + eta = 1 sends both states of a qubit to one distribution:
        # the forward channel exists, and only an inversion is refused
        m = ConfusionMatrix.from_rates(2, eps=[0.1, 0.5], eta=[0.2, 0.5])
        out = apply_readout_error(np.array([1.0, 0.0, 0.0, 0.0]), m)
        np.testing.assert_allclose(out, [0.45, 0.45, 0.05, 0.05], rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="qubit 1 has no inverse: eps = 0.5 and eta = 0.5"):
            m.invert_vector(out)

    @pytest.mark.parametrize("eps, eta, singular", [
        (0.5, 0.5, True), (1.0, 1.0, True), (0.7, 0.6, True), (0.5, 0.5 - 1e-10, True),
        (0.5, 0.5 - 1e-8, False), (0.03, 0.02, False), (1.0, 0.0, True), (0.0, 0.0, False)])
    def test_rates_summing_to_1_or_more_refuse_inversion_only(self, eps, eta, singular):
        # a bit swap (eps = eta = 1) has an inverse, but one that turns the
        # read around; every sum of 1 or more (within 1e-9) is refused, and
        # the forward channel takes any rates
        assert noise.singular_readout(eps, eta) is singular
        m = ConfusionMatrix.from_rates(1, eps, eta)
        np.testing.assert_allclose(apply_readout_error(np.array([1.0, 0.0]), m), [1 - eps, eps],
                                   rtol=0, atol=1e-15)
        if singular:
            with pytest.raises(ValueError, match="qubit 0 has no inverse: .* sum to 1 or more"):
                m.invert_vector(np.array([0.5, 0.5]))
        else:
            m.invert_vector(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("width", range(1, 14), ids="tensor-{}".format)
    def test_kernel_matches_dense_oracle(self, width):
        # both directions on a single row and a (T, 2^L) stack, against
        # the dense matrix (the Kronecker product of the factors) and its
        # inverse up to width 10; above that (a dense matrix would take
        # 32 MB and up) against one tensordot per qubit, the per-factor
        # contraction the product encodes
        rng = np.random.default_rng(width)
        m = ConfusionMatrix.from_rates(width, rng.uniform(0, 0.3, width),
                                       rng.uniform(0, 0.3, width))
        stack = rng.random((4, 2**width))
        if width <= 10:
            dense = reduce(np.kron, m.factors)
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

    def test_forward_then_inverse_round_trip(self):
        m = ConfusionMatrix.from_rates(3, eps=0.05, eta=0.03)
        vec = np.array([0.2, 0.1, 0.05, 0.15, 0.1, 0.2, 0.1, 0.1])
        np.testing.assert_allclose(m.invert_vector(m.apply_to_vector(vec)), vec, atol=1e-12)


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
        ideal = run_circuit(Statevector.zero(2), circ).probabilities() * 4096
        np.testing.assert_allclose(counts.to_vector(), ideal, rtol=0, atol=1e-10)

    def test_seed_determinism(self):
        circ = build_trotter_step(qmbs_params(3), impl="two-cnot")
        spec = casablanca_like()
        a = run_noisy_counts(circ, spec, shots=512, seed=7)
        b = run_noisy_counts(circ, spec, shots=512, seed=7)
        assert a.data == b.data

    @pytest.mark.parametrize("width", [3, 6])
    def test_trajectories_match_exact_density(self, width):
        # Monte-Carlo channel unraveling vs exact evolution, 5-sigma band:
        # n trajectories, each contributing its exact distribution; X
        # letters are read as Z after an H basis rotation.  Width 6 runs
        # a Neel-prepared Trotter step with idles under every error source
        if width == 3:
            circ = Circuit(3, [h(0), cnot(0, 1), rzz(1, 2, 0.7), cnot(0, 2)])
            spec = NoiseSpec(two_qubit_depolarizing=0.08)
            n = 100_000
            cases = [(("ZZI", "IZZ"), None), (("XXI",), Circuit(3, [h(0), h(1)]))]
        else:
            step = build_trotter_step(qmbs_params(6), impl="scaled-rzx", idle_ns=200.0)
            circ = Circuit(6, neel_prep_circuit(6).gates + step.gates)
            spec = NoiseSpec(single_qubit_depolarizing=0.02, idle_dephasing_rad_per_ns=0.002,
                             idle_stochastic_rate_per_ns=5e-4, coherent_overrotation=0.05)
            n = 20_000
            cases = [(("ZZIIII", "IIZIZI"), None), (("XXIIII",), Circuit(6, [h(0), h(1)]))]
        rho = run_noisy_density(circ, spec)
        signs = 1 - 2 * bit_table(width).astype(float)  # Z eigenvalue per qubit
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

    # A stochastic width-3 circuit: Pauli errors on the two-qubit gates and
    # Z flips (probability 0.197) in an idle window between two H on qubit 2.
    LAW_CIRCUIT = Circuit(3, [h(0), h(2), cnot(0, 1), delay(2, 500.0), rzz(1, 2, 0.7), h(2),
                              cnot(0, 2)])
    LAW_SPEC = casablanca_like(idle_stochastic_rate_per_ns=1e-3)

    def test_shot_mean_is_the_read_out_density_diagonal(self):
        # Over seeds, counts / shots averages to M diag(rho): the readout
        # channel on the exact channel's outcome law.  Tolerance: 5 standard
        # errors of the mean over the K seeds, per outcome.
        circ, spec = self.LAW_CIRCUIT, self.LAW_SPEC
        m = ConfusionMatrix.from_rates(3, spec.readout_eps, spec.readout_eta)
        want = apply_readout_error(np.real(np.diag(run_noisy_density(circ, spec).matrix)), m)
        shots, k = 256, 2000
        freq = np.array([run_noisy_counts(circ, spec, shots, [s], shots_per_trajectory=64).vector
                         for s in range(k)]) / shots
        stderr = freq.std(axis=0, ddof=1) / math.sqrt(k)
        assert np.all(np.abs(freq.mean(axis=0) - want) < 5 * stderr)

    def test_shots_are_one_multinomial_from_the_trajectory_mixture(self):
        # With the trajectories fixed (one batch seed), the counts of
        # different shot seeds are Multinomial(shots, q) with q = M p-bar,
        # which the infinite-shot run of the same batch returns: per-outcome
        # mean q and variance q (1 - q) / shots.  Splitting the shots into
        # per-trajectory quotas would shrink that variance by the spread
        # of the trajectories' distributions.  Tolerances: 5 standard errors
        # for the mean, 20% for the variance (its relative standard error
        # over K = 2000 draws is about 3.5%).
        circ, spec = self.LAW_CIRCUIT, self.LAW_SPEC
        shots, n_traj, k = 256, 4, 2000

        def run(seed, infinite=False):
            # an empty first block starts the chain's trajectories from
            # [99]; the circuit continues them, its shots drawn from seed
            chain = noise.TrajectoryChain(n_traj, False)
            run_noisy_counts(Circuit(3), spec, shots, [99], chain=chain)
            return run_noisy_counts(circ, spec, shots, [seed], infinite=infinite,
                                    chain=chain).vector

        q = run(0, infinite=True) / shots
        freq = np.array([run(s) for s in range(k)]) / shots
        var = q * (1 - q) / shots
        assert np.all(np.abs(freq.mean(axis=0) - q) < 5 * np.sqrt(var / k))
        np.testing.assert_allclose(freq.var(axis=0, ddof=1), var, rtol=0.2)

    def test_single_trajectory_counts_are_one_multinomial_from_seed_4(self):
        # without stochastic noise one trajectory runs, and its counts are
        # exactly rng.multinomial(shots, M p) with rng seeded seed + [4]
        circ = build_trotter_step(qmbs_params(3), impl="two-cnot")
        spec = casablanca_like(two_qubit_depolarizing=0.0)
        assert noise.chain_noise([circ], spec) == (False, False)
        q = run_noisy_counts(circ, spec, shots=1, seed=[6, 1], infinite=True).vector
        want = np.random.default_rng([6, 1, 4]).multinomial(1000, q / q.sum())
        got = run_noisy_counts(circ, spec, shots=1000, seed=[6, 1]).vector
        np.testing.assert_array_equal(got, want)

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
        assert noise.chain_noise([circ], spec) == (True, True)

        def fresh():
            # an empty block starts 6 trajectories seeded [3, 2, t], which
            # draw their quasi-static rates and evolve nothing
            chain = noise.TrajectoryChain(6, True)
            run_noisy_counts(Circuit(4), spec, 6, [3], chain=chain)
            return chain

        batch = fresh()
        amps = batch.amps
        for _ in range(2):  # a second block continues the same trajectories
            amps, _ = plan.run_batch(amps, batch.rngs, batch.omegas)
        for t in range(6):
            chain = fresh()
            single = chain.amps[t:t + 1]
            for _ in range(2):
                single, _ = plan.run_batch(single, chain.rngs[t:t + 1], chain.omegas[t:t + 1])
            np.testing.assert_allclose(amps[t], single[0], atol=1e-12)
        assert len({amps[t].tobytes() for t in range(6)}) > 1


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["coherent_overrotation", "idle_dephasing_rad_per_ns",
                                      "idle_stochastic_rate_per_ns"])
    def test_non_finite_rate_rejected(self, name, value):
        # nan passed the sign checks, and an infinite overrotation made
        # every gate matrix nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NoiseSpec(**{name: value})

    def test_preset_override_validated(self):
        with pytest.raises(ValueError):
            preset("casablanca-like", idle_stochastic_rate_per_ns=-1.0)


def _with_basis(circuit, spec, basis):
    """The plan of ``circuit`` followed by its measurement ``basis``
    (None: no basis), as the executor joins them."""
    return noise._NoisePlan.join([noise._NoisePlan(circuit, spec)],
                                 noise._NoisePlan(basis, spec) if basis else None)


@st.composite
def _plan_circuits(draw, width):
    """Up to 16 gates of every kind the plan fuses, DELAY included, with
    two-qubit gates in either qubit order."""
    gates = []
    kinds = sorted(ALL_KINDS if width > 1 else ALL_KINDS - TWO_QUBIT_KINDS)
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
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


def _dense_density(circuit, spec, initial):
    """The density oracle's channel restated with every operator embedded
    in the whole register: U rho U^dag for the overrotated gate, then its
    Pauli channel (1 - sum w) rho + sum_P w_P P rho P (two-qubit gates:
    ``pauli_distribution``; single-qubit gates: X, Y and Z at
    ``single_qubit_depolarizing``/4); a DELAY mixes in Z rho Z so that the
    qubit's off-diagonals scale by exp(-(rate T)^2 / 2) exp(-T flip rate)."""
    width = circuit.width
    rho = np.outer(initial.amplitudes, initial.amplitudes.conj())
    for g in circuit.gates:
        if g.kind == "DELAY":
            f = math.exp(-0.5 * (spec.idle_dephasing_rad_per_ns * g.duration_ns) ** 2
                         - g.duration_ns * spec.idle_stochastic_rate_per_ns)
            z = _embed(np.diag([1.0, -1.0]), g.qubits, width)
            rho = 0.5 * (1.0 + f) * rho + 0.5 * (1.0 - f) * (z @ rho @ z)
            continue
        u = _embed(noise._overrotated_matrix(g, spec.coherent_overrotation), g.qubits, width)
        rho = u @ rho @ u.conj().T
        if g.is_two_qubit:
            labels, probs = spec.pauli_distribution(g)
        else:
            labels, probs = "XYZ", [spec.single_qubit_depolarizing / 4.0] * 3
        mixed = (1.0 - sum(probs)) * rho
        for label, pr in zip(labels, probs):
            pm = _embed(PauliString(label).matrix(), g.qubits, width)
            mixed += pr * (pm @ rho @ pm.conj().T)
        rho = mixed
    return rho


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), over=st.floats(-0.3, 0.3),
       p1=st.sampled_from([0.0, 0.05]), p2=st.sampled_from([None, 0.0, 0.12]),
       dephasing=st.sampled_from([0.0, 0.004]), flips=st.sampled_from([0.0, 0.003]),
       seed=st.integers(0, 2**16) | st.none())
def test_density_oracle_equals_the_dense_formula(data, width, over, p1, p2, dephasing, flips,
                                                 seed):
    # the local superoperators on the tensor of rho equal the dense
    # embedded operators, for every gate kind under two-qubit (pulse law
    # or fixed) and single-qubit depolarizing, overrotation and both idle
    # noises, from |0...0> or a random initial state
    circ = data.draw(_plan_circuits(width))
    spec = NoiseSpec(two_qubit_depolarizing=p2, single_qubit_depolarizing=p1,
                     idle_dephasing_rad_per_ns=dephasing, idle_stochastic_rate_per_ns=flips,
                     coherent_overrotation=over)
    init = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        init = Statevector(amps / np.linalg.norm(amps))
    got = run_noisy_density(circ, spec, initial=init).matrix
    want = _dense_density(circ, spec, init or Statevector.zero(width))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_density_oracle_refuses_widths_above_its_cap():
    # width 10 holds a 16 MiB rho; width 11 is refused before any is built
    with pytest.raises(ValueError, match="DENSITY_MAX_WIDTH = 10"):
        run_noisy_density(Circuit(11, [h(0)]), casablanca_like())


@pytest.mark.parametrize("impl", ["scaled-rzx", "two-cnot"])
def test_plan_windows_stay_within_four_qubits_and_the_basis_split(impl):
    # every op spans at most 4 qubits, and no window crosses
    # the basis boundary: the stack after ops[:split] is the circuit alone
    L = 5
    step = build_trotter_step(qmbs_params(L), impl=impl, idle_ns=100.0)
    circ = twirl_circuit(Circuit(L, neel_prep_circuit(L).gates + step.gates), seed=1)
    basis = y_basis_rotation(L, "even")
    plan = _with_basis(circ, noiseless(), basis)
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
    # without idle noise a DELAY is the identity: it adds no op, no draw
    # and splits no window; under stochastic idle flips each one adds
    # exactly one draw, as a window member, and no other op
    with_idles = build_trotter_step(qmbs_params(5), idle_ns=100.0)
    without = build_trotter_step(qmbs_params(5))
    spec = casablanca_like()
    plan = noise._NoisePlan(with_idles, spec)
    bare = noise._NoisePlan(without, spec)
    assert len(plan.ops) == len(bare.ops)
    assert plan.n_draws == bare.n_draws == without.n_two_qubit
    assert all(op[0] == "window" for op in plan.ops)
    idle = noise._NoisePlan(with_idles, casablanca_like(idle_stochastic_rate_per_ns=1e-4))
    n_delays = sum(g.kind == "DELAY" for g in with_idles.gates)
    assert idle.n_draws - plan.n_draws == n_delays > 0
    assert all(op[0] == "window" for op in idle.ops)
    assert sum(len(op[4]) for op in idle.ops) == idle.n_draws


class _FixedUniforms:
    """Stand-in for a trajectory generator whose draws are fixed."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def random(self, n):
        assert n == self.row.size
        return self.row.copy()


def _draw_branches(circuit, spec, at):
    """Every branch of every draw ``circuit`` makes under ``spec``, in
    circuit order, from the model's rates stated here: one list of
    (uniform, probability) per noisy operation.  The uniform lies the
    fraction ``at`` into its Pauli's interval [lo, hi) of the cumulative
    rates, or the fraction 1 - ``at`` into [total, 1) for no error: at
    0.5 every uniform is a midpoint, and near 1 every one lies just
    inside the interval's edge that a smaller Pauli rate or a larger
    total would move past it."""
    draws = []
    for g in circuit.gates:
        if g.kind == "DELAY":
            rates = [0.5 * (1.0 - math.exp(-g.duration_ns * spec.idle_stochastic_rate_per_ns))]
        elif g.is_two_qubit:
            rates = [spec.two_qubit_depolarizing / 16.0] * 15
        else:
            rates = [spec.single_qubit_depolarizing / 4.0] * 3
        total = sum(rates)
        if total > 0:
            edges = np.concatenate([[0.0], np.cumsum(rates)])
            branches = [(lo + at * (hi - lo), r) for lo, hi, r in zip(edges, edges[1:], rates)]
            draws.append(branches + [(total + (1.0 - at) * (1.0 - total), 1.0 - total)])
    return draws


_ENUMERATED = {
    # name: (width, circuit gates, basis gates or None, two-qubit p, single p, flip rate);
    # a gate that does not commute with Z follows every flip, which the
    # outcome probabilities would not show otherwise
    "two-qubit": (2, [rx(0, 0.7), rzz(0, 1, 1.1), h(1), cnot(1, 0)], None, 0.3, 0.0, 0.0),
    "two-qubit, basis": (3, [rzx(2, 0, 0.9), s(1), rzz(1, 2, 0.4)], [h(0), sdg(1), h(1)],
                         0.24, 0.0, 0.0),
    "single-qubit": (3, [h(0), rzz(0, 1, 0.9), ry(2, 0.4), cnot(2, 1), x(1)], None,
                     0.0, 0.2, 0.0),
    "single-qubit, basis": (2, [rzx(0, 1, 1.3), rz(0, 0.8)], [h(0), h(1)], 0.0, 0.3, 0.0),
    "idle flips, DD": (2, [h(0), ry(1, 0.3), rzz(0, 1, 0.8), ry(0, 0.5), delay(0, 50.0),
                           rx(0, math.pi), delay(0, 100.0), rx(0, math.pi), delay(0, 50.0),
                           h(0)], None, 0.0, 0.0, 2e-3),
    "idle flips, basis": (3, [delay(2, 120.0), cnot(0, 2), delay(1, 0.0), delay(1, 80.0)],
                          [h(2), h(1)], 0.0, 0.0, 3e-3),
    "all three": (3, [rzx(0, 1, 0.7), delay(2, 80.0)], [h(2)], 0.2, 0.1, 2e-3),
    "all three, DD": (2, [delay(0, 60.0), rx(0, math.pi), rzx(1, 0, 0.9)], None,
                      0.16, 0.12, 4e-3),
}


@pytest.mark.parametrize("at", [0.5, 1.0 - 1e-9])
@pytest.mark.parametrize("case", sorted(_ENUMERATED))
def test_enumerated_branches_equal_the_density_oracle(case, at):
    # one row per branch of every draw: the rows' outcome probabilities,
    # weighted by their branch probabilities, are the exact channel's,
    # for two-qubit depolarizing, single-qubit depolarizing and
    # stochastic idle flips, alone and together, before and after the
    # basis rotation; uniforms just inside the interval edges also pin
    # the executor's rates to the model's
    width, gates, basis_gates, p2, p1, flips = _ENUMERATED[case]
    circ = Circuit(width, gates)
    basis = Circuit(width, basis_gates) if basis_gates else None
    spec = NoiseSpec(two_qubit_depolarizing=p2, single_qubit_depolarizing=p1,
                     idle_stochastic_rate_per_ns=flips, coherent_overrotation=0.05)
    draws = _draw_branches(Circuit(width, gates + (basis_gates or [])), spec, at)
    assert 0 < len(draws) <= 3
    rows = list(itertools.product(*draws))
    weights = np.array([math.prod(p for _, p in row) for row in rows])
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    plan = _with_basis(circ, spec, basis)
    assert plan.n_draws == len(draws)
    rng = np.random.default_rng(len(case))
    psi = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    init = Statevector(psi / np.linalg.norm(psi))
    kept, measured = plan.run_batch(
        np.tile(init.amplitudes, (len(rows), 1)),
        [_FixedUniforms([u for u, _ in row]) for row in rows])
    want = run_noisy_density(circ, spec, initial=init)
    np.testing.assert_allclose(weights @ np.abs(kept) ** 2, np.real(np.diag(want.matrix)),
                               rtol=0, atol=1e-12)
    if basis is not None:
        want = run_noisy_density(Circuit(width, gates + basis_gates), spec, initial=init)
    np.testing.assert_allclose(weights @ np.abs(measured) ** 2, np.real(np.diag(want.matrix)),
                               rtol=0, atol=1e-12)


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
    plan = _with_basis(circ, spec, basis)
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
@given(data=st.data(), width=st.integers(2, 5), n_blocks=st.integers(1, 4),
       with_basis=st.booleans(),
       depolarizing=st.sampled_from([0.0, 0.4]),
       single=st.sampled_from([0.0, 0.3]),
       dephasing=st.sampled_from([0.0, 0.004]),
       flips=st.sampled_from([0.0, 0.01]),
       seed=st.integers(0, 2**16))
def test_joined_block_plans_equal_one_plan_of_the_whole_circuit(
        data, width, n_blocks, with_basis, depolarizing, single, dephasing, flips, seed):
    # plans of consecutive blocks joined with a basis plan run every
    # trajectory as one plan of the concatenated circuit does: the same
    # uniforms land on the same noisy operations (noisy single-qubit
    # gates, delays with and without flips or dephasing, windows with and
    # without noisy members), and
    # windows that no longer cross block boundaries change nothing but
    # rounding
    blocks = [data.draw(_plan_circuits(width)) for _ in range(n_blocks)]
    basis = data.draw(_plan_circuits(width)) if with_basis else None
    spec = NoiseSpec(two_qubit_depolarizing=depolarizing, single_qubit_depolarizing=single,
                     idle_dephasing_rad_per_ns=dephasing, idle_stochastic_rate_per_ns=flips)
    whole = _with_basis(Circuit(width, [g for b in blocks for g in b.gates]), spec, basis)
    joined = noise._NoisePlan.join([noise._NoisePlan(b, spec) for b in blocks],
                                   noise._NoisePlan(basis, spec) if basis else None)
    assert joined.n_draws == whole.n_draws
    assert len(joined.ops) - joined.split == len(whole.ops) - whole.split
    rng = np.random.default_rng(seed)
    n_traj = 4
    uniforms = [_FixedUniforms(rng.random(whole.n_draws)) for _ in range(n_traj)]
    omegas = rng.normal(0.0, dephasing, size=(n_traj, width)) if dephasing else None
    amps = rng.normal(size=(n_traj, 2**width)) + 1j * rng.normal(size=(n_traj, 2**width))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    want = whole.run_batch(amps.copy(), uniforms, omegas)
    got = joined.run_batch(amps.copy(), uniforms, omegas)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.integers(2, 4),
       depolarizing=st.sampled_from([None, 0.0, 0.05]),
       target=st.sampled_from([0.0, 0.016]),
       single=st.sampled_from([0.0, 0.01]),
       dephasing=st.sampled_from([0.0, 0.002]),
       flips=st.sampled_from([0.0, 1e-4]))
def test_chain_noise_agrees_with_what_the_plans_do(data, width, depolarizing, target,
                                                   single, dephasing, flips):
    # chain_noise reads the plans; the oracle is the gate-level rule.  A
    # chain is quasi-static exactly when some gate is a DELAY of positive
    # duration under quasi-static dephasing, and stochastic exactly when
    # it is quasi-static or some gate's Pauli channel
    # (spec.pauli_distribution) has a positive total
    circuits = [data.draw(_plan_circuits(width)) for _ in range(data.draw(st.integers(1, 3)))]
    spec = NoiseSpec(two_qubit_depolarizing=depolarizing, two_qubit_target_error=target,
                     single_qubit_depolarizing=single, idle_dephasing_rad_per_ns=dephasing,
                     idle_stochastic_rate_per_ns=flips)

    def gate_rule(gates):
        quasi = dephasing > 0 and any(g.kind == "DELAY" and g.duration_ns > 0 for g in gates)
        return quasi or any(spec.pauli_distribution(g)[1].sum() > 0 for g in gates), quasi

    for c in circuits:
        assert noise.chain_noise([c], spec) == gate_rule(c.gates)
    assert noise.chain_noise(circuits + [None], spec) == gate_rule(
        [g for c in circuits for g in c.gates])


def _rows_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float) -> None:
    for row_a, row_b in zip(a, b, strict=True):
        k = np.argmax(np.abs(row_b))
        phase = row_a[k] / row_b[k]
        assert abs(abs(phase) - 1.0) < atol
        np.testing.assert_allclose(row_a, phase * row_b, rtol=0, atol=atol)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.integers(2, 4), lam=st.floats(1.0, 3.0),
       depolarizing=st.sampled_from([0.0, 0.4]),
       dephasing=st.sampled_from([0.0, 0.004]),
       flips=st.sampled_from([0.0, 0.01]),
       seed=st.integers(0, 2**16))
def test_invisible_twirl_leaves_every_trajectory_as_the_folded_circuit(
        data, width, lam, depolarizing, dephasing, flips, seed):
    # with no overrotation and no single-qubit error, a folded circuit
    # (its inverses included) with DELAYs and DD pulses evolves every
    # trajectory to the state its twirled circuit gives it, up to a
    # global phase: the same uniforms land on the same errors, which the
    # closing Paulis pass up to sign, and the dressing Paulis draw none
    circ = data.draw(_plan_circuits(width))
    circ = fold_gates_random(insert_dd(circ, 35.5), lam, seed=[seed, 0])
    spec = NoiseSpec(two_qubit_depolarizing=depolarizing, idle_dephasing_rad_per_ns=dephasing,
                     idle_stochastic_rate_per_ns=flips)
    assert not twirl_is_visible(spec)
    folded = noise._NoisePlan(circ, spec)
    twirled = noise._NoisePlan(twirl_circuit(circ, seed=[seed, 1]), spec)
    assert folded.n_draws == twirled.n_draws
    n_traj = 6
    rng = np.random.default_rng(seed)
    omegas = rng.normal(0.0, dephasing, size=(n_traj, width)) if dephasing else None
    amps = rng.normal(size=(n_traj, 2**width)) + 1j * rng.normal(size=(n_traj, 2**width))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    got, _ = folded.run_batch(amps.copy(), [np.random.default_rng([seed, t])
                                            for t in range(n_traj)], omegas)
    want, _ = twirled.run_batch(amps.copy(), [np.random.default_rng([seed, t])
                                              for t in range(n_traj)], omegas)
    _rows_equal_up_to_phase(got, want, 1e-12)


@pytest.mark.parametrize("overrides", [{"coherent_overrotation": 0.2},
                                       {"single_qubit_depolarizing": 0.3}],
                         ids=["overrotation", "single-qubit"])
def test_twirl_is_visible_under_overrotation_or_single_qubit_error(overrides):
    # either error makes the twirled circuit's outcome law differ from
    # the folded circuit's, so the sweep must run the twirled one
    circ = Circuit(3, [h(0), rzz(0, 1, 0.9), rzx(1, 2, 0.4), rzz(0, 1, 0.9).inverse()])
    spec = NoiseSpec(two_qubit_target_error=0.0, **overrides)
    assert twirl_is_visible(spec)
    got = run_noisy_counts(circ, spec, 4096, [3], infinite=True)
    want = run_noisy_counts(twirl_circuit(circ, seed=[3, 1]), spec, 4096, [3], infinite=True)
    assert np.abs(got.vector - want.vector).max() > 1e-3 * 4096


def _memo_spec() -> NoiseSpec:
    return NoiseSpec(two_qubit_depolarizing=0.4, single_qubit_depolarizing=0.3,
                     idle_stochastic_rate_per_ns=0.01, coherent_overrotation=0.2)


@pytest.mark.parametrize("a, b", [
    (rzz(0, 1, 0.7), rzz(0, 1, 0.7).inverse()),
    (rzx(0, 1, 0.7), rzx(0, 1, 0.7).inverse()),
    (cnot(0, 1), cnot(1, 0)),
    (rzx(0, 1, 0.7), rzx(1, 0, 0.7)),
    (delay(0, 80.0), delay(0, 120.0)),
], ids=["rzz-inverse", "rzx-inverse", "cnot-order", "rzx-order", "delay-duration"])
def test_plan_memo_tells_apart_blocks_that_differ_in_one_gate(a, b):
    # blocks that differ only in an angle sign, a qubit order or a DELAY
    # duration get plans of their own, each the plan of its block; a new
    # circuit with the same gates shares the memoized one
    spec = _memo_spec()
    plans = {}
    for g in (a, b):
        block = Circuit(2, [h(0), g, x(1)])
        plans[g] = noise._NoisePlan.of(block, spec)
        assert noise._NoisePlan.of(Circuit(2, list(block.gates)), spec) is plans[g]
        fresh = noise._NoisePlan(block, spec)
        u = [_FixedUniforms(np.full(fresh.n_draws, p)) for p in (0.01, 0.2, 0.99)]
        amps = np.tile(Statevector.zero(2).amplitudes, (3, 1))
        np.testing.assert_array_equal(plans[g].run_batch(amps.copy(), u)[0],
                                      fresh.run_batch(amps.copy(), u)[0])
    assert plans[a] is not plans[b]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_memoized_plan_is_unchanged_by_joins_at_different_offsets():
    spec = _memo_spec()
    block = Circuit(3, [h(0), cnot(0, 1), rzz(1, 2, 0.4), rx(2, 0.3), delay(0, 50.0)])
    plan = noise._NoisePlan.of(block, spec)
    before = copy.deepcopy(plan.ops)
    other = noise._NoisePlan.of(Circuit(3, [rzx(2, 0, 0.9)]), spec)
    basis = noise._NoisePlan.of(y_basis_rotation(3, "even"), spec)
    joins = [noise._NoisePlan.join([plan]),
             noise._NoisePlan.join([other, plan, plan], basis),
             noise._NoisePlan.join([plan, other], basis)]
    n, m, b = plan.n_draws, other.n_draws, basis.n_draws
    assert n and m and b
    assert [j.n_draws for j in joins] == [n, m + 2 * n + b, n + m + b]
    for joined in joins:
        joined.run_batch(np.tile(Statevector.zero(3).amplitudes, (4, 1)),
                         [np.random.default_rng([4, t]) for t in range(4)])
    assert _same(plan.ops, before)
    assert noise._NoisePlan.of(block, spec) is plan
    # in the second join the two copies of the plan draw after ``other``
    # and after each other
    k, size = len(other.ops), len(plan.ops)
    copies = joins[1].ops[k:k + size], joins[1].ops[k + size:k + 2 * size]
    for op, first, second in zip(plan.ops, *copies, strict=True):
        if op[0] == "window" and op[5] is not None:
            assert first[5].tolist() == (op[5] + m).tolist()
            assert second[5].tolist() == (op[5] + m + n).tolist()


def test_plan_memo_keeps_the_most_recently_used_plans(monkeypatch):
    monkeypatch.setattr(noise, "PLAN_MEMO", 3)
    spec = _memo_spec()
    blocks = [Circuit(2, [rzz(0, 1, 0.1 * (k + 1))]) for k in range(4)]
    first = [noise._NoisePlan.of(b, spec) for b in blocks[:3]]
    assert noise._NoisePlan.of(blocks[0], spec) is first[0]  # now the most recent
    noise._NoisePlan.of(blocks[3], spec)  # drops blocks[1], the least recent
    assert len(spec._memo["plans"]) == 3
    assert noise._NoisePlan.of(blocks[0], spec) is first[0]
    assert noise._NoisePlan.of(blocks[2], spec) is first[2]
    assert noise._NoisePlan.of(blocks[1], spec) is not first[1]


@pytest.mark.parametrize("key", [7, 0, [0], [3, 7, 2, 0, 1, 0, 2, 4], [2**32 - 1, 0, 5],
                                 [1, 2**32, 3], [2**40 + 5], 2**33, [0, 0]],
                         ids=["int", "zero", "list-zero", "list", "top-word", "part-2^32",
                              "part-2^40", "int-2^33", "zeros"])
def test_rng_gives_the_default_rng_stream(key):
    # the uint32 fast path and the fallback both seed exactly the
    # generator np.random.default_rng(key) does
    got, want = noise._rng(key), np.random.default_rng(key)
    np.testing.assert_array_equal(got.random(64), want.random(64))
    np.testing.assert_array_equal(got.integers(4, size=32), want.integers(4, size=32))


def test_rng_refuses_what_default_rng_refuses():
    with pytest.raises(ValueError):
        noise._rng([3, -1])
    with pytest.raises(TypeError):
        noise._rng([1.5])


def test_memoized_plan_runs_every_stack_bit_identical_to_a_fresh_one():
    # a memoized plan, run twice, alone and joined at three draw offsets,
    # gives the stacks of a plan built fresh for a new spec bit for bit;
    # uniforms of 0.3 make every noisy member draw an error, so every
    # suffix product S_j is built
    spec = _memo_spec()
    block = Circuit(4, [h(0), cnot(0, 1), rzz(1, 2, 0.4), rx(2, 0.3), rzx(2, 3, 0.8),
                        cnot(3, 0), rzz(0, 1, 0.7).inverse(), delay(2, 50.0), ry(1, 0.2)])
    other = noise._NoisePlan.of(Circuit(4, [rzx(2, 0, 0.9), cnot(1, 3)]), spec)
    basis = noise._NoisePlan.of(y_basis_rotation(4, "even"), spec)
    amps = np.tile(Statevector.zero(4).amplitudes, (3, 1))

    def runs(plan):
        m, n, b = other.n_draws, plan.n_draws, basis.n_draws
        joins = [([plan], None, n), ([other, plan], basis, m + n + b),
                 ([plan, other, plan], basis, 2 * n + m + b)]
        out = []
        for parts, bas, draws in joins:
            u = [_FixedUniforms(np.full(draws, p)) for p in (0.3, 0.01, 0.99)]
            out.append(noise._NoisePlan.join(parts, bas).run_batch(amps.copy(), u))
        return out

    plan = noise._NoisePlan.of(block, spec)
    assert noise._NoisePlan.of(block, spec) is plan
    first, again = runs(plan), runs(plan)
    fresh = runs(noise._NoisePlan(block, _memo_spec()))
    for a, b, c in zip(first, again, fresh):
        for x_, y_, z_ in zip(a, b, c):
            np.testing.assert_array_equal(x_, y_)
            np.testing.assert_array_equal(x_, z_)


def test_run_batch_corrects_only_the_windows_some_row_hit(monkeypatch):
    # the batch's uniforms are tested against the plan's per-draw rates
    # once: a window whose draws no row hit builds no correction
    spec = _memo_spec()
    gates = [cnot(0, 1), rzz(2, 3, 0.4), rzx(4, 5, 0.6), cnot(3, 4), h(0), rzz(0, 1, 0.3)]
    plan = noise._NoisePlan(Circuit(6, gates), spec)
    windows = [i for i, op in enumerate(plan.ops) if op[0] == "window" and op[5] is not None]
    corrected = []
    corrections = noise._corrections

    def spy(members, *args):
        corrected.append(next(i for i in windows if plan.ops[i][3] is members))
        return corrections(members, *args)

    monkeypatch.setattr(noise, "_corrections", spy)
    assert len(windows) == 2
    assert plan.n_draws == len(plan.totals) == len(plan.owner) == len(gates)
    for i in windows:
        assert (plan.owner[plan.ops[i][5]] == i).all()
    np.testing.assert_array_equal(plan.totals, [noise._plan_entry(spec, g)[3] for g in gates])
    amps = np.tile(Statevector.zero(6).amplitudes, (1, 1))
    clean = plan.run_batch(amps.copy(), [_FixedUniforms(np.full(plan.n_draws, 0.99))])
    # a uniform equal to its draw's total rate draws no error
    edge = plan.run_batch(amps.copy(), [_FixedUniforms(plan.totals.copy())])
    assert corrected == []
    np.testing.assert_array_equal(edge[0], clean[0])
    u = np.full(plan.n_draws, 0.99)
    u[plan.ops[windows[-1]][5][0]] = 1e-4
    plan.run_batch(amps.copy(), [_FixedUniforms(u)])
    assert corrected == [windows[-1]]


def test_run_batch_keeps_one_spare_stack(monkeypatch):
    # windows pass the stack between amps and one spare array, and a
    # correction runs on its row in place: over a 5-block plan at L=10
    # with 4 trajectories, one of which draws an error, run_batch's traced
    # peak above its input stays within 1.5 stacks (a row copy per
    # correction alone would add a quarter stack).  The measurement after
    # it in run_noisy_counts (the |psi|^2 mixture, the readout channel and
    # the shots) adds at most 4 float rows of 2^L: no (T, 2^L) stack
    L, n_traj = 10, 4
    spec = casablanca_like()
    step = build_trotter_step(qmbs_params(L), impl="scaled-rzx")
    plan = noise._NoisePlan.join([noise._NoisePlan(neel_prep_circuit(L), spec)]
                                 + [noise._NoisePlan(step, spec)] * 4)
    amps = np.tile(Statevector.zero(L).amplitudes, (n_traj, 1))

    def rngs():
        return [np.random.default_rng([7, t]) for t in range(n_traj)]

    assert (np.stack([r.random(plan.n_draws) for r in rngs()]) < plan.totals).sum() == 1
    plan.run_batch(amps.copy(), rngs())  # fills the kernel's and the planner's caches
    generators = rngs()
    tracemalloc.start()
    try:
        plan.run_batch(amps, generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * amps.nbytes

    evolved = []  # traced bytes when the evolution returns; the peak restarts there
    real = noise._NoisePlan.run_batch

    def run_batch(self, *args):
        out = real(self, *args)
        evolved.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    def measure():
        run_noisy_counts(circuit, spec, 4096, [7], chain=noise.TrajectoryChain(n_traj, False))

    monkeypatch.setattr(noise._NoisePlan, "run_batch", run_batch)
    circuit = Circuit(L, neel_prep_circuit(L).gates + step.gates * 4)
    measure()  # fills the plan and readout memos
    tracemalloc.start()
    try:
        measure()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - evolved[-1] <= 4 * 2**L * 8
