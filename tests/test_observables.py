"""Observables and the four-branch correlator measurement protocol."""
import tracemalloc

import numpy as np
import pytest

from scarsim.experiments import ExperimentConfig, Table
from scarsim.model import ModelParams, neel_bitstring, neel_state, qmbs_params, trotter_step
from scarsim.observables import (
    CY_BRANCHES,
    accumulated_error,
    assemble_cy,
    cy_branch_prep,
    cy_oracle,
    loschmidt_echo,
    parity_sites,
    pyp_expectation,
    pyp_matrix,
    series_from_values,
    simulate_cy_noiseless,
    staggered_magnetization,
    y_basis_rotation,
)
from scarsim.qsim import Counts, Statevector, run_circuit
from test_qsim import pauli_string


def _exact_counts(state: Statevector, shots: float = 1.0) -> Counts:
    """Infinite-shot counts of ``state``: its normalized probabilities
    times ``shots``."""
    probs = state.probabilities()
    return Counts(probs / probs.sum() * shots, float(shots))


class TestStaggeredMagnetization:
    def test_neel_state_extremal(self):
        assert staggered_magnetization(neel_state(6)) == pytest.approx(-6.0)

    def test_conjugate_neel(self):
        assert staggered_magnetization(Statevector.from_bitstring("101010")) == pytest.approx(6.0)

    def test_equal_mixture_cancels(self):
        counts = Counts.from_dict({"0101": 500.0, "1010": 500.0}, 1000.0, 4)
        assert staggered_magnetization(counts) == pytest.approx(0.0)

    def test_counts_and_state_agree(self):
        state = neel_state(4)
        counts = _exact_counts(state, 100)
        assert staggered_magnetization(counts) == pytest.approx(
            staggered_magnetization(state)
        )

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            staggered_magnetization(Counts.from_dict({}, 0.0, 3, quasi=True))


class TestLoschmidt:
    def test_all_on_reference(self):
        counts = Counts.from_dict({"0101": 800.0}, 800.0, 4)
        assert loschmidt_echo(counts, "0101") == pytest.approx(1.0)

    def test_single_flip_tolerance_adds_weight(self):
        counts = Counts.from_dict({"0101": 500.0, "0100": 500.0}, 1000.0, 4)
        assert loschmidt_echo(counts, "0101", 0) == pytest.approx(0.5)
        assert loschmidt_echo(counts, "0101", 1) == pytest.approx(1.0)

    def test_tolerance_monotone(self):
        rng = np.random.default_rng(0)
        data = {format(i, "04b"): float(rng.integers(1, 50)) for i in range(16)}
        counts = Counts.from_dict(data, sum(data.values()), 4)
        assert loschmidt_echo(counts, "0101", 1) >= loschmidt_echo(counts, "0101", 0)

    def test_state_path(self):
        assert loschmidt_echo(neel_state(5), neel_bitstring(5), 0) == pytest.approx(1.0)

    def test_consistency_with_magnetization_at_t0(self):
        counts = _exact_counts(neel_state(6), 100)
        assert loschmidt_echo(counts, neel_bitstring(6)) == pytest.approx(1.0)
        assert staggered_magnetization(counts) == pytest.approx(-6.0)


class TestAccumulatedError:
    def test_identical_series_zero(self):
        a = np.random.default_rng(1).normal(size=(8, 5))
        d, err = accumulated_error(a, a, np.zeros_like(a))
        np.testing.assert_allclose(d, 0.0)
        np.testing.assert_allclose(err, 0.0)

    def test_constant_offset(self):
        ref = np.zeros((6, 4))
        qpu = ref + 0.1
        d, _ = accumulated_error(qpu, ref, np.zeros_like(ref))
        np.testing.assert_allclose(d, 0.01, atol=1e-14)

    def test_single_step_offset_decays_as_inverse_n(self):
        ref = np.zeros((7, 3))
        qpu = ref.copy()
        qpu[1, :] = 0.3
        d, _ = accumulated_error(qpu, ref, np.zeros_like(ref))
        e1 = 0.3**2
        for n in range(1, 7):
            assert d[n] == pytest.approx(e1 / n)

    def test_error_propagation(self):
        ref = np.zeros((2, 2))
        qpu = np.array([[0.0, 0.0], [0.1, 0.2]])
        std = np.full((2, 2), 0.05)
        _, err = accumulated_error(qpu, ref, std)
        expected = np.sqrt((2 * 0.1 * 0.05) ** 2 + (2 * 0.2 * 0.05) ** 2) / 2
        assert err[1] == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accumulated_error(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2)))


class TestTimeSeries:
    def test_csv_schema(self):
        ts = series_from_values([0, 1, 2], 1.0, [1.0, 0.5, -0.5j], [0.0, 0.1, 0.2])
        rows = Table.from_series(ts).csv_rows()
        assert rows[0] == "step,Vt,value_re,value_im,std"
        assert rows[1].startswith("0,0.000000000000e+00,1.000000000000e+00")

    def test_strictly_increasing_times_enforced(self):
        with pytest.raises(ValueError):
            series_from_values([1, 1], 1.0, [0.0, 0.0])


class TestPYP:
    def test_zero_in_neel_state(self):
        # Y expectation vanishes in any Z-basis state
        for parity in ("even", "odd"):
            rotated = run_circuit(neel_state(5), y_basis_rotation(5, parity))
            counts = _exact_counts(rotated)
            vals = pyp_expectation(counts, parity)
            assert vals.shape == (len(parity_sites(5, parity)),)
            for v in vals:
                assert v == pytest.approx(0.0, abs=1e-12)

    def test_local_correlator_t0_structure(self):
        # <Z2|(PYP)_j Y_i|Z2> = delta_ij for the even source site (L=3)
        L, i = 3, 2
        psi = neel_state(L).amplitudes
        y_i = pauli_string("I" * (i - 1) + "Y" + "I" * (L - i))
        for j in range(1, L + 1):
            val = psi.conj() @ pyp_matrix(L, j) @ y_i @ psi
            expected = 1.0 if j == i else 0.0
            assert complex(val) == pytest.approx(expected, abs=1e-12)

    def test_equal_parity_pyp_commute(self):
        L = 5
        for j in (1, 2, 3):
            a, b = pyp_matrix(L, j), pyp_matrix(L, j + 2)
            np.testing.assert_allclose(a @ b - b @ a, 0.0, atol=1e-12)

    def test_estimator_matches_dense_operator(self):
        # protocol estimate == <psi|(PYP)_j|psi> on a generic state
        rng = np.random.default_rng(8)
        amps = rng.normal(size=2**4) + 1j * rng.normal(size=2**4)
        psi = Statevector(amps / np.linalg.norm(amps))
        for parity in ("even", "odd"):
            rotated = run_circuit(psi, y_basis_rotation(4, parity))
            counts = _exact_counts(rotated)
            est = pyp_expectation(counts, parity)
            sites = parity_sites(4, parity)
            assert est.shape == (len(sites),)
            for j, v in zip(sites, est):
                dense = np.real(
                    psi.amplitudes.conj() @ pyp_matrix(4, j) @ psi.amplitudes
                )
                assert v == pytest.approx(float(dense), abs=1e-10)

    def test_simultaneous_vs_separate_estimation(self):
        # one parity-group measurement == site-by-site rotations
        p = qmbs_params(5)
        from scarsim.model import build_trotter_step
        from scarsim.qsim import Circuit

        psi = run_circuit(
            neel_state(5), Circuit(5, build_trotter_step(p, impl="rzz").gates * 3)
        )
        rotated = run_circuit(psi, y_basis_rotation(5, "even"))
        counts = _exact_counts(rotated)
        grouped = dict(zip(parity_sites(5, "even"), pyp_expectation(counts, "even"),
                           strict=True))
        for j in (2, 4):
            single_rot = run_circuit(
                psi, Circuit_single_rotation(5, j)
            )
            counts_j = _exact_counts(single_rot)
            bits, w = _bw(counts_j)
            val = 1.0 - 2.0 * bits[:, j - 1]
            for nb in (j - 1, j + 1):
                if 1 <= nb <= 5:
                    val = val * (bits[:, nb - 1] == 0)
            assert grouped[j] == pytest.approx(float(w @ val), abs=1e-10)


def Circuit_single_rotation(L, j):
    from scarsim.qsim import Circuit, h, sdg

    return Circuit(L, [sdg(j - 1), h(j - 1)])


def _bw(counts):
    """Per-outcome bit rows (leftmost = site 1) and normalized weights."""
    L = counts.width
    idx = np.arange(2**L)
    bits = (idx[:, None] >> (L - 1 - np.arange(L))) & 1
    return bits, counts.vector / counts.vector.sum()


class TestCYBranches:
    def test_odd_source_rejected(self):
        with pytest.raises(ValueError):
            cy_branch_prep(5, 3, "M+1")

    def test_m_branches_prepare_orthogonal_y_eigenstates(self):
        L, i = 3, 2
        prep_base = run_circuit(Statevector.zero(L), neel_state_circ(L))
        states = {}
        for b in ("M+1", "M-1"):
            out = run_circuit(prep_base, cy_branch_prep(L, i, b))
            states[b] = out.amplitudes
        assert abs(np.vdot(states["M+1"], states["M-1"])) < 1e-12
        # verify the produced eigenstates of Y_i match the labels
        y_i = pauli_string("IYI")
        for b, sign in (("M+1", 1.0), ("M-1", -1.0)):
            val = states[b].conj() @ y_i @ states[b]
            assert np.real(val) == pytest.approx(sign, abs=1e-12)

    def test_branches_differ_only_on_source_qubit(self):
        # the branches share the Neel prep and the evolution; each
        # branch's own preparation layer acts on the source qubit only
        for L, i in ((4, 2), (4, 4), (5, 2), (5, 4)):
            for b in CY_BRANCHES:
                prep = cy_branch_prep(L, i, b)
                assert prep.width == L
                assert {g.qubits for g in prep.gates} == {(i - 1,)}


class TestCYAssembly:
    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_t0_value(self, L):
        p = ModelParams(V=1.0, Omega=0.24, dt=1.0, L=L)
        val = simulate_cy_noiseless(p, steps=0)[0]
        assert val.real == pytest.approx(L // 2, abs=1e-10)
        assert abs(val.imag) < 1e-10

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_protocol_matches_dense_oracle(self, L):
        # pins every sign and normalization convention of the protocol
        p = ModelParams(V=1.0, Omega=0.24, dt=1.0, L=L)
        series = simulate_cy_noiseless(p, 10)
        for steps in (1, 2, 4, 7, 10):
            assert series[steps] == pytest.approx(cy_oracle(p, steps), abs=1e-9)

    def test_protocol_matches_oracle_other_params(self):
        p = ModelParams(V=1.0, Omega=2.0, dt=0.16, L=4)
        series = simulate_cy_noiseless(p, 6)
        for steps in (3, 6):
            assert series[steps] == pytest.approx(cy_oracle(p, steps), abs=1e-9)

    @pytest.mark.parametrize("L, impl", [(2, "rzz"), (3, "two-cnot"), (5, "scaled-rzx"),
                                         (6, "rzz")])
    def test_stacked_families_equal_each_family_run_alone(self, L, impl):
        # the reference evolves every (source, branch) state in one stack
        # through noiseless plans of the step and the parity rotations;
        # run family by family through the same plans, each gives the
        # same bits, and gate by gate the same values to 1e-12
        from scarsim.model import build_trotter_step, neel_prep_circuit
        from scarsim.noise import _NoisePlan, noiseless
        from scarsim.observables import CY_BRANCHES, PARITIES, cy_branch_prep

        p = ModelParams(V=1.0, Omega=0.24, dt=1.0, L=L)
        step = build_trotter_step(p, impl=impl)
        spec = noiseless()
        plans = {"step": _NoisePlan(step, spec)}
        plans.update({parity: _NoisePlan(y_basis_rotation(L, parity), spec)
                      for parity in PARITIES})
        neel = run_circuit(Statevector.zero(L), neel_prep_circuit(L))
        # terms of each step, (step, source, branch, site)
        planned, gate_by_gate = (np.full((5, L // 2, len(CY_BRANCHES), L), np.nan)
                                 for _ in range(2))
        for si, i in enumerate(range(2, L + 1, 2)):
            for bi, b in enumerate(CY_BRANCHES):
                psi = run_circuit(neel, cy_branch_prep(L, i, b))
                row = psi.amplitudes[None].copy()
                for n in range(5):
                    if n:
                        psi = run_circuit(psi, step)
                        row = plans["step"].run_batch(row, [])[0]
                    for parity in PARITIES:
                        cols = [j - 1 for j in parity_sites(L, parity)]
                        rotated = plans[parity].run_batch(row.copy(), [])[0][0]
                        counts = _exact_counts(Statevector(rotated, check=False))
                        planned[n, si, bi, cols] = pyp_expectation(counts, parity)
                        rotated = run_circuit(psi, y_basis_rotation(L, parity))
                        counts = _exact_counts(rotated)
                        gate_by_gate[n, si, bi, cols] = pyp_expectation(counts, parity)
        assert not np.isnan(planned).any() and not np.isnan(gate_by_gate).any()
        got = simulate_cy_noiseless(p, 4, impl=impl)
        np.testing.assert_array_equal(got, [assemble_cy(v) for v in planned])
        np.testing.assert_allclose(got, [assemble_cy(v) for v in gate_by_gate],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4,), (1, 4, 4), (2, 3, 4), (3, 4, 5), (3, 2, 4, 6),
                                       (0, 4, 1)])
    def test_terms_of_a_wrong_shape_rejected(self, shape):
        # (..., L // 2 sources, 4 branches, L sites) and nothing else: a
        # missing source or branch, or a site count that does not match
        # the sources, is refused
        with pytest.raises(ValueError, match="terms must be shaped"):
            assemble_cy(np.zeros(shape))

    def test_scar_regime_oscillation_period_and_30_step_oracle(self):
        # |C_Y| oscillates near pi / (1.33 Omega) in the scar regime, and
        # the protocol tracks the dense oracle over the full 30-step window
        p = qmbs_params(5)
        series = simulate_cy_noiseless(p, 30, impl="rzz")
        for n, got in enumerate(series):
            assert got == pytest.approx(cy_oracle(p, n), abs=1e-8)
        vals = np.abs(series)
        sig = vals - np.mean(vals)
        spectrum = np.abs(np.fft.rfft(sig))
        k = 1 + int(np.argmax(spectrum[1:]))
        period = len(sig) / k
        expected = np.pi / (1.33 * 0.24)
        assert abs(period - expected) / expected < 0.15

    def test_chaotic_regime_single_revival_then_decay(self):
        # one approximate revival, then incoherent low-amplitude dynamics
        p = ExperimentConfig(sites=5, omega=2.0, dt=0.16).model_params()
        vals = np.abs(simulate_cy_noiseless(p, 30, impl="rzz"))
        times = 0.16 * np.arange(31)
        initial = vals[0]
        assert initial == pytest.approx(2.0, abs=1e-9)
        revival_window = (times > 0.5) & (times < 2.5)
        assert vals[revival_window].max() > 0.7 * initial
        late = times > 2.5
        assert vals[late].max() < 0.5 * initial

    def test_l12_scar_correlator_period(self):
        # the 12-site correlator keeps oscillating at the same period
        p = qmbs_params(12)
        vals = np.abs(simulate_cy_noiseless(p, 30, impl="rzz"))
        sig = vals - vals.mean()
        spectrum = np.abs(np.fft.rfft(sig))
        k = 1 + int(np.argmax(spectrum[1:]))
        period = len(sig) / k
        expected = np.pi / (1.33 * 0.24)
        assert abs(period - expected) / expected < 0.15

    def test_l12_oracle_matches_the_protocol(self):
        # the matrix-free oracle reaches past the old dense L <= 10 cap
        p = qmbs_params(12)
        series = simulate_cy_noiseless(p, 12, impl="rzz")
        for n in range(13):
            assert abs(series[n] - cy_oracle(p, n)) < 1e-10, n


def test_oracles_allocate_no_dense_operator():
    # at L=14 a dense 2^L x 2^L operator would take 4 GiB; the Trotter
    # step and the correlator oracle keep their traced peak within a few
    # 2^14 states (cy_oracle carries a two-row stack)
    p = qmbs_params(14)
    psi = neel_state(14).amplitudes
    state_bytes = psi.nbytes
    cy_oracle(qmbs_params(3), 1)  # imports and caches outside the traced run
    for run, states in ((lambda: trotter_step(p, psi), 6), (lambda: cy_oracle(p, 2), 12)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states * state_bytes


def neel_state_circ(L):
    from scarsim.model import neel_prep_circuit

    return neel_prep_circuit(L)
