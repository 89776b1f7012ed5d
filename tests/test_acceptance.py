"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE nn name: PASS/FAIL`` line per criterion with its runtime.
The end-to-end pipeline check (criterion 10) is marked ``slow``.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from scarsim import noise
from scarsim.experiments import ExperimentConfig, emit, reference_series, run_zpi
from scarsim.mitigation import (
    _closing,
    effective_scale,
    fold_gates_random,
    mitigate_readout,
    zne_extrapolate,
)
from scarsim.model import (
    ModelParams,
    build_trotter_step,
    fibonacci_dimension,
    fibonacci_projector,
    neel_prep_circuit,
    neel_state,
    qmbs_params,
    trotter_step,
)
from scarsim.noise import (
    ConfusionMatrix,
    NoiseSpec,
    PulseParams,
    apply_readout_error,
    run_noisy_density,
    rzz_duration,
    threshold_angle,
)
from scarsim.observables import cy_oracle, simulate_cy_noiseless
from scarsim.qsim import (
    Circuit,
    Counts,
    Statevector,
    gate_matrix,
    pauli_basis_matrices,
    run_circuit,
    rzz,
)
from scarsim.tomography import gate_ptm, spam_free_error


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_01_oracle_equivalence():
    # noiseless Trotter matches the three-layer product of the
    # matrix-free step oracle to 1e-10 in state 2-norm at every step, L <= 6
    with criterion(1, "oracle-equivalence", 10.0):
        for L in range(2, 7):
            p = qmbs_params(L)
            for impl in ("two-cnot", "scaled-rzx"):
                step = build_trotter_step(p, impl=impl)
                psi = neel_state(L)
                ref = neel_state(L).amplitudes
                for _ in range(10):
                    psi = run_circuit(psi, step)
                    ref = trotter_step(p, ref)
                    assert np.linalg.norm(psi.amplitudes - ref) < 1e-10


def test_02_scar_frequency_and_revival():
    # dominant DFT frequency of the staggered magnetization within 15% of
    # 1.33 Omega; first projected-echo revival at step 20 +- 3
    with criterion(2, "scar-frequency", 60.0):
        ref = reference_series(qmbs_params(12), 39, "rzz")
        sig = ref["zpi"] - ref["zpi"].mean()
        spectrum = np.abs(np.fft.rfft(sig))
        k = 1 + int(np.argmax(spectrum[1:]))
        omega = 2.0 * np.pi * k / len(sig)
        target = 1.33 * 0.24
        assert abs(omega - target) / target < 0.15
        window = np.arange(5, 36)
        revival = int(window[np.argmax(ref["echo0_proj"][5:36])])
        assert 17 <= revival <= 23


def test_03_fibonacci_diagnostics():
    with criterion(3, "fibonacci-diagnostics", 60.0):
        for L in range(1, 21):
            assert fibonacci_projector(L).dimension == fibonacci_dimension(L)
        ref = reference_series(qmbs_params(12), 39, "rzz")
        mean_weight = float(np.mean(ref["weight"][1:]))
        assert 0.6 <= mean_weight <= 0.9


def test_04_cy_protocol_correctness():
    # assembled correlator == dense two-time oracle (1e-8) for L in
    # {3,4,5}, steps <= 10; value at t=0 is floor(L/2); scar-regime
    # oscillation period within 15% of pi/(1.33 Omega)
    with criterion(4, "cy-protocol", 120.0):
        for L in (3, 4, 5):
            p = ModelParams(V=1.0, Omega=0.24, dt=1.0, L=L)
            series = simulate_cy_noiseless(p, 10)
            assert abs(series[0] - (L // 2)) < 1e-10
            for steps in range(0, 11):
                want = cy_oracle(p, steps)
                assert abs(series[steps] - want) < 1e-8, (L, steps)
        p5 = qmbs_params(5)
        vals = np.abs(simulate_cy_noiseless(p5, 30))
        sig = vals - vals.mean()
        spectrum = np.abs(np.fft.rfft(sig))
        k = 1 + int(np.argmax(spectrum[1:]))
        period = len(sig) / k
        expected = np.pi / (1.33 * 0.24)
        assert abs(period - expected) / expected < 0.15


def test_05_twirl_theorem():
    # averaging the coherent over-rotation channel over all 16 twirl
    # assignments yields a diagonal PTM at 1e-12; untwirled it is not
    with criterion(5, "twirl-theorem", 1.0):
        theta, delta = 2.0, 0.15
        u_gate = gate_matrix(rzz(0, 1, theta))
        noise_mat = gate_matrix(rzz(0, 1, delta))
        pre_ptm = gate_ptm(noise_mat)
        off_pre = pre_ptm - np.diag(np.diag(pre_ptm))
        assert np.max(np.abs(off_pre)) > 1e-3
        paulis = pauli_basis_matrices(1)
        avg = np.zeros((16, 16))
        for alpha in range(4):
            for beta in range(4):
                gamma, delta, sign = _closing("RZZ", alpha, beta)
                pre = np.kron(paulis[alpha], paulis[beta])
                post = np.kron(paulis[gamma], paulis[delta])
                gate_u = gate_matrix(rzz(0, 1, sign * theta))
                total = post @ noise_mat @ gate_u @ pre
                avg += gate_ptm(total)
        avg /= 16.0
        ideal_ptm = gate_ptm(u_gate)
        effective = avg @ ideal_ptm.T
        off = effective - np.diag(np.diag(effective))
        assert np.max(np.abs(off)) < 1e-12


def test_06_zne_efficacy():
    # L=4, 5 Trotter steps, depolarizing p=0.01, exact per-scale values:
    # ZNE halves the bias at every step
    with criterion(6, "zne-efficacy", 60.0):
        p_err = 0.01
        params = qmbs_params(4)
        spec = NoiseSpec(two_qubit_depolarizing=p_err)
        prep = neel_prep_circuit(4)
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
                folded = fold_gates_random(circ, lam, seed=3)
                rho = run_noisy_density(folded, spec)
                pts.append(
                    (effective_scale(circ.n_two_qubit, lam), np.trace(zpi_op @ rho).real, 0.0)
                )
            fit = zne_extrapolate(pts)
            unmitigated = pts[0][1]
            assert abs(fit.intercept - ideal_val) <= 0.5 * abs(unmitigated - ideal_val)


def _staggered_op(L):
    op = np.zeros((2**L, 2**L))
    idx = np.arange(2**L)
    for q in range(L):
        zdiag = 1.0 - 2.0 * ((idx >> (L - 1 - q)) & 1)
        op += (-1) ** (q + 1) * np.diag(zdiag)
    return op


def test_07_readout_round_trip():
    # forward confusion (eps=0.05, eta=0.03) then tensor inversion
    # recovers infinite-shot distributions at L=12 within 1e-10
    with criterion(7, "readout-round-trip", 10.0):
        L = 12
        params = qmbs_params(L)
        psi = run_circuit(
            neel_state(L), Circuit(L, build_trotter_step(params, impl="rzz").gates * 5)
        )
        ideal = Counts.from_vector(psi.probabilities() * 8192, L, 8192.0)
        m = ConfusionMatrix.from_rates(L, eps=0.05, eta=0.03)
        probs = apply_readout_error(ideal.vector / ideal.total_shots, m)
        noisy = Counts.from_vector(probs * ideal.total_shots, L, ideal.total_shots)
        recovered = mitigate_readout(noisy, m)
        diff = recovered.to_vector() - ideal.to_vector()
        assert np.max(np.abs(diff)) / ideal.total_shots < 1e-10


def test_08_spam_free_slope():
    # known per-gate infidelity 0.01 with readout error: slope within 20%;
    # noiseless gate: slope consistent with zero at 3 sigma
    with criterion(8, "spam-free-slope", 120.0):
        iota = 0.01
        spec = NoiseSpec(
            two_qubit_depolarizing=4.0 * iota / 3.0,
            readout_eps=0.02,
            readout_eta=0.015,
        )
        slope = spam_free_error(rzz(0, 1, 2.0), spec, infinite=True, repeats=2)
        assert abs(slope.epsilon - iota) / iota < 0.2
        clean = spam_free_error(
            rzz(0, 1, 2.0), noise.noiseless(), shots=1024, seed=7, repeats=4
        )
        assert abs(clean.epsilon) <= 3.0 * clean.epsilon_std


def test_09_pulse_model():
    with criterion(9, "pulse-model", 1.0):
        pp = PulseParams()
        ts = threshold_angle(pp)
        # continuity at the threshold
        below = rzz_duration(ts - 1e-12, "scaled-rzx", pp)
        above = rzz_duration(ts + 1e-12, "scaled-rzx", pp)
        assert abs(below - above) < 1e-9
        # constant below, affine above
        lo = [rzz_duration(t, "scaled-rzx", pp) for t in np.linspace(0.0, ts * 0.95, 7)]
        assert max(lo) - min(lo) < 1e-12
        hi_grid = np.linspace(ts * 1.2, 2.5, 7)
        hi = [rzz_duration(t, "scaled-rzx", pp) for t in hi_grid]
        slopes = np.diff(hi) / np.diff(hi_grid)
        assert np.ptp(slopes) < 1e-9 and slopes[0] > 0
        # two-CNOT schedule does not depend on the angle
        d2c = {rzz_duration(t, "two-cnot", pp) for t in np.linspace(0.2, 2.4, 12)}
        assert len(d2c) == 1
        # default preset: scaled realization strictly shorter on the grid
        for t in np.linspace(0.2, 2.4, 12):
            assert rzz_duration(t, "scaled-rzx", pp) < rzz_duration(t, "two-cnot", pp)


@pytest.mark.slow
def test_10_end_to_end_mitigation_benefit():
    # L=12, 39 steps, default noisy preset: the full pipeline's final
    # accumulated error beats both the unmitigated and the
    # postselection-only runs
    with criterion(10, "end-to-end-benefit", 1800.0):
        common = dict(
            sites=12,
            steps=39,
            impl="scaled-rzx",
            noise_preset="casablanca-like",
            shots=8192,
            shots_per_trajectory=2048,
            seed=202,
        )
        cfg_full = ExperimentConfig(
            twirls=10,
            zne_factors=(1.0, 1.5, 2.0),
            readout_mode="tensor",
            postselect=True,
            **common,
        )
        cfg_off = ExperimentConfig(
            twirls=1,
            zne_factors=(1.0,),
            readout_mode="off",
            postselect=False,
            **common,
        )
        cfg_ps = ExperimentConfig(
            twirls=1,
            zne_factors=(1.0,),
            readout_mode="off",
            postselect=True,
            **common,
        )
        d_full = run_zpi(cfg_full)["accumulated_error_mitigated"].values.real[-1]
        d_off = run_zpi(cfg_off)["accumulated_error_mitigated"].values.real[-1]
        d_ps = run_zpi(cfg_ps)["accumulated_error_mitigated"].values.real[-1]
        print(f"\n  D(39): full={d_full:.4f} postselect-only={d_ps:.4f} off={d_off:.4f}")
        assert d_full < d_off
        assert d_full < d_ps


def test_11_determinism(tmp_path):
    # identical config and seed emit byte-identical CSV files
    with criterion(11, "determinism", 120.0):
        base = dict(
            sites=3,
            steps=2,
            shots=256,
            twirls=2,
            zne_factors=(1.0, 2.0),
            noise_preset="casablanca-like",
            readout_mode="tensor",
            postselect=True,
            seed=5,
        )
        cfg_a = ExperimentConfig(out=str(tmp_path / "a"), **base)
        cfg_b = ExperimentConfig(out=str(tmp_path / "b"), **base)
        emit(run_zpi(cfg_a), cfg_a)
        emit(run_zpi(cfg_b), cfg_b)
        compared = 0
        for f in sorted((tmp_path / "a").iterdir()):
            if f.suffix == ".csv":
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
                compared += 1
        assert compared > 0
