"""Process tomography reconstruction and SPAM-free slope extraction."""
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from scarsim import model
from scarsim.noise import (
    ConfusionMatrix,
    NoiseSpec,
    casablanca_like,
    noiseless,
    preset,
    run_noisy_density,
)
from scarsim.qsim import (
    PAULI_1Q,
    Circuit,
    Statevector,
    cnot,
    gate_matrix,
    h,
    pauli_basis_matrices,
    rzz,
)
from scarsim.tomography import (
    FidelitySlope,
    average_gate_fidelity,
    choi_from_ptm,
    composed_noisy_ptm,
    fidelity_report,
    gate_ptm,
    qpt_reconstruct,
    realized_gate_ptms,
    spam_free_error,
)


class TestQPTReconstruct:
    def test_noiseless_fidelity_one(self):
        res = qpt_reconstruct(rzz(0, 1, 1.3), noiseless(), infinite=True)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.ptm, gate_ptm(rzz(0, 1, 1.3)), atol=1e-9)

    def test_noiseless_cnot(self):
        res = qpt_reconstruct(cnot(0, 1), noiseless(), infinite=True)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_depolarizing_analytic_fidelity(self):
        # F_avg = 1 - p (d^2 - d) / d^2 = 1 - 3p/4 for two qubits
        p = 0.02
        spec = NoiseSpec(two_qubit_depolarizing=p)
        res = qpt_reconstruct(rzz(0, 1, 2.0), spec, infinite=True)
        assert res.fidelity == pytest.approx(1.0 - 0.75 * p, abs=1e-6)

    def test_readout_error_lowers_fidelity(self):
        p = 0.01
        bare = qpt_reconstruct(
            rzz(0, 1, 2.0), NoiseSpec(two_qubit_depolarizing=p), infinite=True
        )
        spam = qpt_reconstruct(
            rzz(0, 1, 2.0),
            NoiseSpec(two_qubit_depolarizing=p, readout_eps=0.04, readout_eta=0.02),
            infinite=True,
        )
        assert spam.fidelity < bare.fidelity

    def test_finite_shots_converge(self):
        spec = NoiseSpec(two_qubit_depolarizing=0.05)
        res = qpt_reconstruct(rzz(0, 1, 1.0), spec, shots=20000, seed=5)
        assert res.fidelity == pytest.approx(1.0 - 0.75 * 0.05, abs=5e-3)

    def test_twirled_channel_reconstructs_diagonal(self):
        # a stochastic Pauli channel has a diagonal PTM: the twirl average
        # of an overrotation keeps the diagonal of its PTM
        stochastic_ptm = np.diag(np.diag(gate_ptm(rzz(0, 1, 0.15))))
        res = qpt_reconstruct(
            rzz(0, 1, 0.0), noiseless(), infinite=True, true_ptm=stochastic_ptm
        )
        off = res.ptm - np.diag(np.diag(res.ptm))
        assert np.max(np.abs(off)) < 1e-9

    def test_physical_channel_has_positive_choi(self):
        spec = NoiseSpec(two_qubit_depolarizing=0.1)
        res = qpt_reconstruct(rzz(0, 1, 0.7), spec, infinite=True)
        assert not res.negative_choi

    @pytest.mark.parametrize("infinite", [True, False])
    def test_matches_the_per_setting_loop(self, infinite):
        # the stacked reconstruction against one (preparation, setting)
        # pair at a time, with readout error and a channel whose outputs
        # are mixed and not Pauli-diagonal
        spec = preset("casablanca-like", single_qubit_depolarizing=0.004,
                      coherent_overrotation=0.07)
        r_true = realized_gate_ptms(rzz(0, 1, 1.2), spec, "scaled-rzx")[0]
        res = qpt_reconstruct(rzz(0, 1, 1.2), spec, shots=512, seed=3, infinite=infinite,
                              true_ptm=r_true)
        want = _per_setting_reconstruction(r_true, spec, 512, 3, infinite)
        np.testing.assert_allclose(res.ptm, want, rtol=0, atol=1e-12)
        if infinite:  # no shot noise: the readout error is all that is left
            assert not np.allclose(want, r_true, atol=1e-3)

    def test_single_qubit_gate_rejected(self):
        with pytest.raises(ValueError, match="two-qubit gates"):
            qpt_reconstruct(h(0), noiseless(), infinite=True)

    def test_condition_number_reported(self):
        res = qpt_reconstruct(rzz(0, 1, 0.3), noiseless(), infinite=True)
        assert np.isfinite(res.condition_number) and res.condition_number >= 1.0


class TestGatePTM:
    def test_identity(self):
        np.testing.assert_allclose(gate_ptm(np.eye(4)), np.eye(16), atol=1e-14)

    def test_z_conjugation_signs(self):
        # Z on qubit 0 flips the sign of every X and Y on that qubit
        ptm = gate_ptm(np.kron(PAULI_1Q["Z"], PAULI_1Q["I"]))
        np.testing.assert_allclose(ptm, np.diag(np.kron([1, -1, -1, 1], np.ones(4))),
                                   atol=1e-14)

    def test_hadamard_mixes_pauli_axes(self):
        # H on qubit 0 swaps X and Z there and flips Y: no diagonal PTM
        h_ptm = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]])
        ptm = gate_ptm(np.kron(gate_matrix(h(0)), PAULI_1Q["I"]))
        np.testing.assert_allclose(ptm, np.kron(h_ptm, np.eye(4)), atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_trace_loop_on_a_random_unitary(self, seed):
        # reference: R[a, b] = Re Tr[P_a U P_b U^dag] / 4 one entry at a time
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        basis = pauli_basis_matrices(2)
        want = np.array([[np.trace(pa @ u @ pb @ u.conj().T).real / 4 for pb in basis]
                         for pa in basis])
        np.testing.assert_allclose(gate_ptm(u), want, rtol=0, atol=1e-12)


def _per_setting_reconstruction(r_true, spec, shots, seed, infinite):
    """Linear-inversion PTM of the 16 x 9 tomography set, one preparation
    and setting at a time: the reference for ``qpt_reconstruct``."""
    paulis = pauli_basis_matrices(2)
    one = [np.array(v, dtype=complex) / np.linalg.norm(v)
           for v in ([1, 0], [0, 1], [1, 1], [1, 1j])]
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rot = {"X": had, "Y": had @ np.diag([1, -1j]), "Z": np.eye(2)}
    letter = {"I": 0, "X": 1, "Y": 2, "Z": 3}
    confusion = ConfusionMatrix.from_rates(2, spec.readout_eps, spec.readout_eta)
    z1, z2 = np.array([1.0, 1, -1, -1]), np.array([1.0, -1, 1, -1])
    coords_in, sums, counts = [], np.zeros((16, 16)), np.zeros((16, 16))
    for k, (a, b) in enumerate(itertools.product(one, repeat=2)):
        rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
        coords = np.array([np.trace(p @ rho).real for p in paulis])
        coords_in.append(coords)
        rho_out = sum(c * p for c, p in zip(r_true @ coords, paulis)) / 4
        for s_idx, (b1, b2) in enumerate(itertools.product("XYZ", repeat=2)):
            u = np.kron(rot[b1], rot[b2])
            probs = np.maximum(np.diag(u @ rho_out @ u.conj().T).real, 0.0)
            probs = confusion.apply_to_vector(probs / probs.sum())
            if not infinite:
                probs = np.random.default_rng([seed, k, s_idx]).multinomial(shots, probs) / shots
            for (i, j), signs in (((0, 0), 1.0), ((letter[b1], 0), z1), ((0, letter[b2]), z2),
                                  ((letter[b1], letter[b2]), z1 * z2)):
                sums[4 * i + j, k] += float(np.sum(probs * signs))
                counts[4 * i + j, k] += 1
    return (sums / counts) @ np.linalg.inv(np.array(coords_in)).T


class TestChoi:
    def test_identity_channel_choi(self):
        choi = choi_from_ptm(np.eye(16))
        eigs = np.linalg.eigvalsh(choi)
        assert eigs.min() > -1e-12
        assert np.trace(choi).real == pytest.approx(1.0)
        # maximally entangled state: rank 1
        assert np.sum(eigs > 1e-9) == 1

    def test_matches_the_kronecker_sum(self):
        # reference: C = sum_ab R[a, b] P_a (x) P_b^T / 16, term by term
        ptm = np.random.default_rng(4).normal(size=(16, 16))
        paulis = pauli_basis_matrices(2)
        want = sum(ptm[a, b] * np.kron(paulis[a], paulis[b].T)
                   for a in range(16) for b in range(16)) / 16
        np.testing.assert_allclose(choi_from_ptm(ptm), want, rtol=0, atol=1e-12)

    def test_unphysical_ptm_flagged_negative(self):
        ptm = np.diag([1.0] + [1.2] * 15)  # trace-increasing on Paulis
        eigs = np.linalg.eigvalsh(choi_from_ptm(ptm))
        assert eigs.min() < -1e-9


class TestComposedPTM:
    def test_scale_one_is_single_application(self):
        spec = NoiseSpec(two_qubit_depolarizing=0.03)
        g = rzz(0, 1, 1.1)
        np.testing.assert_allclose(
            composed_noisy_ptm(g, spec, 1), realized_gate_ptms(g, spec)[0], atol=1e-12
        )

    def test_even_scale_rejected(self):
        with pytest.raises(ValueError):
            composed_noisy_ptm(rzz(0, 1, 1.0), noiseless(), 2)

    def test_depolarizing_composition_closed_form(self):
        # depolarizing commutes with everything: residual = diag(1, q^s x15)
        p = 0.04
        spec = NoiseSpec(two_qubit_depolarizing=p)
        g = rzz(0, 1, 0.9)
        for s in (1, 3, 5):
            r = composed_noisy_ptm(g, spec, s)
            residual = r @ gate_ptm(g).T
            np.testing.assert_allclose(
                residual, np.diag([1.0] + [(1 - p) ** s] * 15), atol=1e-10
            )


class TestSpamFreeError:
    def test_noiseless_slope_consistent_with_zero(self):
        slope = spam_free_error(rzz(0, 1, 2.0), noiseless(), shots=1024, seed=3)
        assert abs(slope.epsilon) <= 3 * slope.epsilon_std + 1e-9

    def test_small_infidelity_recovered_to_1e6(self):
        # quadratic composition terms scale as ~10 iota^2: negligible here
        iota = 1e-4
        spec = NoiseSpec(two_qubit_depolarizing=4 * iota / 3)
        slope = spam_free_error(rzz(0, 1, 2.0), spec, infinite=True)
        assert slope.epsilon == pytest.approx(iota, abs=1e-6)

    def test_slope_matches_direct_composition_fit(self):
        # oracle: exact fidelities from the composed channel, same fit
        from scarsim.mitigation import zne_extrapolate

        spec = NoiseSpec(two_qubit_depolarizing=0.0133333)
        g = rzz(0, 1, 2.0)
        pts = []
        for s in (1, 3, 5):
            f = average_gate_fidelity(composed_noisy_ptm(g, spec, s), gate_matrix(g))
            pts.append((float(s), f, 0.0))
        direct = zne_extrapolate(pts)
        slope = spam_free_error(g, spec, infinite=True, repeats=1)
        assert slope.epsilon == pytest.approx(-direct.slope, abs=1e-9)

    def test_readout_shifts_intercept_not_slope(self):
        iota = 0.01
        spec = NoiseSpec(two_qubit_depolarizing=4 * iota / 3)
        spam_spec = NoiseSpec(
            two_qubit_depolarizing=4 * iota / 3, readout_eps=0.02, readout_eta=0.015
        )
        bare = spam_free_error(rzz(0, 1, 2.0), spec, infinite=True, repeats=1)
        spam = spam_free_error(rzz(0, 1, 2.0), spam_spec, infinite=True, repeats=1)
        assert spam.f0 < bare.f0
        assert abs(spam.epsilon - bare.epsilon) / bare.epsilon < 0.2

    def test_monotone_fidelity_in_lambda(self):
        spec = NoiseSpec(two_qubit_depolarizing=0.02)
        slope = spam_free_error(rzz(0, 1, 1.5), spec, infinite=True, repeats=1)
        f1 = np.mean(slope.per_lambda[1])
        f3 = np.mean(slope.per_lambda[3])
        f5 = np.mean(slope.per_lambda[5])
        assert f5 <= f3 <= f1

    def test_negative_slope_is_an_error_only_with_infinite_shots(self, monkeypatch):
        # fidelity rising with the scale factor: sampling noise at finite
        # shots, a broken channel when the PTMs are exact
        import scarsim.tomography as tomography

        monkeypatch.setattr(tomography, "composed_noisy_ptm",
                            lambda gate, spec, s, realization: np.full((1, 1), float(s)))
        monkeypatch.setattr(tomography, "qpt_reconstruct", lambda gate, spec, true_ptm, **kw:
                            SimpleNamespace(fidelity=0.9 + 0.01 * true_ptm[0, 0]))
        spec = NoiseSpec(two_qubit_depolarizing=0.05)
        sampled = spam_free_error(rzz(0, 1, 1.0), spec, repeats=2)
        assert sampled.epsilon == pytest.approx(-0.01)
        with pytest.raises(ValueError, match="significantly negative error rate"):
            spam_free_error(rzz(0, 1, 1.0), spec, repeats=2, infinite=True)

    def test_fewer_than_two_factors_rejected(self):
        with pytest.raises(ValueError):
            spam_free_error(rzz(0, 1, 1.0), noiseless(), scale_factors=(1,))

    def test_report_format(self):
        slope = FidelitySlope(
            f0=0.99, epsilon=0.002, epsilon_std=0.0001, per_lambda={1: [0.99]}
        )
        text = fidelity_report(slope)
        assert "average gate fidelity" in text
        assert "lambda=1" in text


def _entangled_states(rng, n: int) -> list[Statevector]:
    """``n`` random 2-qubit pure states, none a product state (the
    reduced state of qubit 0 is mixed), so none is in the tomography
    set."""
    states = []
    while len(states) < n:
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        m = amps.reshape(2, 2)
        if np.trace(np.linalg.matrix_power(m @ m.conj().T, 2)).real < 0.99:
            states.append(Statevector(amps))
    return states


@pytest.mark.parametrize("impl", ["two-cnot", "scaled-rzx", "rzz"])
@pytest.mark.parametrize("spec", [casablanca_like(),
                                  preset("casablanca-like", coherent_overrotation=0.07),
                                  NoiseSpec(two_qubit_depolarizing=0.05,
                                            coherent_overrotation=-0.04),
                                  preset("casablanca-like", single_qubit_depolarizing=0.004)])
@pytest.mark.parametrize("theta", [0.3, 1.2, 2.4, -0.8])
def test_compiled_realizations_match_the_density_oracle(impl, spec, theta):
    # the forward and inverse PTMs of each compilation ("rzz" is the
    # atomic gate), recovered from product inputs, carry entangled inputs
    # to the density oracle's outputs for the same gates; under a
    # single-qubit rate that includes the noise of the inner RZ and the
    # RY dressing
    paulis = pauli_basis_matrices(2)
    fwd, inv = realized_gate_ptms(rzz(0, 1, theta), spec, impl)
    rng = np.random.default_rng(17)
    for sign, ptm in ((1.0, fwd), (-1.0, inv)):
        circuit = Circuit(2, model.bond_gates(0, 1, sign * theta, impl))
        for init in _entangled_states(rng, 3):
            rho = np.outer(init.amplitudes, init.amplitudes.conj())
            coords = ptm @ [np.trace(p @ rho).real for p in paulis]
            got = sum(c * p for c, p in zip(coords, paulis)) / 4
            want = run_noisy_density(circuit, spec, initial=init)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
