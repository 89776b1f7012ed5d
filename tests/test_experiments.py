"""Experiment runner: config handling, pipeline, emission, CLI, determinism."""
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from scarsim import cli, experiments, mitigation, noise, tomography
from scarsim.experiments import (
    ExperimentConfig,
    config_from_ini,
    emit,
    reference_series,
    run_cy,
    run_rzz_bench,
    run_zpi,
)
from scarsim.model import (
    RZZ_IMPLS,
    ModelParams,
    build_trotter_step,
    exact_evolve,
    fibonacci_projector,
    neel_bitstring,
    neel_prep_circuit,
    neel_state,
    trotter_step,
)
from scarsim.observables import (
    Support,
    accumulated_error,
    cy_oracle,
    loschmidt_echo,
    per_site_z,
    staggered_magnetization,
)
from scarsim.noise import ConfusionMatrix
from scarsim.qsim import Circuit, Counts, run_circuit
from oracles import project, qmbs_params, zero_state


def tiny_config(**kw) -> ExperimentConfig:
    base = dict(
        sites=4,
        steps=3,
        shots=256,
        infinite_shots=True,
        twirls=2,
        zne_factors=(1.0, 1.5, 2.0),
        noise_preset="noiseless",
        readout_mode="off",
        postselect=False,
        seed=11,
        out="results",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(zne_factors=(1.5, 2.0))
        with pytest.raises(ValueError):
            ExperimentConfig(readout_mode="sometimes")
        with pytest.raises(ValueError):
            ExperimentConfig(steps=-1)

    def test_full_readout_is_refused_at_every_width(self):
        # the simulated readout is a per-qubit product, so `tensor` is the
        # one readout model and `full` is an unknown value at any width
        for sites in (2, 12, 13):
            with pytest.raises(ValueError, match="readout_mode must be one of"):
                ExperimentConfig(sites=sites, readout_mode="full")

    @pytest.mark.parametrize("kw", [{"v": -1.0}, {"dt": 0.0}])
    def test_time_axis_that_does_not_increase_fails_at_construction(self, kw):
        # before, the whole run went through and emission then failed
        with pytest.raises(ValueError, match=r"v \* dt must be positive"):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("factors", [(1.0, np.inf), (1.0, np.nan), (1.0, 1.5, np.inf),
                                         (np.nan, 1.0)])
    def test_non_finite_zne_factors_fail_at_construction(self, factors):
        # inf used to load and overflow in fold_count mid-run; NaN passed
        # the ascending check
        with pytest.raises(ValueError, match="zne_factors must be finite"):
            ExperimentConfig(zne_factors=factors)

    @pytest.mark.parametrize("factors", [(1.0, 1e308), (1.0, 1e19), (1.0, 2.0, 100.5)])
    def test_huge_zne_factors_fail_at_construction(self, factors):
        # 1e308 used to overflow the fold count and 1e19 to exhaust memory
        # mid-run; the bound itself still loads
        with pytest.raises(ValueError, match="zne_factors must be at most 100"):
            ExperimentConfig(zne_factors=factors)
        bound = (1.0, experiments.MAX_ZNE_FACTOR)
        assert ExperimentConfig(zne_factors=bound).zne_factors == bound

    def test_readout_without_an_inverse_fails_at_load_when_inverted(self, tmp_path):
        # eps + eta = 1 has no inverse, and above 1 the inverse turns the
        # read around, so tensor mode is refused at load; with
        # readout_mode = off the forward channel alone runs
        ini = tmp_path / "run.ini"
        for eps, eta in [(0.5, 0.5), (0.7, 0.6)]:
            ini.write_text(f"[noise]\noverride.readout_eps = {eps}\noverride.readout_eta = {eta}\n")
            with pytest.raises(ValueError, match="readout_eps \\+ readout_eta >= 1"):
                config_from_ini(ini)
            assert config_from_ini(ini, readout_mode="off").readout_mode == "off"

    def test_zero_v_in_ini_fails_at_load(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nv = 0\n")
        with pytest.raises(ValueError, match=r"v \* dt must be positive"):
            config_from_ini(ini)

    def test_chaotic_regime_parameters(self):
        # the chaotic chain is the same chain at Omega = 2 and dt = 0.16,
        # spelled out in the config the manifest records
        p = tiny_config(omega=2.0, dt=0.16).model_params()
        assert (p.V, p.Omega, p.dt, p.L) == (1.0, 2.0, 0.16, 4)

    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\nsites = 5\nsteps = 7\n\n[execution]\nimpl = two-cnot\n"
            "shots = 128\nseed = 3\n\n[noise]\npreset = casablanca-like\n"
            "override.readout_eps = 0.01\n\n[mitigation]\ntwirls = 4\n"
            "zne_factors = 1.0, 2.0\npostselect = false\n\n[output]\nformat = json\n"
        )
        cfg = config_from_ini(ini)
        assert cfg.sites == 5 and cfg.steps == 7
        assert cfg.impl == "two-cnot" and cfg.shots == 128
        assert cfg.noise_overrides == {"readout_eps": 0.01}
        assert cfg.zne_factors == (1.0, 2.0)
        assert not cfg.postselect and cfg.format == "json"

    def test_cli_overrides_beat_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nsites = 5\n")
        cfg = config_from_ini(ini, sites=7)
        assert cfg.sites == 7

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[mitigation]\ntwirl = 10\n", "'twirl'"),
            ("[mitigations]\ntwirls = 10\n", "[mitigations]"),
            ("[noise]\noverride.readout_epsilon = 0.1\n", "'override.readout_epsilon'"),
            ("[noise]\noverride.pulse = 1.0\n", "'override.pulse'"),
            ("[noise]\noverride.two_qubit_pauli_rates = 0.1\n",
             "'override.two_qubit_pauli_rates'"),
            ("[noise]\nreadout_eps = 0.1\n", "'readout_eps'"),
            ("[model]\nsites = 5\nseed = 3\n", "'seed' in [model]"),
        ],
    )
    def test_unknown_section_or_key_rejected(self, tmp_path, text, name):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        with pytest.raises(ValueError, match=re.escape(name)):
            config_from_ini(ini)

    def test_documented_example_loads(self, tmp_path):
        # its comments used to trail the values, which made them part of
        # the values: impl read "scaled-rzx ; two-cnot | scaled-rzx | rzz"
        doc = (Path(__file__).resolve().parent.parent / "docs" / "noise-config.md").read_text()
        ini = tmp_path / "run.ini"
        ini.write_text(re.search(r"```ini\n(.*?)```", doc, re.S).group(1))
        cfg = config_from_ini(ini)
        assert (cfg.sites, cfg.impl, cfg.shots_per_trajectory) == (12, "scaled-rzx", 1024)
        assert (cfg.readout_mode, cfg.format) == ("tensor", "csv")
        assert cfg.noise_overrides == {"readout_eps": 0.01}

    def test_values_are_literal(self, tmp_path):
        # '%' used to start an interpolation, and this line ended in
        # "'%' must be followed by '%' or '('", which named no key
        ini = tmp_path / "run.ini"
        ini.write_text("[output]\nout = run_100%\n")
        assert config_from_ini(ini).out == "run_100%"

    @pytest.mark.parametrize("text", [
        # used to load seed == 3, copied into [execution]
        "[DEFAULT]\nseed = 3\n\n[execution]\nshots = 4\n",
        # used to be refused as an unknown key 'sites' in [execution]
        "[DEFAULT]\nsites = 3\n\n[execution]\nshots = 4\n",
    ])
    def test_default_section_refused_by_name(self, tmp_path, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{ini}: unknown section [DEFAULT]")):
            config_from_ini(ini)

    def test_scalar_overrides_accepted(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[noise]\noverride.two_qubit_depolarizing = 0.02\n"
                       "override.idle_dephasing_rad_per_ns = 0.001\n")
        spec = config_from_ini(ini).noise_spec()
        assert spec.two_qubit_depolarizing == 0.02
        assert spec.idle_dephasing_rad_per_ns == 0.001

    def test_invalid_noise_override_fails_at_load(self, tmp_path):
        ini = tmp_path / "run.ini"
        for name, value in [("two_qubit_target_error", 1.0),
                            ("idle_dephasing_rad_per_ns", -0.001),
                            ("idle_stochastic_rate_per_ns", -1e-5)]:
            ini.write_text(f"[noise]\noverride.{name} = {value}\n")
            with pytest.raises(ValueError, match=name):
                config_from_ini(ini)
        with pytest.raises(ValueError, match="not scalar NoiseSpec fields"):
            ExperimentConfig(noise_overrides={"pulse": 1.0})

    @pytest.mark.parametrize("key", ["postselect", "dd"])
    def test_misspelled_boolean_fails_at_load(self, tmp_path, key):
        # any word but 1/true/yes used to read as False, so a typo in
        # `postselect = true` silently turned postselection off
        ini = tmp_path / "run.ini"
        ini.write_text(f"[mitigation]\n{key} = flase\n")
        with pytest.raises(ValueError, match=rf"\[mitigation\] {key}: not a boolean: 'flase'"):
            config_from_ini(ini)

    @pytest.mark.parametrize("word, value", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("false", False), ("NO", False)])
    def test_boolean_words(self, tmp_path, word, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[mitigation]\npostselect = {word}\ndd = {word}\n")
        cfg = config_from_ini(ini)
        assert cfg.postselect is value and cfg.dd is value

    @pytest.mark.parametrize("value", [0, -3])
    def test_invalid_shots_per_trajectory_fails_at_load(self, tmp_path, value):
        # 0 divided by zero mid-run; a negative value ran one trajectory
        ini = tmp_path / "run.ini"
        ini.write_text(f"[execution]\nshots_per_trajectory = {value}\n")
        with pytest.raises(ValueError, match="shots_per_trajectory"):
            config_from_ini(ini)


class TestNoiselessPipeline:
    def test_matches_ideal_oracle_exactly(self):
        # no noise to mitigate: pipeline output == ideal reference
        cfg = tiny_config()
        bundle = run_zpi(cfg)
        ideal = bundle["zpi_density_ideal"].values.real
        mitigated = bundle["zpi_density_mitigated"].values.real
        np.testing.assert_allclose(mitigated, ideal, atol=1e-10)

    def test_mitigation_stack_does_not_disturb_noiseless(self):
        # with zero noise the machinery must be inert: twirl+fold+readout
        # reproduce the plain oracle; adding postselection reproduces the
        # subspace-projected oracle (the projection is physics, not noise)
        cfg_stack = tiny_config(readout_mode="tensor", postselect=False, twirls=3)
        stack = run_zpi(cfg_stack)
        np.testing.assert_allclose(
            stack["zpi_density_mitigated"].values.real,
            stack["zpi_density_ideal"].values.real,
            atol=1e-9,
        )
        cfg_full = tiny_config(readout_mode="tensor", postselect=True, twirls=3)
        full = run_zpi(cfg_full)
        np.testing.assert_allclose(
            full["zpi_density_mitigated"].values.real,
            full["zpi_density_projected"].values.real,
            atol=1e-9,
        )

    def test_loschmidt_t0_is_one(self):
        cfg = tiny_config()
        bundle = run_zpi(cfg)
        assert bundle["loschmidt_f0_mitigated"].values[0].real == pytest.approx(1.0, abs=1e-10)

    def test_flip_tolerance_ordering(self):
        cfg = tiny_config(steps=5)
        bundle = run_zpi(cfg)
        f0 = bundle["loschmidt_f0_mitigated"].values.real
        f1 = bundle["loschmidt_f1_mitigated"].values.real
        assert np.all(f1 >= f0 - 1e-12)


class TestBatchArithmetic:
    def test_variant_count_matches_run_description(self):
        # 39 steps + t=0, 10 twirls, 3 scale factors -> 1200 variants
        cfg = tiny_config(sites=2, steps=39, twirls=10, shots=1)
        assert len(experiments._zpi_sweep(cfg)[4]) == 40 * 10 * 3

    def test_cy_settings_per_step(self):
        cfg = tiny_config(sites=5, steps=0, twirls=1, zne_factors=(1.0,))
        bundle = run_cy(cfg)
        # 4 branches x 2 parities x floor(L/2) sources at the single step
        assert len(bundle["variants"]) == 4 * 2 * 2


class TestNoisyPipeline:
    def test_mitigated_beats_unmitigated_at_small_scale(self):
        cfg = tiny_config(
            sites=4,
            steps=4,
            noise_preset="casablanca-like",
            noise_overrides={"two_qubit_target_error": 0.012},
            readout_mode="tensor",
            postselect=True,
            twirls=4,
            shots=4096,
            infinite_shots=False,
            seed=5,
        )
        bundle = run_zpi(cfg)
        d_mit = bundle["accumulated_error_mitigated"].values.real
        d_raw = bundle["accumulated_error_unmitigated"].values.real
        assert d_mit[-1] < d_raw[-1]

    def test_unmitigated_series_carry_the_raw_error_bars(self):
        # every unmitigated series reads its std from the twirls' spread
        # of the raw estimates, as the mitigated ones read theirs
        cfg = tiny_config(sites=4, steps=3, twirls=3, noise_preset="casablanca-like",
                          readout_mode="tensor", postselect=True, shots=512,
                          infinite_shots=False, seed=7)
        bundle = run_zpi(cfg)
        _, _, raw, raw_std, _ = experiments._zpi_sweep(cfg)
        ref = reference_series(cfg.model_params(), cfg.steps, cfg.impl)
        d_err = bundle["accumulated_error_unmitigated"].errors
        want = accumulated_error(raw[:, experiments.COL_SITES], ref["site_z"],
                                 raw_std[:, experiments.COL_SITES])[1]
        np.testing.assert_array_equal(d_err, want)
        assert np.max(d_err[1:]) > 0
        for flips in (0, 1):
            np.testing.assert_array_equal(bundle[f"loschmidt_f{flips}_unmitigated"].errors,
                                          raw_std[:, experiments.COL_ECHO[flips]])

    def test_dd_cancels_quasi_static_idle_dephasing(self):
        # idle windows carry quasi-static Z noise; the inserted echo
        # sequence removes it, so the pipeline reproduces the ideal series
        cfg = tiny_config(
            steps=3,
            dd=True,
            noise_preset="casablanca-like",
            noise_overrides={
                "two_qubit_target_error": 0.0,
                "readout_eps": 0.0,
                "readout_eta": 0.0,
                "idle_dephasing_rad_per_ns": 0.01,
            },
            twirls=1,
            zne_factors=(1.0,),
        )
        bundle = run_zpi(cfg)
        np.testing.assert_allclose(
            bundle["zpi_density_mitigated"].values.real,
            bundle["zpi_density_ideal"].values.real,
            atol=1e-9,
        )
        # non-vacuousness: the same idle-annotated circuit without the
        # echo sequence deviates from the ideal under this noise
        from scarsim import noise as noise_mod
        from scarsim.model import build_trotter_step, neel_prep_circuit
        from scarsim.noise import rzz_duration
        from scarsim.observables import staggered_magnetization
        from scarsim.qsim import Circuit

        params = cfg.model_params()
        spec = cfg.noise_spec()
        idle_ns = rzz_duration(2.0, cfg.impl, spec.pulse)
        step = build_trotter_step(params, impl=cfg.impl, idle_ns=idle_ns)
        bare = Circuit(4, neel_prep_circuit(4).gates + step.gates * 3)
        counts = noise_mod.run_noisy_counts(bare, spec, 256, [1], infinite=True)
        ideal_val = bundle["zpi_density_ideal"].values.real[3] * 4
        assert abs(staggered_magnetization(counts) - ideal_val) > 1e-4

    @pytest.mark.parametrize("sites, steps, twirls, zne_factors", [
        (4, 1, 2, (1.0, 1.5, 2.0)),
        # postselection keeps 55 of the 256 outcomes
        (8, 4, 1, (1.0,)),
    ], ids=["L4", "L8"])
    def test_loschmidt_t0_recovered_through_readout_mitigation(self, sites, steps, twirls,
                                                               zne_factors):
        # with noiseless gates only readout noise acts; tensor inversion
        # restores the ideal distribution in infinite-shot mode, so at
        # every step the postselected series are the projected references
        # and the kept weight is the ideal Fibonacci weight
        cfg = tiny_config(
            sites=sites,
            steps=steps,
            twirls=twirls,
            zne_factors=zne_factors,
            noise_preset="casablanca-like",
            noise_overrides={"two_qubit_target_error": 0.0},
            readout_mode="tensor",
            postselect=True,
            infinite_shots=True,
        )
        bundle = run_zpi(cfg)

        def values(name):
            return bundle[name].values.real

        assert values("loschmidt_f0_mitigated")[0] == pytest.approx(1.0, abs=1e-9)
        for name in ("zpi_density", "loschmidt_f0", "loschmidt_f1"):
            np.testing.assert_allclose(values(f"{name}_mitigated"), values(f"{name}_projected"),
                                       rtol=0, atol=1e-9)
        np.testing.assert_allclose(values("postselect_retained"),
                                   values("fibonacci_weight_ideal"), rtol=0, atol=1e-9)
        # the readout error is visible without mitigation
        assert np.all(np.abs(values("zpi_density_unmitigated")
                             - values("zpi_density_ideal")) > 1e-2)


    def test_singular_forward_readout_runs_without_inversion(self, tmp_path):
        # eps + eta = 1 used to fail in the forward channel, which built the
        # inverse factors with the forward ones
        cfg = tiny_config(steps=1, twirls=1, noise_preset="casablanca-like",
                          noise_overrides={"readout_eps": 0.5, "readout_eta": 0.5},
                          infinite_shots=False, shots=64, readout_mode="off")
        bundle = run_zpi(cfg)
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].values.real))

    @pytest.mark.parametrize("run", [run_zpi, run_cy])
    def test_singular_calibration_names_the_qubit_and_its_rates(self, monkeypatch, run):
        # 16 calibration shots estimate qubit 0's rates as 0.5 and 0.5, a
        # factor without an inverse; this used to end in "LinAlgError:
        # Singular matrix", which named neither the qubit nor the rates.
        # The calibration raises it, before any variant runs
        def no_sweep(*args, **kwargs):
            raise AssertionError("a variant ran")

        monkeypatch.setattr(experiments, "_sweep", no_sweep)
        cfg = ExperimentConfig(sites=3, steps=1, twirls=1, shots=16, seed=5,
                               noise_overrides={"readout_eps": 0.5, "readout_eta": 0.4})
        with pytest.raises(ValueError, match="qubit 0 has no inverse: eps = 0.5 and eta = 0.5"):
            run(cfg)

    def test_calibration_runs_one_trajectory_per_shots_per_trajectory(self, monkeypatch):
        # the all-ones calibration circuit draws single-qubit errors, so it
        # runs ceil(100 / 16) = 7 trajectories; the empty all-zeros one has
        # no stochastic noise and runs one
        real = noise._NoisePlan.run_batch
        n_trajs = []

        def run_batch(plan, amps, rngs, *rest):
            n_trajs.append(len(rngs))
            return real(plan, amps, rngs, *rest)

        monkeypatch.setattr(noise._NoisePlan, "run_batch", run_batch)
        cfg = tiny_config(noise_preset="casablanca-like", readout_mode="tensor",
                          infinite_shots=False, shots=100, shots_per_trajectory=16,
                          noise_overrides={"single_qubit_depolarizing": 0.3})
        experiments._calibrated_confusion(cfg, cfg.noise_spec())
        assert n_trajs == [1, 7]

    def test_noisy_infinite_shots_take_the_unweighted_fallback(self):
        # `scarsim zpi --sites 4 --steps 3 --twirls 3 --shots 4096 --seed 7
        # --infinite-shots` used to raise LinAlgError: identical twirls
        # left spreads of ~4e-16 that became 1/sigma^2 weights.  Every fit
        # is unweighted now; the run's mitigated series stays finite
        cfg = ExperimentConfig(sites=4, steps=3, twirls=3, shots=4096, seed=7,
                               infinite_shots=True)
        bundle = run_zpi(cfg)
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].values.real))
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].errors))

    def test_empty_postselection_drops_only_that_variant(self, monkeypatch):
        # one variant's postselection comes back empty: its step is the ZNE
        # over the other samples, the retained fraction averages every
        # scale-1 variant with the emptied one at 0, and every output
        # stays finite
        from scarsim import mitigation
        from scarsim.model import neel_bitstring
        from scarsim.observables import loschmidt_echo, per_site_z, staggered_magnetization

        cfg = tiny_config(steps=2, twirls=3, noise_preset="casablanca-like",
                          infinite_shots=False, shots=512, readout_mode="tensor",
                          postselect=True)
        n_lam, n_steps = len(cfg.zne_factors), cfg.steps + 1

        def call(step, twirl, li):  # the sweep runs twirl, then scale, then step
            return (twirl * n_lam + li) * n_steps + step

        hole = call(step=2, twirl=1, li=0)
        real = mitigation.postselect
        seen = []

        def postselect(counts):
            sel = real(counts)
            seen.append(sel)
            if len(seen) - 1 == hole:
                return mitigation.PostselectionResult(counts=sel.counts, retained_fraction=0.0,
                                                      empty=True)
            return sel

        monkeypatch.setattr(mitigation, "postselect", postselect)
        zpi = run_zpi(cfg)
        assert len(seen) == n_steps * cfg.twirls * n_lam

        L = cfg.sites
        ref = neel_bitstring(L)
        lam_effs = [v["effective_scale"] for v in zpi["variants"]
                    if v["step"] == 2 and v["twirl"] == 0]
        sites = np.array([r[3] for r in zpi["per_site_z_mitigated"].rows]).reshape(n_steps, L)

        def zne(observable, skip):  # the fit of the finite samples
            pts = [(lam, observable(seen[call(2, w, li)].counts), 0.0)
                   for li, lam in enumerate(lam_effs) for w in range(cfg.twirls)
                   if call(2, w, li) != skip]
            return mitigation.zne_extrapolate(pts).intercept

        for got, observable in [
            (zpi["zpi_density_mitigated"].values[2] * L, staggered_magnetization),
            (zpi["loschmidt_f0_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 0)),
            (zpi["loschmidt_f1_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 1)),
        ] + [(sites[2, q], lambda c, q=q: per_site_z(c)[q]) for q in range(L)]:
            assert got.real == pytest.approx(zne(observable, hole), rel=1e-12, abs=1e-15)
        kept = zne(staggered_magnetization, hole)
        assert kept != zne(staggered_magnetization, None)  # the hole changed the fit

        retained = [0.0 if call(2, w, 0) == hole else seen[call(2, w, 0)].retained_fraction
                    for w in range(cfg.twirls)]
        assert retained[1] == 0.0 < min(retained[0], retained[2])
        assert zpi["postselect_retained"].values[2] == pytest.approx(np.mean(retained),
                                                                    rel=1e-15)
        for name, obj in zpi.items():
            if name == "variants":
                continue
            cells = ([c for r in obj.rows for c in r if isinstance(c, float)]
                     if isinstance(obj, experiments.Table)
                     else list(obj.values.real) + list(obj.errors))
            assert np.all(np.isfinite(cells)), name


    def test_postselection_that_keeps_nothing_reads_zero_retained(self, monkeypatch):
        from scarsim import mitigation

        real = mitigation.postselect

        def postselect(counts):
            sel = real(counts)
            return mitigation.PostselectionResult(counts=sel.counts, retained_fraction=0.5,
                                                  empty=True)

        monkeypatch.setattr(mitigation, "postselect", postselect)
        cfg = tiny_config(steps=1, noise_preset="casablanca-like", infinite_shots=False,
                          shots=256, readout_mode="tensor", postselect=True)
        zpi = run_zpi(cfg)
        assert list(zpi["postselect_retained"].values) == [0.0, 0.0]
        assert np.all(np.isnan(zpi["zpi_density_mitigated"].values.real))


class TestCY:
    def test_noiseless_cy_matches_dense_oracle(self):
        cfg = tiny_config(sites=4, steps=3, twirls=1, zne_factors=(1.0,))
        bundle = run_cy(cfg)
        for step in range(4):
            want = cy_oracle(qmbs_params(4), step)
            got = complex(bundle["cy_mitigated"].values[step])
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("setting", [("[mitigation]\ndd = true\n", "[mitigation] dd: "),
                                         ("[execution]\ntrials = 3\n",
                                          "unknown key 'trials' in [execution]")])
    def test_cy_refuses_dd_and_trials(self, tmp_path, capsys, setting):
        # cy has no DD and no trial loop: an INI asking for either is
        # refused at load, before anything is written, naming the file,
        # the section and the key (the run used to raise a bare ValueError
        # traceback with exit 1 after loading)
        text, message = setting
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["cy", "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert f"{ini}: {message}" in capsys.readouterr().err

    def test_run_cy_refuses_dd(self, monkeypatch):
        # a library caller gets the same refusal before any calibration
        # or sweep runs
        monkeypatch.setattr(experiments, "_sweep", None)
        monkeypatch.setattr(experiments, "_calibrated_confusion", None)
        with pytest.raises(ValueError, match="needs dd=False"):
            run_cy(tiny_config(sites=4, steps=2, dd=True))

    def test_a_term_without_samples_leaves_cy_and_its_std_nan(self, monkeypatch):
        # one (step, term) row of the first family has no sample, so
        # _zne reads it NaN; C_Y at that step and its std are NaN with
        # it, not a std that counts the missing term as exact
        zne, calls = experiments._zne, []

        def blank_first(samples, lam_effs):
            if not calls:
                samples = samples.copy()
                samples[1, ..., 0] = np.nan
            calls.append(1)
            return zne(samples, lam_effs)

        monkeypatch.setattr(experiments, "_zne", blank_first)
        cy = run_cy(tiny_config(sites=4, steps=2, twirls=1, zne_factors=(1.0,)))["cy_mitigated"]
        assert np.isnan(cy.values[1]) and np.isnan(cy.errors[1])
        assert np.isfinite(cy.values[[0, 2]]).all() and np.isfinite(cy.errors[[0, 2]]).all()

    def test_cy_t0_analytic(self):
        cfg = tiny_config(sites=5, steps=0, twirls=1, zne_factors=(1.0,))
        bundle = run_cy(cfg)
        assert complex(bundle["cy_mitigated"].values[0]).real == pytest.approx(2.0, abs=1e-9)


class TestRzzBench:
    def test_table_shape_and_orderings(self):
        cfg = tiny_config(sites=2, infinite_shots=True, noise_preset="casablanca-like")
        bundle = run_rzz_bench(cfg, thetas=np.linspace(0.2, 2.4, 4), repeats=1)
        table = bundle["rzz_bench"]
        rows = table.rows
        assert len(rows) == 8
        two_cnot = [r for r in rows if r[1] == "two-cnot"]
        scaled = [r for r in rows if r[1] == "scaled-rzx"]
        durations_2c = {r[2] for r in two_cnot}
        assert len(durations_2c) == 1  # angle independent
        slopes = [r[4] for r in scaled]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))  # rises with theta
        for r2c, rsc in zip(two_cnot, scaled):
            assert rsc[4] < r2c[4]  # scaled realization wins everywhere


class TestEmission:
    def test_csv_schema_and_manifest(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "run"))
        bundle = run_zpi(cfg)
        paths = emit(bundle, cfg)
        names = {p.name for p in paths}
        assert "zpi_density_mitigated.csv" in names
        assert "manifest.json" in names
        header = (tmp_path / "run" / "zpi_density_mitigated.csv").read_text().splitlines()[0]
        assert header == "step,Vt,value_re,value_im,std"
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["sites"] == 4
        assert "zpi_density_mitigated.csv" in manifest["files"]

    def test_manifest_round_trips_to_config(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "run"))
        emit(run_zpi(cfg), cfg)
        recorded = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
        back = ExperimentConfig(**{**recorded, "zne_factors": tuple(recorded["zne_factors"])})
        assert back == cfg

    def test_json_format(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "runj"), format="json")
        emit(run_zpi(cfg), cfg)
        data = json.loads((tmp_path / "runj" / "zpi_density_ideal.json").read_text())
        assert data["columns"] == ["step", "Vt", "value_re", "value_im", "std"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config(
            out=str(tmp_path / "a"),
            noise_preset="casablanca-like",
            infinite_shots=False,
            shots=512,
            readout_mode="tensor",
            postselect=True,
        )
        _assert_reruns_identical(cfg, run_zpi)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["zpi", "cy"])
    def test_noisy_reruns_are_byte_identical_in_every_file(self, tmp_path, command, fmt):
        cfg = tiny_config(
            sites=4 if command == "zpi" else 3,
            steps=2,
            out=str(tmp_path / "run"),
            format=fmt,
            noise_preset="casablanca-like",
            noise_overrides={"idle_stochastic_rate_per_ns": 1e-4},
            infinite_shots=False,
            shots=256,
            shots_per_trajectory=64,
            readout_mode="tensor",
            postselect=command == "zpi",
            dd=command == "zpi",
        )
        _assert_reruns_identical(cfg, run_zpi if command == "zpi" else run_cy)


def _assert_reruns_identical(cfg: ExperimentConfig, run) -> None:
    """Two fresh runs emitted to the same out path write the same bytes
    to every file, the manifest included."""
    out = Path(cfg.out)
    emit(run(cfg), cfg)
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    for f in out.iterdir():
        f.unlink()
    emit(run(ExperimentConfig(**{**cfg.to_dict(), "zne_factors": cfg.zne_factors})), cfg)
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert "manifest.json" in first and "variants.jsonl" in first
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


# sha1 of every file some small noisy finite-shot runs emit, as their
# manifests list them.  A change that claims byte-identical outputs must
# keep these; one that changes outputs on purpose updates them and says why.
PINNED_RUNS = {
    "zpi": (
        dict(sites=6, steps=5, twirls=2, shots=1024, shots_per_trajectory=256,
             noise_preset="casablanca-like",
             noise_overrides={"idle_stochastic_rate_per_ns": 1e-4},
             readout_mode="tensor", postselect=True, dd=True, seed=5, format="csv"),
        {
            "accumulated_error_mitigated.csv": "6957eebb878b7e711852fe009ccba8bc1343e4d4",
            "accumulated_error_unmitigated.csv": "b33c587d516418e1d8f96858f19c10f33f5568c9",
            "fibonacci_weight_ideal.csv": "25332cfbf0609226cef37b5ecf6a5aade93accc9",
            "loschmidt_f0_ideal.csv": "2b4fd4e9365bd0621cdf47117b007091c9bafb54",
            "loschmidt_f0_mitigated.csv": "cdb95235a44141e08ca746fba90b814c90827b7c",
            "loschmidt_f0_projected.csv": "f93eb915dfef94053800abdcccbd5c927bc93240",
            "loschmidt_f0_unmitigated.csv": "c6084b0def1fc5187699155e15b7f9f9fa602c8f",
            "loschmidt_f1_ideal.csv": "8a10323bfd0180ccfce326bc0d345b9321bbd47a",
            "loschmidt_f1_mitigated.csv": "7626d3d1696b749e8e22d12fa7f1b56efdf3864b",
            "loschmidt_f1_projected.csv": "986a0520f90c48a0117b0c2f22cb09ac9fc10936",
            "loschmidt_f1_unmitigated.csv": "cb9c22b527e3179c423328a06fc515cfb13b517f",
            "per_site_z_mitigated.csv": "6922c699222687c1652d0192f8f5aed40c242268",
            "per_site_z_reference.csv": "5c20697a6ea9e5a01afe3119b792fe0253f666cc",
            "postselect_retained.csv": "095a5aa79780f281c9fea9e5d4c560991bf36ca4",
            "variants.jsonl": "996e746a278742a5ec586474355bca8f2f00e8a2",
            "zpi_density_ideal.csv": "e692677edb7e455f0eaddb31f90a2ab26e8dd527",
            "zpi_density_mitigated.csv": "6db774b8678b3b10f2d033c0a465db5699f1358e",
            "zpi_density_projected.csv": "851fc8fefb20721bff8a13d94a30ac633ff805d7",
            "zpi_density_unmitigated.csv": "1a559f3d62cfef7dfe3f98a78f268486591d55b6",
        },
    ),
    "cy": (
        dict(sites=4, steps=2, twirls=2, shots=512, shots_per_trajectory=128,
             noise_preset="casablanca-like", readout_mode="tensor", seed=9, format="json"),
        {
            "cy_abs_ideal.json": "0497f2a02ac4e3ebde26a38a01cbd7ab2fc1d607",
            "cy_abs_mitigated.json": "fa7ff2545b83a2aec0d952092781bc71693b544f",
            "cy_ideal.json": "bdc8e33cad18a361a697a69e27bd64a484539a40",
            "cy_mitigated.json": "540899b0a76b0ef6d6bf9149703e2bd416469b09",
            "variants.jsonl": "561c79b5317dc787619da3b4f60c543587965e49",
        },
    ),
    "zpi-quasi-static": (
        dict(sites=5, steps=4, twirls=2, zne_factors=(1.0, 2.0), shots=512,
             shots_per_trajectory=128, noise_preset="casablanca-like",
             noise_overrides={"idle_dephasing_rad_per_ns": 0.002,
                              "idle_stochastic_rate_per_ns": 1e-4,
                              "single_qubit_depolarizing": 0.004,
                              "coherent_overrotation": 0.05},
             readout_mode="tensor", postselect=True, dd=True, seed=11, format="csv"),
        {
            "accumulated_error_mitigated.csv": "78345265ff77c9777f2c8ed7763da3b8826c1aa2",
            "accumulated_error_unmitigated.csv": "c5c5b53cd9e145c9abe94179e2eea0a40a992e4a",
            "fibonacci_weight_ideal.csv": "ed39b1e76ea4e3878a137e1681ecd87b8a3699e5",
            "loschmidt_f0_ideal.csv": "70eecbf4a074e169bbb5b965beb84f8b6a6bdc66",
            "loschmidt_f0_mitigated.csv": "4d33e7329e5ee3eebc73a053d06307c19c65f008",
            "loschmidt_f0_projected.csv": "ebb7c4dcfd4d3451a92d46dd70c5529b2082ff38",
            "loschmidt_f0_unmitigated.csv": "f7cade7e642c15a393f74506bdf2951068093fbf",
            "loschmidt_f1_ideal.csv": "ac8518b252c773687699514dadc942c5e2ca819d",
            "loschmidt_f1_mitigated.csv": "97480b11084322d0ad0f56e9a755fa8250752755",
            "loschmidt_f1_projected.csv": "ea4dff967cecbc880fa5f5c6a41244dc3301b9bd",
            "loschmidt_f1_unmitigated.csv": "1a48de71551e15101c6d9039644cc7571dcb5725",
            "per_site_z_mitigated.csv": "41ab24ee63966dc65afebfbdb0e440e2ed8223a5",
            "per_site_z_reference.csv": "c94d5933f7b4bbc2159168ede48855927a24c623",
            "postselect_retained.csv": "328488d5803b0f37920d1efb7e203622a8878077",
            "variants.jsonl": "814722488ddc894832b191d879c3bd1837184aef",
            "zpi_density_ideal.csv": "04c14958bf52c6f1f2eb743c153640a89cbc8e4f",
            "zpi_density_mitigated.csv": "c030bc0619bab72e40b27d8567e1ea71fbf42dfa",
            "zpi_density_projected.csv": "99f3ddbac8c6bcbf93bd62376f92951750e61b74",
            "zpi_density_unmitigated.csv": "5b04c2ba8345be3f1eed5ec7fde766eddcb9cc1e",
        },
    ),
    "cy-twirled": (
        dict(sites=4, steps=3, twirls=1, zne_factors=(1.0, 2.0), shots=256,
             shots_per_trajectory=64, noise_preset="casablanca-like",
             noise_overrides={"single_qubit_depolarizing": 0.004,
                              "coherent_overrotation": 0.05},
             readout_mode="tensor", seed=11, format="json"),
        {
            "cy_abs_ideal.json": "4df7a4a512a4c2b64c33c9037832594b83820dc1",
            "cy_abs_mitigated.json": "68c15a92a9d5f459ac149bdde7a9e5b65e064676",
            "cy_ideal.json": "1a9c6451ad49b61836dc6217886b60afc6fd4c4b",
            "cy_mitigated.json": "e74cd24c7bee07d22f3e8c8cc06ec82c18a3c7e4",
            "variants.jsonl": "35ea57754cac17c224b64eb213b80aae12265bbd",
        },
    ),
    "zpi-two-cnot-twirled": (
        dict(sites=4, steps=3, twirls=2, zne_factors=(1.0, 2.0), shots=512,
             shots_per_trajectory=128, impl="two-cnot", noise_preset="casablanca-like",
             noise_overrides={"single_qubit_depolarizing": 0.004},
             readout_mode="tensor", postselect=True, seed=11, format="csv"),
        {
            "accumulated_error_mitigated.csv": "fe2a095cf530efc9e5f40019b61f0472681a1b37",
            "accumulated_error_unmitigated.csv": "887b0529003f1f91309876a993c557e3f6b3b1e7",
            "fibonacci_weight_ideal.csv": "b193707785fb38fb09a889dbe03ad0e879cf6623",
            "loschmidt_f0_ideal.csv": "0b39cb9446dd52cd96d6479904b8b04bbebf9dce",
            "loschmidt_f0_mitigated.csv": "ab5b979fe5b3bc5794529512fff3eaa3a77ffc7e",
            "loschmidt_f0_projected.csv": "a7e007661b66c0c8252c4ab05e699ebc9a66026b",
            "loschmidt_f0_unmitigated.csv": "624c64bee9dd8390307b2ad070f4d11ee637a793",
            "loschmidt_f1_ideal.csv": "59a82736243d4bed730ccd8742330315f6c193ea",
            "loschmidt_f1_mitigated.csv": "ee215935d6dbffcbacb1f07f77f841129c310d65",
            "loschmidt_f1_projected.csv": "9c74923d84b0cbe193b0f4b0fc54f975d196449b",
            "loschmidt_f1_unmitigated.csv": "ce16439a5a0babdb1b3d271dcc4ce6ede8640f4b",
            "per_site_z_mitigated.csv": "e65ca6c845d344fb3bf98e49c233948b78a97c5d",
            "per_site_z_reference.csv": "d6464b89dec4082591b7318ee6917f088e83a8e4",
            "postselect_retained.csv": "3cce1496d8e1bcbc7f43ad6c60ea68e5095b8579",
            "variants.jsonl": "6159656c1626f5776a8ed1bba29ef6647e9db98b",
            "zpi_density_ideal.csv": "e72c7004cd2bfa53e373bbe9ffa675f11d4f2db0",
            "zpi_density_mitigated.csv": "f9332802000a441029d71e9fc4d48c401222421e",
            "zpi_density_projected.csv": "ad5c04b27236f98ce6c22692528b2f47ac99beaa",
            "zpi_density_unmitigated.csv": "f3c5baa58fd145824ca5a77c2b90f90536752e82",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_emitted_files_match_pinned_digests(tmp_path, name):
    # zpi: L=6, 5 steps, so every chain restarts at step 3, with DD and
    # idle flips; cy: L=4, 2 steps, restarting at step 2, with the basis.
    # zpi-quasi-static: L=5, 4 steps (restart at step 3) with DD, drawn
    # quasi-static rates, idle flips and a visible twirl (single-qubit
    # error and overrotation); cy-twirled: L=4, 3 steps (restart at step
    # 2) with a visible twirl and basis draws; zpi-two-cnot-twirled: L=4,
    # 3 steps of the two-CNOT realization with a visible twirl, so the
    # closing pairs of twirled CNOTs reach the files
    kwargs, digests = PINNED_RUNS[name]
    cfg = ExperimentConfig(out=str(tmp_path), **kwargs)
    emit((run_zpi if name.startswith("zpi") else run_cy)(cfg), cfg)
    assert json.loads((tmp_path / "manifest.json").read_text())["files"] == digests


# sha1 of every file two small finite-shot gate benchmarks emit under the
# casablanca-like readout error: a last-bit change in a PTM can move a
# tomography shot, so these hold the PTMs' float path fixed.
PINNED_GATE_BENCHMARKS = {
    "qpt": (
        ["qpt", "--seed", "2", "--theta", "1.3", "--shots", "512", "--repeats", "2",
         "--realization", "scaled-rzx"],
        {
            "qpt_fidelities.csv": "c9977bc04bf4b407d2ea50d815f72ceb4994e1c9",
            "qpt_fit.csv": "72c3a69d610a550e89cc10b685bcf970c756aad1",
        },
    ),
    "rzz-bench": (
        ["rzz-bench", "--points", "3", "--repeats", "2", "--shots", "256", "--seed", "3"],
        {"rzz_bench.csv": "021a78d336367628759d31a515fea2a4c5099998"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_GATE_BENCHMARKS))
def test_gate_benchmark_files_match_pinned_digests(tmp_path, name, capsys):
    argv, digests = PINNED_GATE_BENCHMARKS[name]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["files"] == digests


class TestReferenceSeries:
    def test_weight_starts_at_one(self):
        ref = reference_series(qmbs_params(5), 3, "rzz")
        assert ref["weight"][0] == pytest.approx(1.0)

    def test_projected_echo_at_least_plain(self):
        ref = reference_series(qmbs_params(6), 10, "rzz")
        assert np.all(ref["echo0_proj"] >= ref["echo0"] - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 7), steps=st.integers(0, 8), impl=st.sampled_from(RZZ_IMPLS),
           V=st.floats(-3, 3), Omega=st.floats(-3, 3), dt=st.floats(0.01, 2))
    def test_planned_steps_equal_gate_by_gate_evolution(self, L, steps, impl, V, Omega, dt):
        # every step runs through one noiseless plan of the Trotter step;
        # the oracle runs the step's gates one by one with run_circuit
        params = ModelParams(V=V, Omega=Omega, dt=dt, L=L)
        step = build_trotter_step(params, impl=impl)
        states = [run_circuit(zero_state(L), neel_prep_circuit(L))]
        for _ in range(steps):
            states.append(run_circuit(states[-1], step))
        want = experiments.state_series(states)
        got = reference_series(params, steps, impl)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), outside=st.booleans())
    def test_series_equal_the_estimators_on_the_state_and_its_projection(self, L, seed,
                                                                         outside):
        # the oracle evaluates the estimators on each state and on the
        # projected, renormalized state of oracles.project; state_series
        # reads the twin from masked probabilities instead, which rounds
        # differently.  ``outside`` puts the state outside the subspace.
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(3):
            amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
            if outside:
                amps[fibonacci_projector(L)] = 0.0
            states.append(amps / np.linalg.norm(amps))
        got = experiments.state_series(states)
        ref = neel_bitstring(L)
        for n, psi in enumerate(states):
            plain = Support(slice(None), np.abs(psi) ** 2, L)
            for key, value in (("site_z", per_site_z(plain)),
                               ("zpi", staggered_magnetization(plain)),
                               ("echo0", loschmidt_echo(plain, ref, 0)),
                               ("echo1", loschmidt_echo(plain, ref, 1))):
                assert np.array_equal(got[key][n], value)  # the same arithmetic
            proj, weight = project(psi, fibonacci_projector(L))
            assert got["weight"][n] == weight
            if proj is None:
                assert np.isnan(got["site_z_proj"][n]).all() and np.isnan(got["zpi_proj"][n])
                continue
            twin = Support(slice(None), np.abs(proj) ** 2, L)
            for key, value in (("site_z", per_site_z(twin)),
                               ("zpi", staggered_magnetization(twin)),
                               ("echo0", loschmidt_echo(twin, ref, 0)),
                               ("echo1", loschmidt_echo(twin, ref, 1))):
                np.testing.assert_allclose(got[key + "_proj"][n], value, rtol=0, atol=1e-12)


class TestCLI:
    def test_singular_calibration_is_one_error_line_and_exit_1(self, tmp_path, capsys):
        # one calibration shot reads qubit 2 as 1 in the all-zeros circuit
        # (eps = 1, eta = 0): the run ends with one line and no traceback,
        # and writes nothing
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--sites", "4", "--steps", "1", "--twirls", "1", "--shots", "1",
                      "--zne-factors", "1.0", "--seed", "0", "--out", str(out)])
        assert exc.value.code == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("scarsim: error: the readout factor of qubit 2 has no inverse: "
                                "eps = 1.0 and eta = 0.0 sum to 1 or more\n")

    @pytest.mark.parametrize("seed", [339, 2520])
    def test_a_bit_swap_calibration_is_one_error_line_and_exit_1(self, tmp_path, capsys, seed):
        # one calibration shot reads a qubit flipped in both circuits (eps =
        # eta = 1): that factor is a bit swap, which has an inverse, and
        # these runs used to exit 0 with all-NaN mitigated series
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--sites", "4", "--steps", "1", "--twirls", "1", "--shots", "1",
                      "--zne-factors", "1.0", "--seed", str(seed), "--out", str(out)])
        assert exc.value.code == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"scarsim: error: the readout factor of qubit \d has no inverse: "
                            r"eps = 1\.0 and eta = 1\.0 sum to 1 or more\n", captured.err)

    def test_import_leaves_scipy_unloaded(self):
        # scipy serves only the oracles (scipy.sparse for exact evolution),
        # so starting the CLI must not pay for importing it
        code = "import sys, scarsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_zpi_smoke(self, tmp_path):
        out = tmp_path / "cli_run"
        cmd = [
            sys.executable,
            "-m",
            "scarsim.cli",
            "zpi",
            "--sites", "3", "--steps", "2", "--shots", "64",
            "--infinite-shots", "--twirls", "1",
            "--noise-preset", "noiseless", "--readout-mode", "off",
            "--no-postselect", "--seed", "1",
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "zpi_density_mitigated.csv").exists()
        assert (out / "manifest.json").exists()

    def test_oracle_smoke(self, tmp_path):
        out = tmp_path / "cli_oracle"
        cmd = [
            sys.executable, "-m", "scarsim.cli", "oracle",
            "--which", "projected-trotter",
            "--sites", "4", "--steps", "3", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "zpi_density_projected_trotter.csv").exists()

    @pytest.mark.parametrize("flag", [["--dd"], ["--trials", "3"], ["--twirls", "7"]])
    def test_oracle_rejects_flags_it_does_not_read(self, tmp_path, flag):
        # a noiseless reference dump has no DD, trials or twirls to record
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--sites", "4", "--steps", "2", "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["qpt", "rzz-bench"])
    @pytest.mark.parametrize("flag", [["--twirls", "7"], ["--dd"], ["--trials", "3"],
                                      ["--zne-factors", "1,3"], ["--readout-mode", "tensor"],
                                      ["--no-postselect"], ["--sites", "2"], ["--impl", "rzz"]])
    def test_gate_benchmarks_reject_flags_they_do_not_read(self, tmp_path, command, flag):
        # one gate's tomography has no sweep, chain model or mitigation
        # stack to set
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--infinite-shots", "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["qpt", "rzz-bench"])
    @pytest.mark.parametrize("section, line", [("mitigation", "twirls = 7"),
                                               ("mitigation", "dd = true"),
                                               ("model", "sites = 2"),
                                               ("execution", "impl = rzz")])
    def test_gate_benchmarks_reject_ini_keys_they_do_not_read(self, tmp_path, command,
                                                               section, line):
        # an INI key a gate benchmark never reads is refused at load like
        # its flag, so the manifest records no setting without effect
        sections = {"execution": ["shots = 64", "infinite_shots = true"]}
        sections.setdefault(section, []).append(line)
        ini = tmp_path / "run.ini"
        ini.write_text("".join(f"[{name}]\n" + "".join(f"{kv}\n" for kv in kvs)
                               for name, kvs in sections.items()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[model]\nsites = 5\n[model]\nsteps = 2\n",
                                      "sites = 5\n", "[model]\nsites = many\n",
                                      "[mitigation]\npostselect = flase\n",
                                      "[noise]\noverride.coherent_overrotation = nan\n"],
                             ids=["duplicate-section", "no-section", "bad-value", "bad-boolean",
                                  "non-finite-rate"])
    def test_config_that_fails_to_load_exits_with_status_2(self, tmp_path, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, line", [("model", "sites = many"),
                                               ("noise", "override.readout_eps = abc"),
                                               ("mitigation", "readout_mode = full"),
                                               ("output", "format = xml"),
                                               ("execution", "impl = cz"),
                                               ("noise", "preset = foo")],
                             ids=["sites", "override", "full-readout", "format", "impl",
                                  "preset"])
    def test_bad_ini_value_names_file_section_and_key(self, tmp_path, capsys, section, line):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{line}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        key = line.partition(" = ")[0]
        assert f"{ini}: [{section}] {key}: " in capsys.readouterr().err

    def test_unknown_noise_preset_flag_is_an_invalid_choice(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--noise-preset", "foo", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "argument --noise-preset: invalid choice: 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv", [
        *((command, argv) for command in ("zpi", "cy")
          for argv in (["--trials", "3"], ["--regime", "chaotic"], ["--zne-factors", "1.0,inf"],
                       ["--zne-factors", "1.0,nan"])),
        ("cy", ["--dd"]),
    ])
    def test_sweep_flags_out_of_the_config_are_refused(self, tmp_path, command, argv):
        # one sweep per run, the chain's omega and dt are the ones given,
        # and cy has no DD
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--sites", "3", "--steps", "1", "--twirls", "1", *argv,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["zpi", "cy"])
    @pytest.mark.parametrize("factors", ["1.0,1e308", "1.0,1e19"])
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_huge_zne_factors_exit_with_status_2_before_folding(self, tmp_path, capsys,
                                                                monkeypatch, command, factors,
                                                                source):
        def refuse(*args, **kwargs):
            raise AssertionError("folding started before the config was refused")

        monkeypatch.setattr(mitigation, "block_fold_counts", refuse)
        monkeypatch.setattr(mitigation, "fold_gates_random", refuse)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[mitigation]\nzne_factors = {factors}\n")
        given = ["--zne-factors", factors] if source == "flag" else ["--config", str(ini)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--sites", "2", "--steps", "1", "--twirls", "1", "--shots", "16",
                      *given, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "zne_factors must be at most 100" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zpi", "cy"])
    @pytest.mark.parametrize("section, line, message", [
        ("execution", "trials = 3", "unknown key 'trials' in [execution]"),
        ("execution", "regime = chaotic", "unknown key 'regime' in [execution]"),
        ("mitigation", "zne_factors = 1.0, inf", "zne_factors must be finite"),
    ])
    def test_sweep_ini_keys_out_of_the_config_are_refused(self, tmp_path, capsys, command,
                                                          section, line, message):
        # `regime = chaotic` used to run at Omega = 2, dt = 0.16 while the
        # manifest recorded the file's omega and dt
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nsites = 3\nsteps = 1\nomega = 0.7\ndt = 0.5\n"
                       f"[{section}]\n{line}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, line", [("mitigation", "twirls = 7"),
                                               ("mitigation", "dd = true"),
                                               ("execution", "shots = 5")])
    def test_oracle_rejects_ini_keys_it_does_not_read(self, tmp_path, section, line):
        # a noiseless reference dump reads the model and the output only
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nsites = 4\nsteps = 2\n[{section}]\n{line}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["zpi", "cy"])
    def test_full_readout_flag_is_refused(self, tmp_path, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--readout-mode", "full", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["qpt", "--scale-factors", "2,4"],
                                      ["qpt", "--scale-factors", "1,1"],
                                      ["qpt", "--scale-factors", "1,x"],
                                      ["qpt", "--repeats", "0"],
                                      ["rzz-bench", "--points", "-1"],
                                      ["rzz-bench", "--repeats", "0", "--points", "1"]])
    def test_gate_benchmark_values_out_of_range_exit_with_status_2(self, tmp_path, argv):
        # each used to end in a traceback with status 1 after the parse
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--infinite-shots", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("factors", ["1,101", "1,1000000001"])
    def test_huge_qpt_scale_factors_exit_with_status_2_before_any_ptm(self, tmp_path, capsys,
                                                                     monkeypatch, factors):
        # 1,1000000001 used to run 5e8 PTM products, writing nothing
        def refuse(*args, **kwargs):
            raise AssertionError("a PTM was composed before the flag was refused")

        monkeypatch.setattr(tomography, "composed_noisy_ptm", refuse)
        monkeypatch.setattr(tomography, "realized_gate_ptms", refuse)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["qpt", "--scale-factors", factors, "--infinite-shots", "--repeats", "1",
                      "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--scale-factors" in err and "at most 100" in err
        assert cli._scale_factors("1,99") == (1, 99)

    @pytest.mark.parametrize("flips", [0, 1])
    def test_zpi_flips_drops_only_the_other_tolerance(self, tmp_path, flips):
        argv = ["zpi", "--sites", "3", "--steps", "2", "--twirls", "1", "--shots", "64",
                "--seed", "1"]
        cli.main(argv + ["--out", str(tmp_path / "all")])
        cli.main(argv + ["--out", str(tmp_path / "some"), "--flips", str(flips)])
        every = {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()}
        kept = {p.name: p.read_bytes() for p in (tmp_path / "some").iterdir()}

        def echo(f):
            return {f"loschmidt_f{f}_{kind}.csv"
                    for kind in ("mitigated", "unmitigated", "ideal", "projected")}

        assert echo(0) | echo(1) | {"zpi_density_mitigated.csv", "variants.jsonl"} <= set(every)
        assert set(kept) == set(every) - echo(1 - flips)
        assert all(kept[name] == every[name] for name in kept if name != "manifest.json")
        files = json.loads(kept.pop("manifest.json"))["files"]
        assert files == {name: hashlib.sha1(data).hexdigest() for name, data in kept.items()}

    def test_loschmidt_subcommand_is_gone(self, tmp_path):
        # zpi writes the echo files from its own sweep
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["loschmidt", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_gate_benchmarks_take_the_ini_keys_they_read(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[execution]\nshots = 64\ninfinite_shots = true\nseed = 3\n"
                       "[noise]\npreset = casablanca-like\noverride.readout_eps = 0.01\n"
                       f"[output]\nout = {tmp_path / 'out'}\nformat = json\n")
        cli.main(["rzz-bench", "--config", str(ini), "--points", "2", "--repeats", "1"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["noise_overrides"] == {"readout_eps": 0.01}
        assert (tmp_path / "out" / "rzz_bench.json").exists()

    def test_rzz_bench_reports_a_negative_finite_shot_slope(self, tmp_path):
        # a sampled slope below zero used to end the run in a ValueError
        # after all its work was done
        out = tmp_path / "out"
        assert cli.main(["rzz-bench", "--shots", "256", "--points", "3", "--repeats", "1",
                         "--seed", "4", "--out", str(out)]) == 0
        rows = (out / "rzz_bench.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and min(float(r.split(",")[4]) for r in rows) < 0
        assert (out / "manifest.json").exists()

    def test_qpt_smoke(self, tmp_path):
        out = tmp_path / "cli_qpt"
        cmd = [
            sys.executable, "-m", "scarsim.cli", "qpt",
            "--theta", "2.0", "--infinite-shots", "--repeats", "1",
            "--noise-preset", "casablanca-like",
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "average gate fidelity" in proc.stdout
        assert (out / "qpt_fit.csv").exists()


def _oracle_values(amps: np.ndarray, L: int) -> dict:
    """zpi density, return probabilities (0 and 1 flips) and
    adjacent-1-free weight of one state, straight from its amplitudes."""
    idx = np.arange(2**L)
    bits = (idx[:, None] >> (L - 1 - np.arange(L))) & 1
    probs = np.abs(amps) ** 2
    signs = np.array([-1 if (i + 1) % 2 else 1 for i in range(L)])
    dist = np.sum(bits != np.array([int(b) for b in neel_bitstring(L)]), axis=1)
    return {
        "zpi_density": float(probs @ ((1 - 2 * bits) @ signs)) / L,
        "loschmidt_f0": float(probs[dist == 0].sum()),
        "loschmidt_f1": float(probs[dist <= 1].sum()),
        "fibonacci_weight": float(probs[(idx & (idx >> 1)) == 0].sum()),
    }


@pytest.mark.parametrize("which", ["exact", "trotter", "projected-trotter"])
def test_oracle_cli_files_and_values(tmp_path, which):
    L, steps = 5, 6
    cli.main(["oracle", "--which", which, "--sites", str(L), "--steps", str(steps),
              "--out", str(tmp_path)])
    params = ExperimentConfig(sites=L).model_params()
    if which == "exact":
        states = list(exact_evolve(params, steps))
    else:
        states = [neel_state(L)]
        for _ in range(steps):
            states.append(trotter_step(params, states[-1]))
    want = [_oracle_values(a, L) for a in states]
    if which == "projected-trotter":
        mask = (np.arange(2**L) & (np.arange(2**L) >> 1)) == 0
        for row, a in zip(want, states):
            kept = np.where(mask, a, 0.0)
            proj = _oracle_values(kept / np.linalg.norm(kept), L)
            row.update({k: proj[k] for k in ("zpi_density", "loschmidt_f0", "loschmidt_f1")})
    names = ["zpi_density", "loschmidt_f0", "loschmidt_f1", "fibonacci_weight"]
    tag = which.replace("-", "_")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{n}_{tag}.csv" for n in names] + ["manifest.json"])
    for name in names:
        table = np.loadtxt(tmp_path / f"{name}_{tag}.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.arange(steps + 1))
        np.testing.assert_allclose(table[:, 1], np.arange(steps + 1) * params.dt * params.V)
        np.testing.assert_allclose(table[:, 2], [row[name] for row in want], rtol=0, atol=1e-10)
        np.testing.assert_array_equal(table[:, 3:], 0.0)


def test_exact_oracle_cli_at_zero_steps_is_the_neel_row(tmp_path):
    assert cli.main(["oracle", "--which", "exact", "--sites", "6", "--steps", "0",
                     "--out", str(tmp_path)]) == 0
    # |Z2> has staggered magnetization -L, returns to itself and has no adjacent 1s
    for name, want in (("zpi_density", -1.0), ("loschmidt_f0", 1.0), ("loschmidt_f1", 1.0),
                       ("fibonacci_weight", 1.0)):
        table = np.loadtxt(tmp_path / f"{name}_exact.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape[0] == 1
        assert table[0, 2] == pytest.approx(want, abs=1e-12)


def test_exact_oracle_cli_runs_above_fourteen_sites(tmp_path):
    assert cli.main(["oracle", "--which", "exact", "--sites", "15", "--steps", "2",
                     "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "loschmidt_f0_exact.csv", delimiter=",", skiprows=1)
    assert table.shape[0] == 3 and table[0, 2] == pytest.approx(1.0, abs=1e-12)


def _exact_rows(cfg: ExperimentConfig, variants: list) -> dict:
    """(step, twirl, scale index) -> the estimate row of that variant's
    exact output distribution: its folded blocks, rebuilt from its own
    fold keys, through ``run_noisy_density``, then the spec's readout
    channel (the counts pass through it even with readout mitigation off)."""
    spec, L = cfg.noise_spec(), cfg.sites
    assert not mitigation.twirl_is_visible(spec)  # the sweep runs the folded blocks as they are
    trotter = build_trotter_step(cfg.model_params(), impl=cfg.impl)
    blocks = [neel_prep_circuit(L)] + [trotter] * cfg.steps
    n2_blocks = [b.n_two_qubit for b in blocks]
    readout = ConfusionMatrix.from_rates(L, spec.readout_eps, spec.readout_eta)
    rows, memo = {}, {}
    for v in variants:
        head, (step, w, li) = v["seed_key"][:-3], v["seed_key"][-3:]
        folds = mitigation.block_fold_counts(n2_blocks, v["scale"])
        gates = tuple(g for s in range(step + 1) for g in mitigation.fold_gates_random(
            blocks[s], v["scale"], seed=head + [s, w, li, experiments._ROLE_FOLD],
            folds=folds[s]).gates)
        if gates not in memo:  # unfolded chains share their circuit
            rho = noise.run_noisy_density(Circuit(L, list(gates)), spec)
            probs = readout.apply_to_vector(np.diag(rho).real)
            memo[gates] = experiments._estimates(Counts.from_vector(probs, L, 1.0),
                                                 neel_bitstring(L))
        rows[step, w, li] = memo[gates]
    return rows


def test_zne_and_raw_error_bars_cover_the_exact_channel_values():
    # Pulls (estimate - target) / std of the staggered magnetization, both
    # echoes and every per-site <Z>, after ZNE and raw, over 40 seeds of a
    # 4-site zpi (3 steps, 2 twirls x scales 1/1.5/2, casablanca-like,
    # no readout mitigation or postselection, 64 trajectories per chain,
    # so a variant's mean over them is not far from normal).
    # The target is what the estimate is unbiased for: the line fit
    # through the variants' exact values (ZNE over two or more distinct
    # scales), or their mean (one scale: step 0, and the raw lambda = 1
    # pool).  The std of a fit over n samples has n - 2 degrees of
    # freedom; a pooled row reports the ddof-1 spread of its n samples,
    # so its mean has std / sqrt(n) with n - 1.  A std of 0 with the
    # estimate off target (two raw samples that tie) counts as a miss.
    # Pass: nominal-95% Student-t intervals cover 0.90-0.99 of the pulls
    # and nominal-68% ones 0.62-0.74 (the narrower interval is the more
    # sensitive to a std off by a constant factor: with s^2 = RSS / n
    # instead of RSS / (n - 2) it covers 0.57), and the pulls are
    # centred: the ZNE mean, and the raw median (a two-sample pull
    # follows t(1), which has no mean), within 0.2.  Here: ZNE 0.942 and
    # 0.654 covered, mean -0.063; raw 0.936 and 0.667, median -0.059.  A
    # fit weighting each scale by 1/sigma^2, sigma from its 2 twirls,
    # covered 0.805 and 0.502 with mean -0.337 and a largest pull of 132.
    t = pytest.importorskip("scipy.stats").t
    pulls = {"zne": [], "raw": []}
    for seed in range(40):
        cfg = tiny_config(seed=seed, shots=8192, shots_per_trajectory=128,
                          noise_preset="casablanca-like", infinite_shots=False)
        mit, mit_std, raw_vals, raw_std, variants = experiments._zpi_sweep(cfg)
        exact = _exact_rows(cfg, variants)
        n_cols = cfg.sites + 3  # staggered, echoes, sites
        for step in range(cfg.steps + 1):
            at = [v for v in variants if v["step"] == step]
            lams = np.array([v["effective_scale"] for v in at])
            values = np.array([exact[step, w, li][:n_cols] for w, li in
                               (v["seed_key"][-2:] for v in at)])
            ones = np.array([exact[step, w, 0][:n_cols] for w in range(cfg.twirls)])  # lambda = 1
            if np.ptp(lams) > 0:
                design = np.column_stack([np.ones_like(lams), lams])
                target = np.linalg.lstsq(design, values, rcond=None)[0][0]
                zne = (mit[step, :n_cols], mit_std[step, :n_cols], target, len(lams) - 2)
            else:
                zne = (mit[step, :n_cols], mit_std[step, :n_cols] / np.sqrt(len(lams)),
                       values.mean(axis=0), len(lams) - 1)
            raw = (raw_vals[step, :n_cols], raw_std[step, :n_cols] / np.sqrt(len(ones)),
                   ones.mean(axis=0), len(ones) - 1)
            for name, (est, std, target, dof) in (("zne", zne), ("raw", raw)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    pull = np.where(est == target, 0.0, (est - target) / std)
                pulls[name] += [(p, dof) for p in pull]
    for name, centre in (("zne", np.mean), ("raw", np.median)):
        pull, dof = np.array(pulls[name]).T
        for level, (low, high) in ((0.95, (0.90, 0.99)), (0.68, (0.62, 0.74))):
            covered = np.mean(np.abs(pull) <= t.ppf(0.5 + level / 2, dof))
            assert low <= covered <= high, (name, level, covered)
        assert abs(centre(pull)) <= 0.2, (name, centre(pull))


@pytest.mark.parametrize("tie", [2e-10, 1e-9], ids=["singular-normal-matrix",
                                                    "indefinite-covariance"])
def test_a_refused_weighted_fit_takes_the_unweighted_fallback(tie):
    # column 1's twirls at scale 1.5 agree to `tie`, which once made a
    # 1/sigma^2 fit singular or indefinite: each column of the stacked
    # reduction is the least-squares fit of its own samples, and the
    # other column is not disturbed
    samples = np.empty((1, 3, 2, 2))
    samples[0, :, :, 0] = [[0.9, 0.92], [0.85, 0.8], [0.7, 0.75]]
    samples[0, :, :, 1] = [[-0.376, 0.0676], [0.3, 0.3 + tie], [-0.2913, 0.294]]
    lam_effs = [[1.0, 1.5, 2.0]]
    values, stds = experiments._zne(samples, lam_effs)
    for c in range(2):
        fit = mitigation.zne_extrapolate([(lam, v, 0.0) for lam, vs in zip(lam_effs[0],
                                                                          samples[0, :, :, c])
                                          for v in vs])
        assert values[0, c] == pytest.approx(fit.intercept, rel=1e-12)
        assert stds[0, c] == pytest.approx(np.sqrt(fit.covariance[0, 0]), rel=1e-12)


# Edge values of each noise override the loader accepts: 0 and the ends
# of its range (the idle rates have no upper end; 1 rad/ns scrambles
# every idle window).
_OVERRIDE_EDGES = {
    "two_qubit_depolarizing": (0.0, 1.0),
    "two_qubit_target_error": (0.0, 0.999),
    "single_qubit_depolarizing": (0.0, 1.0),
    "readout_eps": (0.0, 1.0),
    "readout_eta": (0.0, 1.0),
    "idle_dephasing_rad_per_ns": (0.0, 1.0),
    "idle_stochastic_rate_per_ns": (0.0, 1.0),
    "coherent_overrotation": (0.0, -np.pi, np.pi),
}


@st.composite
def _ini_drafts(draw):
    """(command, INI sections) of a small zpi or cy run."""
    command = draw(st.sampled_from(["zpi", "cy"]))
    names = draw(st.lists(st.sampled_from(sorted(_OVERRIDE_EDGES)), unique=True, max_size=3))
    return command, {
        "model": {"sites": draw(st.integers(2, 4)), "steps": draw(st.integers(0, 2)),
                  "v": draw(st.sampled_from([1.0, 0.5])),
                  "omega": draw(st.sampled_from([0.24, 2.0])),
                  "dt": draw(st.sampled_from([1.0, 0.16]))},
        "execution": {"impl": draw(st.sampled_from(RZZ_IMPLS)),
                      "shots": draw(st.sampled_from([1, 16, 256])),
                      "infinite_shots": draw(st.booleans()),
                      "shots_per_trajectory": draw(st.sampled_from([16, 1024])),
                      "seed": draw(st.integers(0, 3))},
        "noise": {"preset": draw(st.sampled_from(sorted(noise.PRESETS))),
                  **{f"override.{name}": draw(st.sampled_from(_OVERRIDE_EDGES[name]))
                     for name in names}},
        "mitigation": {"twirls": draw(st.integers(1, 2)),
                       "zne_factors": draw(st.sampled_from(
                           [(1.0,), (1.0, 2.0), (1.0, 1.5, 2.0), (1.0, 1.0, 3.0)])),
                       "readout_mode": draw(st.sampled_from(experiments.READOUT_MODES)),
                       "postselect": draw(st.booleans()),
                       "dd": command == "zpi" and draw(st.booleans())},
        "output": {"format": draw(st.sampled_from(experiments.FORMATS))},
    }


def _write_ini(path: Path, sections: dict) -> None:
    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ", ".join(map(repr, value))
        return repr(value) if isinstance(value, float) else str(value)

    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in keys.items())
                            for name, keys in sections.items()))


def _emitted_tables(out: Path) -> dict:
    """name -> (columns, rows of floats and strings) of every emitted table."""
    tables = {}
    for path in out.iterdir():
        if path.suffix == ".csv":
            header, *lines = path.read_text().splitlines()
            tables[path.name] = (header.split(","), [line.split(",") for line in lines])
        elif path.suffix == ".json" and path.name != "manifest.json":
            data = json.loads(path.read_text())
            tables[path.name] = (data["columns"], data["rows"])
    return tables


def _noisy_draft(command: str) -> tuple:
    """A noisy finite-shot draft of ``command`` (the two explicit reruns)."""
    return command, {
        "model": {"sites": 3, "steps": 2, "v": 1.0, "omega": 2.0, "dt": 0.16},
        "execution": {"impl": "two-cnot" if command == "zpi" else "rzz", "shots": 256,
                      "infinite_shots": False, "shots_per_trajectory": 16, "seed": 2},
        "noise": {"preset": "casablanca-like", "override.idle_stochastic_rate_per_ns": 1e-3,
                  "override.single_qubit_depolarizing": 0.01},
        "mitigation": {"twirls": 2, "zne_factors": (1.0, 1.0, 3.0), "readout_mode": "tensor",
                       "postselect": True, "dd": command == "zpi"},
        "output": {"format": "json" if command == "zpi" else "csv"},
    }


# Bound: at most 20 s on a 2-core VM (200 examples took about 5 s there).
@settings(max_examples=200, deadline=None)
@given(draft=_ini_drafts(), rerun=st.just(False))
@example(draft=_noisy_draft("zpi"), rerun=True)
@example(draft=_noisy_draft("cy"), rerun=True)
def test_every_config_the_loader_accepts_runs_as_its_manifest_records(tmp_path_factory, draft,
                                                                       rerun):
    # each draw is written as an INI file and run through the CLI in
    # process.  The loader refuses only tensor readout without an inverse
    # (eps + eta >= 1).  A run whose calibration estimates such a factor
    # (a single calibration shot reads every qubit at 0 or 1) exits 1 with
    # one error line naming the qubit and writes nothing.  Every other
    # draw exits 0, its manifest lists the files' hashes and records a
    # config that loads, equals the one the INI gives, and whose dt * v
    # steps every emitted Vt axis.  Noiseless
    # infinite-shot draws reproduce the dense references, and the two
    # explicit noisy examples rerun into the same directory byte for byte.
    command, sections = draft
    tmp = tmp_path_factory.mktemp("draw")
    ini, out = tmp / "run.ini", tmp / "out"
    _write_ini(ini, sections)
    spec = noise.preset(sections["noise"]["preset"], **{
        k[len("override."):]: v for k, v in sections["noise"].items() if k != "preset"})
    if (sections["mitigation"]["readout_mode"] == "tensor"
            and spec.readout_eps + spec.readout_eta >= 1.0 - 1e-9):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(ini), "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        event("refused: readout without an inverse")
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            assert cli.main([command, "--config", str(ini), "--out", str(out)]) == 0
    except SystemExit as exc:
        assert exc.code == 1
        assert re.fullmatch(r"scarsim: error: the readout factor of qubit \d+ has no inverse: "
                            r"eps = \S+ and eta = \S+ sum to 1 or more\n", err.getvalue())
        assert sections["mitigation"]["readout_mode"] == "tensor" and not out.exists()
        event("calibration estimated a factor without an inverse")
        return

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
                                 for p in out.iterdir() if p.name != "manifest.json"}
    recorded = ExperimentConfig(**manifest["config"])
    assert recorded == config_from_ini(ini, out=str(out))
    dt_v = recorded.dt * recorded.v
    tables = _emitted_tables(out)
    assert tables
    for name, (columns, rows) in tables.items():
        if "Vt" in columns:
            steps = np.array([float(r[columns.index("step")]) for r in rows])
            vt = np.array([float(r[columns.index("Vt")]) for r in rows])
            np.testing.assert_allclose(vt, steps * dt_v, rtol=1e-11, atol=0, err_msg=name)
    if rerun:
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        assert cli.main([command, "--config", str(ini), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    noiseless = all(not getattr(spec, f) for f in noise.SCALAR_FIELDS)
    if not (noiseless and recorded.infinite_shots):
        return
    event(f"{command} checked against its dense reference")
    params = recorded.model_params()
    if command == "zpi":
        ref = reference_series(params, recorded.steps, recorded.impl)
        want = ref["zpi_proj" if recorded.postselect else "zpi"] / recorded.sites
        name = "zpi_density_mitigated"
    else:
        want = [cy_oracle(params, n) for n in range(recorded.steps + 1)]
        name = "cy_mitigated"
    columns, rows = tables[f"{name}.{recorded.format}"]
    got = [complex(float(r[columns.index("value_re")]), float(r[columns.index("value_im")]))
           for r in rows]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
