"""Experiment runner: config handling, pipeline, emission, CLI, determinism."""
import hashlib
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim import cli, experiments, mitigation
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
    project,
    qmbs_params,
    trotter_step_matrix,
)
from scarsim.observables import (
    cy_oracle,
    loschmidt_echo,
    per_site_z,
    staggered_magnetization,
)
from scarsim.qsim import Statevector, run_circuit


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

    def test_full_readout_too_wide_fails_at_construction(self):
        # before, the reference series ran and calibration then failed
        with pytest.raises(ValueError, match="readout_mode = full needs sites <= 12"):
            ExperimentConfig(sites=13, readout_mode="full")
        assert ExperimentConfig(sites=12, readout_mode="full").sites == 12

    @pytest.mark.parametrize("kw", [{"v": -1.0}, {"dt": 0.0}])
    def test_time_axis_that_does_not_increase_fails_at_construction(self, kw):
        # before, the whole run went through and emission then failed
        with pytest.raises(ValueError, match=r"v \* dt must be positive"):
            ExperimentConfig(**kw)

    def test_zero_v_in_ini_fails_at_load(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nv = 0\n")
        with pytest.raises(ValueError, match=r"v \* dt must be positive"):
            config_from_ini(ini)

    def test_chaotic_regime_ignores_dt(self):
        # the chaotic regime fixes dt at 0.16, so dt = 0 is never read
        assert ExperimentConfig(regime="chaotic", dt=0.0).model_params().dt == 0.16

    def test_chaotic_regime_parameters(self):
        cfg = tiny_config(regime="chaotic")
        p = cfg.model_params()
        assert p.Omega == 2.0 and p.dt == pytest.approx(0.16)

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
        assert len(experiments._run_trial(cfg, 0).variants) == 40 * 10 * 3

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

    def test_loschmidt_t0_recovered_through_readout_mitigation(self):
        # at t=0 only readout noise acts; tensor inversion restores the
        # return probability to 1 in infinite-shot mode
        cfg = tiny_config(
            steps=1,
            noise_preset="casablanca-like",
            noise_overrides={"two_qubit_target_error": 0.0},
            readout_mode="tensor",
            postselect=True,
            infinite_shots=True,
        )
        bundle = run_zpi(cfg)
        assert bundle["loschmidt_f0_mitigated"].values[0].real == pytest.approx(
            1.0, abs=1e-9
        )

    def test_trials_aggregate(self):
        cfg = tiny_config(
            noise_preset="casablanca-like",
            infinite_shots=False,
            shots=512,
            trials=3,
            readout_mode="tensor",
            postselect=True,
        )
        bundle = run_zpi(cfg)
        assert len(bundle["zpi_density_mitigated"]) == cfg.steps + 1
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].errors))


    def test_noisy_infinite_shots_take_the_unweighted_fallback(self, monkeypatch):
        # `scarsim zpi --sites 4 --steps 3 --twirls 3 --shots 4096 --seed 7
        # --infinite-shots` used to raise LinAlgError: identical twirls
        # left spreads of ~4e-16 that became 1/sigma^2 weights
        from scarsim import mitigation

        fits = []
        fit = mitigation.zne_extrapolate

        def spy(points):
            result = fit(points)
            fits.append(result)
            return result

        monkeypatch.setattr(mitigation, "zne_extrapolate", spy)
        cfg = ExperimentConfig(sites=4, steps=3, twirls=3, shots=4096, seed=7,
                               infinite_shots=True)
        bundle = run_zpi(cfg)
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].values.real))
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].errors))
        assert any(s == 0.0 for res in fits for _, _, s in res.points)

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

        def zne(observable, skip):
            per_lambda = [[observable(seen[call(2, w, li)].counts) for w in range(cfg.twirls)
                           if call(2, w, li) != skip] for li in range(n_lam)]
            return experiments._zne_scalar(per_lambda, lam_effs)

        for got, observable in [
            (zpi["zpi_density_mitigated"].values[2] * L, staggered_magnetization),
            (zpi["loschmidt_f0_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 0)),
            (zpi["loschmidt_f1_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 1)),
        ] + [(sites[2, q], lambda c, q=q: per_site_z(c)[q]) for q in range(L)]:
            assert got.real == pytest.approx(zne(observable, hole)[0], rel=1e-12, abs=1e-15)
        kept, _ = zne(staggered_magnetization, hole)
        assert kept != zne(staggered_magnetization, None)[0]  # the hole changed the fit

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

    @pytest.mark.parametrize("setting", [{"dd": True}, {"trials": 3}])
    def test_cy_refuses_dd_and_trials(self, monkeypatch, setting):
        # cy has no DD or trial loop: a config asking for one is refused
        # before any calibration or sweep runs
        monkeypatch.setattr(experiments, "_sweep", None)
        monkeypatch.setattr(experiments, "_calibrated_confusion", None)
        with pytest.raises(ValueError, match="dd=False and trials=1"):
            run_cy(tiny_config(sites=4, steps=2, **setting))

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
    @pytest.mark.parametrize("command, readout_mode", [
        ("zpi", "tensor"), ("cy", "tensor"), ("zpi", "full"), ("cy", "full"),
    ], ids=["zpi", "cy", "zpi-full", "cy-full"])
    def test_noisy_reruns_are_byte_identical_in_every_file(self, tmp_path, command, readout_mode,
                                                           fmt):
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
            readout_mode=readout_mode,
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


# sha1 of every file two small noisy finite-shot runs emit, as their
# manifests list them.  A change that claims byte-identical outputs must
# keep these; one that changes outputs on purpose updates them and says why.
PINNED_RUNS = {
    "zpi": (
        dict(sites=6, steps=5, twirls=2, shots=1024, shots_per_trajectory=256,
             noise_preset="casablanca-like",
             noise_overrides={"idle_stochastic_rate_per_ns": 1e-4},
             readout_mode="tensor", postselect=True, dd=True, seed=5, format="csv"),
        {
            "accumulated_error_mitigated.csv": "85a7570771d15b2b04d92ce16cd767c87ef7463a",
            "accumulated_error_unmitigated.csv": "ab5e2d185f3e271ef40b30ae8ae51b27341660e6",
            "fibonacci_weight_ideal.csv": "25332cfbf0609226cef37b5ecf6a5aade93accc9",
            "loschmidt_f0_ideal.csv": "2b4fd4e9365bd0621cdf47117b007091c9bafb54",
            "loschmidt_f0_mitigated.csv": "7cd916869da9eb990b702d5fc8730618c7084357",
            "loschmidt_f0_projected.csv": "f93eb915dfef94053800abdcccbd5c927bc93240",
            "loschmidt_f0_unmitigated.csv": "4a5229c1aa4d556135738d858916b51d387246bc",
            "loschmidt_f1_ideal.csv": "8a10323bfd0180ccfce326bc0d345b9321bbd47a",
            "loschmidt_f1_mitigated.csv": "c65177e4df663a03deb29f82c7347941ee3c15d4",
            "loschmidt_f1_projected.csv": "986a0520f90c48a0117b0c2f22cb09ac9fc10936",
            "loschmidt_f1_unmitigated.csv": "9f72dc9f75f1dd8538a5a279791f89147ff49e03",
            "per_site_z_mitigated.csv": "b05892f5deb51271157ebdee1e90aed3319894ca",
            "per_site_z_reference.csv": "5c20697a6ea9e5a01afe3119b792fe0253f666cc",
            "postselect_retained.csv": "095a5aa79780f281c9fea9e5d4c560991bf36ca4",
            "variants.jsonl": "7ceae55d9b6a7b0f3c6aefb4c6301e50ce37b553",
            "zpi_density_ideal.csv": "e692677edb7e455f0eaddb31f90a2ab26e8dd527",
            "zpi_density_mitigated.csv": "e828439105c237d27e149de5da1c566976f325b0",
            "zpi_density_projected.csv": "851fc8fefb20721bff8a13d94a30ac633ff805d7",
            "zpi_density_unmitigated.csv": "1a559f3d62cfef7dfe3f98a78f268486591d55b6",
        },
    ),
    "cy": (
        dict(sites=4, steps=2, twirls=2, shots=512, shots_per_trajectory=128,
             noise_preset="casablanca-like", readout_mode="tensor", seed=9, format="json"),
        {
            "cy_abs_ideal.json": "0497f2a02ac4e3ebde26a38a01cbd7ab2fc1d607",
            "cy_abs_mitigated.json": "ccf65a0a6cb6b6af490b7c48d48c19fcb3ee9503",
            "cy_ideal.json": "bdc8e33cad18a361a697a69e27bd64a484539a40",
            "cy_mitigated.json": "92f4ebc4ce112a5e22b7162872f4523c7257d877",
            "variants.jsonl": "561c79b5317dc787619da3b4f60c543587965e49",
        },
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_RUNS))
def test_emitted_files_match_pinned_digests(tmp_path, command):
    # zpi: L=6, 5 steps, so every chain restarts at step 3, with DD and
    # idle flips; cy: L=4, 2 steps, restarting at step 2, with the basis
    kwargs, digests = PINNED_RUNS[command]
    cfg = ExperimentConfig(out=str(tmp_path), **kwargs)
    emit((run_zpi if command == "zpi" else run_cy)(cfg), cfg)
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
        states = [run_circuit(Statevector.zero(L), neel_prep_circuit(L))]
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
        # projected, renormalized Statevector of model.project; state_series
        # reads the twin from masked probabilities instead, which rounds
        # differently.  ``outside`` puts the state outside the subspace.
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(3):
            amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
            if outside:
                amps[fibonacci_projector(L).mask] = 0.0
            states.append(Statevector(amps / np.linalg.norm(amps)))
        got = experiments.state_series(states)
        ref = neel_bitstring(L)
        for n, psi in enumerate(states):
            for key, value in (("site_z", per_site_z(psi)), ("zpi", staggered_magnetization(psi)),
                               ("echo0", loschmidt_echo(psi, ref, 0)),
                               ("echo1", loschmidt_echo(psi, ref, 1))):
                assert np.array_equal(got[key][n], value)  # the same arithmetic
            proj, weight = project(psi, fibonacci_projector(L))
            assert got["weight"][n] == weight
            if proj is None:
                assert np.isnan(got["site_z_proj"][n]).all() and np.isnan(got["zpi_proj"][n])
                continue
            for key, value in (("site_z", per_site_z(proj)), ("zpi", staggered_magnetization(proj)),
                               ("echo0", loschmidt_echo(proj, ref, 0)),
                               ("echo1", loschmidt_echo(proj, ref, 1))):
                np.testing.assert_allclose(got[key + "_proj"][n], value, rtol=0, atol=1e-12)


class TestCLI:
    def test_import_leaves_scipy_unloaded(self):
        # scipy serves only the dense oracles and full-matrix readout, so
        # starting the CLI must not pay for importing it
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
                                      ["--zne-factors", "1,3"], ["--readout-mode", "full"],
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
                                      "[noise]\noverride.coherent_overrotation = nan\n",
                                      "[model]\nsites = 13\n[mitigation]\nreadout_mode = full\n"],
                             ids=["duplicate-section", "no-section", "bad-value", "bad-boolean",
                                  "non-finite-rate", "full-readout-too-wide"])
    def test_config_that_fails_to_load_exits_with_status_2(self, tmp_path, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["zpi", "--config", str(ini), "--out", str(out)])
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
        states = [exact_evolve(params, n * params.dt).amplitudes for n in range(steps + 1)]
    else:
        step = trotter_step_matrix(params)
        states = [neel_state(L).amplitudes]
        for _ in range(steps):
            states.append(step @ states[-1])
    want = [_oracle_values(a, L) for a in states]
    if which == "projected-trotter":
        mask = (np.arange(2**L) & (np.arange(2**L) >> 1)) == 0
        for row, a in zip(want, states):
            kept = np.where(mask, a, 0.0)
            proj = _oracle_values(kept / np.linalg.norm(kept), L)
            row.update({k: proj[k] for k in ("zpi_density", "loschmidt_f0", "loschmidt_f1")})
    names = ["zpi_density", "loschmidt_f0", "fibonacci_weight"]
    if which != "exact":
        names.append("loschmidt_f1")
    tag = which.replace("-", "_")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{n}_{tag}.csv" for n in names] + ["manifest.json"])
    for name in names:
        table = np.loadtxt(tmp_path / f"{name}_{tag}.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.arange(steps + 1))
        np.testing.assert_allclose(table[:, 1], np.arange(steps + 1) * params.dt * params.V)
        np.testing.assert_allclose(table[:, 2], [row[name] for row in want], rtol=0, atol=1e-10)
        np.testing.assert_array_equal(table[:, 3:], 0.0)


# The stacked ZNE of ``experiments._zne`` must equal the per-column
# ``_zne_scalar`` bit for bit, or near-ties in the weighted fit magnify the
# difference into the emitted files.  Its reductions (means and ddof-1
# stds over twirls or pooled samples) run along the contiguous last axis
# of a (columns, ...) array: numpy sums a contiguous axis pairwise in
# blocks of 8, as it does a 1-D array, while an axis-0 reduction adds row
# by row, so from 8 rows on the two round differently (of 1,400 random
# cases with 2 to 29 rows, 1,065 differed, none of them below 8 rows).
_LAM_PATTERNS = {1: [[1.0]], 2: [[1.0, 2.0], [1.0, 1.0]],
                 3: [[1.0, 1.5, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 1.5714285714285714,
                                                                        2.142857142857143]]}
_COLUMN_KINDS = ["plain", "tie", "near-tie", "at-floor", "above-floor", "scale-missing",
                 "one-missing", "all-missing", "huge"]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_steps=st.integers(1, 4), n_scales=st.integers(1, 3),
       n_twirls=st.integers(2, 12), n_cols=st.integers(1, 20), seed=st.integers(0, 2**16))
def test_stacked_zne_equals_the_per_column_fit(data, n_steps, n_scales, n_twirls, n_cols, seed):
    lam_effs = [data.draw(st.sampled_from(_LAM_PATTERNS[n_scales])) for _ in range(n_steps)]
    rng = np.random.default_rng(seed)
    samples = (rng.normal(size=(n_steps, n_scales, n_twirls, n_cols)) * 0.1
               + rng.normal(size=n_cols))
    floor = mitigation.SIGMA_FLOOR
    for step, c in itertools.product(range(n_steps), range(n_cols)):
        kind = data.draw(st.sampled_from(_COLUMN_KINDS))
        li = data.draw(st.integers(0, n_scales - 1))
        col = samples[step, :, :, c]  # a view: edits land in samples
        if kind == "tie":  # sigma 0 at one scale: the unweighted fallback
            col[li] = col[li, 0]
        elif kind in ("near-tie", "at-floor"):
            step_size = 1e-7 if kind == "near-tie" else floor / 2
            col[li] = col[li, 0] + step_size * np.arange(n_twirls) / n_twirls
        elif kind == "above-floor":  # every scale's twirls nearly agree
            col[:] = col[:, :1] + 4 * floor * rng.random((n_scales, n_twirls))
        elif kind == "scale-missing":  # like the retained fraction at scales other than 1
            col[li] = np.nan
        elif kind == "one-missing":  # like an emptied postselection
            col[li, data.draw(st.integers(0, n_twirls - 1))] = np.nan
        elif kind == "all-missing":
            col[:] = np.nan
        elif kind == "huge":
            col *= 1e6
    want = np.array([[experiments._zne_scalar(samples[step, :, :, c], lam_effs[step])
                      for c in range(n_cols)] for step in range(n_steps)])
    values, stds = experiments._zne(samples, lam_effs)
    np.testing.assert_array_equal(values, want[..., 0])
    np.testing.assert_array_equal(stds, want[..., 1])


@settings(max_examples=100, deadline=None)
@given(n_points=st.integers(2, 36), n_rows=st.integers(1, 20), seed=st.integers(0, 2**16))
def test_weighted_line_fits_equal_one_fit_per_row(n_points, n_rows, seed):
    # every row of the stacked fit, over shared or per-row scales, equals
    # the single fit of its points written out with 2-D arrays
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0], size=n_points))
    lams[:2] = [1.0, 3.0]
    vals = rng.normal(size=(n_rows, n_points))
    sigs = 10.0 ** rng.uniform(-4, 0, size=(n_rows, n_points))  # weight ratios to 1e8
    per_row = np.stack([rng.permutation(lams) for _ in range(n_rows)])
    for shared in (lams, per_row):
        coef, cov = mitigation.weighted_line_fits(shared, vals, sigs)
        for r in range(n_rows):
            row_lams = shared if shared.ndim == 1 else shared[r]
            design = np.column_stack([np.ones_like(row_lams), row_lams])
            w = 1.0 / sigs[r] ** 2
            xtwx = design.T @ (design * w[:, None])
            np.testing.assert_array_equal(coef[r],
                                          np.linalg.solve(xtwx, design.T @ (vals[r] * w)))
            np.testing.assert_array_equal(cov[r], np.linalg.inv(xtwx))


def test_sigma_exactly_at_the_floor_takes_the_unweighted_fit(monkeypatch):
    # a per-scale sigma equal to SIGMA_FLOOR (scale 1: every value within
    # [-1, 1]) counts as exact in the stacked reduction as in _zne_scalar
    rng = np.random.default_rng(3)
    samples = rng.uniform(-0.5, 0.5, size=(1, 3, 4, 2))
    lam_effs = [[1.0, 1.5, 2.0]]
    at = float(np.std(samples[0, 1, :, 0], ddof=1))
    monkeypatch.setattr(mitigation, "SIGMA_FLOOR", at)
    unweighted = []
    fit = mitigation.zne_extrapolate
    monkeypatch.setattr(mitigation, "zne_extrapolate",
                        lambda pts: unweighted.append(fit(pts)) or unweighted[-1])
    values, stds = experiments._zne(samples, lam_effs)
    assert len(unweighted) == 1 and any(s == 0.0 for _, _, s in unweighted[0].points)
    want = [experiments._zne_scalar(samples[0, :, :, c], lam_effs[0]) for c in range(2)]
    np.testing.assert_array_equal(values[0], [v for v, _ in want])
    np.testing.assert_array_equal(stds[0], [s for _, s in want])


@pytest.mark.parametrize("tie", [2e-10, 1e-9], ids=["singular-normal-matrix",
                                                    "indefinite-covariance"])
def test_a_refused_weighted_fit_takes_the_unweighted_fallback(tie):
    # column 1's twirls at scale 1.5 agree to `tie`, just above the floor:
    # its weighted fit is refused, so it alone takes the unweighted fit,
    # and the stacked reduction of the other column is not disturbed
    samples = np.empty((1, 3, 2, 2))
    samples[0, :, :, 0] = [[0.9, 0.92], [0.85, 0.8], [0.7, 0.75]]
    samples[0, :, :, 1] = [[-0.376, 0.0676], [0.3, 0.3 + tie], [-0.2913, 0.294]]
    lam_effs = [[1.0, 1.5, 2.0]]
    fits = []
    fit = mitigation.zne_extrapolate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mitigation, "zne_extrapolate", lambda pts: fits.append(fit(pts)) or fits[-1])
        values, stds = experiments._zne(samples, lam_effs)
    assert len(fits) == 1 and all(s == 0.0 for _, _, s in fits[0].points)
    want = [experiments._zne_scalar(samples[0, :, :, c], lam_effs[0]) for c in range(2)]
    np.testing.assert_array_equal(values[0], [v for v, _ in want])
    np.testing.assert_array_equal(stds[0], [s for _, s in want])
