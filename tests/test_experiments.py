"""Experiment runner: config handling, pipeline, emission, CLI, determinism."""
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scarsim import experiments
from scarsim.experiments import (
    ExperimentConfig,
    config_from_ini,
    emit,
    reference_series,
    run_cy,
    run_experiment,
    run_loschmidt,
    run_rzz_bench,
    run_zpi,
)
from scarsim.model import qmbs_params
from scarsim.observables import cy_oracle


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
        ini.write_text("[noise]\noverride.two_qubit_target_error = 1.0\n")
        with pytest.raises(ValueError, match="two_qubit_target_error"):
            config_from_ini(ini)
        with pytest.raises(ValueError, match="not scalar NoiseSpec fields"):
            ExperimentConfig(noise_overrides={"pulse": 1.0})

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
        res = run_experiment(cfg)
        bundle = run_zpi(cfg, res)
        ideal = bundle["zpi_density_ideal"].values.real
        mitigated = bundle["zpi_density_mitigated"].values.real
        np.testing.assert_allclose(mitigated, ideal, atol=1e-10)

    def test_mitigation_stack_does_not_disturb_noiseless(self):
        # with zero noise the machinery must be inert: twirl+fold+readout
        # reproduce the plain oracle; adding postselection reproduces the
        # subspace-projected oracle (the projection is physics, not noise)
        cfg_stack = tiny_config(readout_mode="tensor", postselect=False, twirls=3)
        stack = run_zpi(cfg_stack, run_experiment(cfg_stack))
        np.testing.assert_allclose(
            stack["zpi_density_mitigated"].values.real,
            stack["zpi_density_ideal"].values.real,
            atol=1e-9,
        )
        cfg_full = tiny_config(readout_mode="tensor", postselect=True, twirls=3)
        full = run_zpi(cfg_full, run_experiment(cfg_full))
        np.testing.assert_allclose(
            full["zpi_density_mitigated"].values.real,
            full["zpi_density_projected"].values.real,
            atol=1e-9,
        )

    def test_loschmidt_t0_is_one(self):
        cfg = tiny_config()
        bundle = run_loschmidt(cfg, run_experiment(cfg))
        assert bundle["loschmidt_f0_mitigated"].values[0].real == pytest.approx(1.0, abs=1e-10)

    def test_flip_tolerance_ordering(self):
        cfg = tiny_config(steps=5)
        bundle = run_loschmidt(cfg, run_experiment(cfg))
        f0 = bundle["loschmidt_f0_mitigated"].values.real
        f1 = bundle["loschmidt_f1_mitigated"].values.real
        assert np.all(f1 >= f0 - 1e-12)


class TestBatchArithmetic:
    def test_variant_count_matches_run_description(self):
        # 39 steps + t=0, 10 twirls, 3 scale factors -> 1200 variants
        cfg = tiny_config(sites=2, steps=39, twirls=10, shots=1)
        res = run_experiment(cfg)
        assert len(res.trials[0].variants) == 40 * 10 * 3

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
        bundle = run_loschmidt(cfg, run_experiment(cfg))
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
        bundle = run_zpi(cfg, run_experiment(cfg))
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].values.real))
        assert np.all(np.isfinite(bundle["zpi_density_mitigated"].errors))
        assert any(s == 0.0 for res in fits for _, _, s in res.points)

    def test_empty_postselection_drops_only_that_variant(self, monkeypatch):
        # one variant's postselection comes back empty: its step is the ZNE
        # over the other samples, the retained fraction averages the kept
        # variants only, and every output stays finite
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
        result = run_experiment(cfg)
        zpi, echo = run_zpi(cfg, result), run_loschmidt(cfg, result)
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
            (echo["loschmidt_f0_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 0)),
            (echo["loschmidt_f1_mitigated"].values[2], lambda c: loschmidt_echo(c, ref, 1)),
        ] + [(sites[2, q], lambda c, q=q: per_site_z(c)[q]) for q in range(L)]:
            assert got.real == pytest.approx(zne(observable, hole)[0], rel=1e-12, abs=1e-15)
        kept, _ = zne(staggered_magnetization, hole)
        assert kept != zne(staggered_magnetization, None)[0]  # the hole changed the fit

        retained = [seen[call(2, w, 0)].retained_fraction for w in (0, 2)]
        assert zpi["postselect_retained"].values[2] == pytest.approx(np.mean(retained),
                                                                    rel=1e-15)
        for name, obj in {**zpi, **echo}.items():
            if name == "variants":
                continue
            cells = ([c for r in obj.rows for c in r if isinstance(c, float)]
                     if isinstance(obj, experiments.Table)
                     else list(obj.values.real) + list(obj.errors))
            assert np.all(np.isfinite(cells)), name


class TestCY:
    def test_noiseless_cy_matches_dense_oracle(self):
        cfg = tiny_config(sites=4, steps=3, twirls=1, zne_factors=(1.0,))
        bundle = run_cy(cfg)
        for step in range(4):
            want = cy_oracle(qmbs_params(4), step)
            got = complex(bundle["cy_mitigated"].values[step])
            assert got == pytest.approx(want, abs=1e-8)

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
        bundle = run_zpi(cfg, run_experiment(cfg))
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
        emit(run_zpi(cfg, run_experiment(cfg)), cfg)
        recorded = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
        back = ExperimentConfig(**{**recorded, "zne_factors": tuple(recorded["zne_factors"])})
        assert back == cfg

    def test_json_format(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "runj"), format="json")
        emit(run_zpi(cfg, run_experiment(cfg)), cfg)
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


class TestReferenceSeries:
    def test_weight_starts_at_one(self):
        ref = reference_series(qmbs_params(5), 3, "rzz")
        assert ref["weight"][0] == pytest.approx(1.0)

    def test_projected_echo_at_least_plain(self):
        ref = reference_series(qmbs_params(6), 10, "rzz")
        assert np.all(ref["echo0_proj"] >= ref["echo0"] - 1e-12)


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

    def test_qpt_smoke(self, tmp_path):
        out = tmp_path / "cli_qpt"
        cmd = [
            sys.executable, "-m", "scarsim.cli", "qpt",
            "--theta", "2.0", "--infinite-shots", "--repeats", "1",
            "--noise-preset", "casablanca-like",
            "--out", str(out), "--sites", "2",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "average gate fidelity" in proc.stdout
        assert (out / "qpt_fit.csv").exists()
