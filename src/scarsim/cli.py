"""Command-line entry point for the experiment workflows.

Subcommands: zpi, cy, rzz-bench, qpt, oracle.  ``zpi`` writes the
magnetization and the return-probability (echo) files of one sweep;
``--flips`` keeps only the echo files of that flip tolerance.  Flags
override values from an optional --config INI file; omitted settings
fall back to the dataclass defaults.  Each subcommand takes only the
command-line flags and INI keys it reads: each group of flags below
names the INI keys it stands for.  A flag or INI key a subcommand does
not read (``twirls`` for ``qpt`` or ``oracle``, say), a flag value out
of range, or a config that fails validation, ends the run with exit
status 2 before anything is written.  ``cy`` has no DD: it takes
``dd = false`` in an INI file, so that one file can serve both
pipelines, and refuses ``dd = true`` at load.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields

import numpy as np

from . import experiments, noise
from .experiments import (
    _INI_FIELDS,
    INI_KEYS,
    ExperimentConfig,
    Table,
    config_from_ini,
    emit,
)
from .model import RZZ_IMPLS, exact_evolve
from .observables import series_from_values

# Each _add_*_flags adds a group of flags and returns the INI keys of the
# same settings as (section, key) pairs; a subcommand reads the union of
# its groups.


def _section(name: str) -> set:
    return {(s, k) for s, k in INI_KEYS if s == name}


def _add_output_flags(parser: argparse.ArgumentParser) -> set:
    """The flags of every subcommand: the config file and the output."""
    parser.add_argument("--config", type=str, help="INI config file mirroring the experiment settings")
    parser.add_argument("--out", type=str)
    parser.add_argument("--format", choices=experiments.FORMATS)
    return _section("output")


def _add_model_flags(parser: argparse.ArgumentParser) -> set:
    """The chain model and the bond-gate compilation."""
    parser.add_argument("--sites", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--v", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--impl", choices=RZZ_IMPLS)
    return _section("model") | {("execution", "impl")}


def _add_sampling_flags(parser: argparse.ArgumentParser) -> set:
    """The shots, the noise and the seed (noise overrides are INI keys only)."""
    parser.add_argument("--shots", type=int)
    parser.add_argument("--infinite-shots", action="store_true", default=None)
    parser.add_argument("--noise-preset", choices=noise.PRESETS)
    parser.add_argument("--seed", type=int)
    return {("execution", k) for k in ("shots", "infinite_shots", "seed")} | _section("noise")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _scale_factors(text: str) -> tuple[int, ...]:
    factors = tuple(int(x) for x in text.split(","))
    top = experiments.MAX_ZNE_FACTOR
    if len(set(factors)) < 2 or any(f < 1 or f % 2 == 0 or f > top for f in factors):
        raise argparse.ArgumentTypeError(
            f"need at least two distinct odd positive integers, at most {top:g}, got {text!r}")
    return factors


def _add_sweep_flags(parser: argparse.ArgumentParser) -> set:
    """The flags of the variant-sweep pipelines beyond the output, model
    and sampling ones: the trajectory count and the mitigation stack (DD
    is zpi's own flag)."""
    parser.add_argument("--twirls", type=int)
    parser.add_argument("--zne-factors", type=_INI_FIELDS["mitigation"]["zne_factors"],
                        help="comma-separated scale factors, e.g. 1.0,1.5,2.0")
    parser.add_argument("--no-postselect", dest="postselect", action="store_false", default=None)
    parser.add_argument("--readout-mode", choices=experiments.READOUT_MODES)
    return {("execution", "shots_per_trajectory")} | _section("mitigation")


def _config_from_args(args) -> ExperimentConfig:
    # every flag's dest is the config field it sets; an absent flag is None
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    if not args.config:
        return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})
    config = config_from_ini(args.config, args.ini_keys, **overrides)
    if args.command == "cy" and config.dd:  # cy has no --dd, so the INI set it
        raise ValueError(f"{args.config}: [mitigation] dd: cy runs without dynamical "
                         "decoupling")
    return config


def _report(paths) -> None:
    for p in paths:
        print(f"wrote {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scarsim",
        description="Trotterized spin-chain simulations with noise and error mitigation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_zpi = sub.add_parser("zpi", help="staggered magnetization and return-probability pipeline")
    p_zpi.set_defaults(ini_keys=_add_output_flags(p_zpi) | _add_model_flags(p_zpi)
                       | _add_sampling_flags(p_zpi) | _add_sweep_flags(p_zpi))
    p_zpi.add_argument("--dd", action="store_true", default=None)
    p_zpi.add_argument("--flips", type=int, choices=[0, 1], default=None,
                       help="emit only the return-probability series with this flip tolerance")

    p_cy = sub.add_parser("cy", help="unequal-time correlator pipeline")
    p_cy.set_defaults(ini_keys=_add_output_flags(p_cy) | _add_model_flags(p_cy)
                      | _add_sampling_flags(p_cy) | _add_sweep_flags(p_cy))

    p_bench = sub.add_parser("rzz-bench", help="interaction-gate benchmark table")
    p_bench.set_defaults(ini_keys=_add_output_flags(p_bench) | _add_sampling_flags(p_bench))
    p_bench.add_argument("--points", type=_positive_int, default=12)
    p_bench.add_argument("--theta-min", type=float, default=0.2)
    p_bench.add_argument("--theta-max", type=float, default=2.4)
    p_bench.add_argument("--repeats", type=_positive_int, default=4)

    p_qpt = sub.add_parser("qpt", help="process tomography of one interaction gate")
    p_qpt.set_defaults(ini_keys=_add_output_flags(p_qpt) | _add_sampling_flags(p_qpt))
    p_qpt.add_argument("--theta", type=float, default=2.0)
    p_qpt.add_argument("--scale-factors", type=_scale_factors, default="1,3,5")
    p_qpt.add_argument("--repeats", type=_positive_int, default=4)
    p_qpt.add_argument("--realization", choices=["atomic", "two-cnot", "scaled-rzx"],
                       default="atomic")

    p_or = sub.add_parser("oracle", help="dump noiseless reference series")
    p_or.set_defaults(ini_keys=_add_output_flags(p_or) | _add_model_flags(p_or))
    p_or.add_argument("--which", choices=["exact", "trotter", "projected-trotter"],
                      default="trotter")

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, configparser.Error) as exc:
        parser.error(str(exc))

    if args.command == "zpi":
        results = experiments.run_zpi(config)
        if args.flips is not None:
            other = f"loschmidt_f{1 - args.flips}_"
            results = {k: v for k, v in results.items() if not k.startswith(other)}
    elif args.command == "cy":
        results = experiments.run_cy(config)
    elif args.command == "rzz-bench":
        grid = np.linspace(args.theta_min, args.theta_max, args.points)
        results = experiments.run_rzz_bench(config, thetas=grid, repeats=args.repeats)
    elif args.command == "qpt":
        results = _run_qpt(config, args)
    else:
        results = _run_oracle(config, args.which)
    _report(emit(results, config))
    return 0


def _run_qpt(config: ExperimentConfig, args) -> dict:
    from .qsim import rzz
    from .tomography import fidelity_report, spam_free_error

    slope = spam_free_error(
        rzz(0, 1, args.theta),
        config.noise_spec(),
        scale_factors=args.scale_factors,
        repeats=args.repeats,
        shots=config.shots,
        seed=config.seed,
        infinite=config.infinite_shots,
        realization=args.realization,
    )
    print(fidelity_report(slope))
    rows = [
        (int(lam), float(f))
        for lam in sorted(slope.per_lambda)
        for f in slope.per_lambda[lam]
    ]
    fit_rows = [
        ("f0", slope.f0),
        ("epsilon", slope.epsilon),
        ("epsilon_std", slope.epsilon_std),
    ]
    return {
        "qpt_fidelities": Table(columns=["scale", "fidelity"], rows=rows),
        "qpt_fit": Table(columns=["parameter", "value"], rows=fit_rows),
    }


def _run_oracle(config: ExperimentConfig, which: str) -> dict:
    params = config.model_params()
    if which == "exact":
        ref = experiments.state_series(exact_evolve(params, config.steps))
    else:
        ref = experiments.reference_series(params, config.steps, config.impl)
    suffix = "_proj" if which == "projected-trotter" else ""
    series = {
        "zpi_density": ref[f"zpi{suffix}"] / params.L,
        "loschmidt_f0": ref[f"echo0{suffix}"],
        "loschmidt_f1": ref[f"echo1{suffix}"],
        "fibonacci_weight": ref["weight"],
    }
    if which == "exact":
        del series["loschmidt_f1"]
    tag = which.replace("-", "_")
    steps = np.arange(config.steps + 1)
    return {f"{name}_{tag}": series_from_values(steps, params.dt * params.V, values)
            for name, values in series.items()}


if __name__ == "__main__":
    sys.exit(main())
