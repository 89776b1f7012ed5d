"""One fresh benchmark process.

    python3 child.py MODE T0_NS WORKDIR COMMAND

MODE is ``run`` (the scarsim CLI subcommand COMMAND on
WORKDIR/config.ini), ``trace`` (the same, with tracing.py's wrappers
installed; spans go to WORKDIR/spans.json) or ``oracle`` (the CLI on a
noiseless infinite-shot config, then a comparison with the dense
oracles).  T0_NS is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start and the
imports.  The result goes to WORKDIR/result.json.
"""
import contextlib
import json
import os
import resource
import sys
import time


def _read_series(path):
    """(value_re, value_im) columns of a scarsim time-series CSV."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    return [complex(float(r[2]), float(r[3])) for r in rows]


def _oracle_error(command: str) -> float:
    """Largest deviation of the noiseless mitigated series from its oracle:
    zpi against reference_series' projected Trotter series, cy against
    the dense two-time correlator."""
    from scarsim.experiments import config_from_ini, reference_series
    from scarsim.observables import cy_oracle

    cfg = config_from_ini("config.ini")
    params = cfg.model_params()
    if command == "zpi":
        want = reference_series(params, cfg.steps, cfg.impl)["zpi_proj"] / cfg.sites
        got = _read_series("out/zpi_density_mitigated.csv")
    else:
        want = [cy_oracle(params, n) for n in range(cfg.steps + 1)]
        got = _read_series("out/cy_mitigated.csv")
    if len(got) != len(want):
        return float("inf")
    return max(abs(g - complex(w)) for g, w in zip(got, want))


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    mode, t0_ns, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import scarsim.cli

    argv = [sys.argv[4], "--config", "config.ini"]
    result = {"setup_s": (time.monotonic_ns() - t0_ns) / 1e9}
    os.chdir(workdir)
    tracer = None
    patches = contextlib.nullcontext()
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        patches = tracer.installed()
    with patches:
        start, cpu_start = time.perf_counter(), time.process_time()
        scarsim.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
    if tracer is not None:
        tracer.dump("spans.json")
    if mode == "oracle":
        result["oracle_error"] = _oracle_error(argv[0])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = _versions()
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
