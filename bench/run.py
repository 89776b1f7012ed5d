"""scarsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each timed run is the scarsim CLI on a generated config in a
fresh process (closed loop, one client: the next run starts when the
previous one has finished).  With ``--trace 0`` the runs repeat for
``--seconds`` and the end-to-end metrics are medians over them; with
``--trace 1`` one untraced and two traced runs give the per-layer
metrics, the tracing overhead and a check that the deterministic counts
repeat.  Every run's output is checked, and a noiseless infinite-shot
twin of the workload is checked against the dense oracles outside the
timed region.  The last line of stdout is the JSON result.  README.md
beside this file explains the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import DETERMINISTIC, metric_units, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

ORACLE_TOL = 1e-10
CHILD_TIMEOUT_S = 170
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "variants_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def spawn(mode: str, workdir: Path, config: str, command: str) -> dict:
    """Start one child process and return its result record."""
    workdir.mkdir(parents=True)
    (workdir / "config.ini").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(time.monotonic_ns()), str(workdir),
            command]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise RunFailed(f"{mode} process exited {proc.returncode}: {tail[0]}")
    return json.loads((workdir / "result.json").read_text())


def check_output(out: Path, expected_variants: int) -> None:
    """The run wrote exactly the files its manifest lists, with the listed
    hashes, and completed the expected number of variants."""
    manifest = json.loads((out / "manifest.json").read_text())
    files = manifest["files"]
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    if present != set(files):
        raise RunFailed(f"output files {sorted(present)} differ from manifest {sorted(files)}")
    for name, digest in files.items():
        if hashlib.sha1((out / name).read_bytes()).hexdigest() != digest:
            raise RunFailed(f"{name} does not match its manifest hash")
    variants = len((out / "variants.jsonl").read_text().splitlines())
    if variants != expected_variants:
        raise RunFailed(f"{variants} variants, expected {expected_variants}")


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def environment(workload, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None
    if (ROOT / ".git").exists():  # a plain source tree has no SHA to report
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha1": src.hexdigest(),
        "blas_pin": BLAS_PIN,
    }


class Bench:
    def __init__(self, workload, seed: int, rundir: Path):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.attempted = 0
        self.failures: dict[str, str] = {}  # failed attempt -> reason
        self.versions: dict = {}
        self.oracle_error = None
        self.samples: dict = {}

    def attempt(self, mode: str, name: str, twin: bool = False) -> dict | None:
        """One checked run; a failure is counted, never skipped."""
        self.attempted += 1
        workdir = self.rundir / name
        try:
            result = spawn(mode, workdir, self.workload.ini(self.seed, twin),
                           self.workload.command)
            check_output(workdir / "out", self.workload.variants())
            if mode == "oracle":
                self.oracle_error = result["oracle_error"]
                if not self.oracle_error <= ORACLE_TOL:
                    raise RunFailed(f"oracle error {self.oracle_error:.3e} > {ORACLE_TOL:g}")
        except (RunFailed, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            self.fail(name, str(exc))
            return None
        self.versions = result["versions"]
        return result

    def fail(self, name: str, reason: str) -> None:
        self.failures[name] = "; ".join(filter(None, [self.failures.get(name), reason]))

    def timed(self, seconds: float) -> list[dict]:
        """Runs until the next one would end past ``seconds``; at least one."""
        runs = []
        deadline = time.monotonic() + seconds
        longest = 0.0
        for i in itertools.count():
            began = time.monotonic()
            result = self.attempt("run", f"run{i}")
            shutil.rmtree(self.rundir / f"run{i}", ignore_errors=True)
            if result is not None:
                runs.append(result)
            longest = max(longest, time.monotonic() - began)
            if time.monotonic() + longest > deadline:
                return runs

    def oracle(self) -> None:
        self.attempt("oracle", "oracle", twin=True)


def end_to_end(bench: Bench, seconds: float) -> dict:
    runs = bench.timed(seconds)
    walls = [r["wall_s"] for r in runs]
    bench.samples = {"runs": [
        {k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for r in runs]}
    bench.oracle()
    if not runs:
        return {}
    print(f"{len(walls)} timed processes: wall_s fastest {min(walls):.4g} s, "
          f"median {statistics.median(walls):.4g} s, slowest {max(walls):.4g} s")
    return {
        "wall_s": statistics.median(walls),
        "variants_per_s": statistics.median(bench.workload.variants() / w for w in walls),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(bench: Bench) -> dict:
    plain = bench.attempt("run", "plain")
    traced = [bench.attempt("trace", name) for name in ("traced", "retraced")]
    bench.oracle()
    if plain is None or None in traced:
        return {}
    for name in ("traced", "retraced"):
        if not same_files(bench.rundir / "plain" / "out", bench.rundir / name / "out"):
            bench.fail(name, "output differs from the untraced output")
    dumps = [json.loads((bench.rundir / name / "spans.json").read_text())
             for name in ("traced", "retraced")]
    for name in dumps[0]["missing"]:
        print(f"trace: {name} not found; what it measures reads 0", file=sys.stderr)
    metrics, again = (summarize(dump) for dump in dumps)
    changed = [k for k in DETERMINISTIC if metrics[k] != again[k]]
    if changed:
        bench.fail("retraced", f"deterministic counts differ between traced processes: "
                               f"{', '.join(changed)}")
    metrics["trace.overhead"] = traced[0]["wall_s"] / plain["wall_s"] - 1.0
    if metrics["variant.count"] != bench.workload.variants():
        bench.fail("traced", f"{metrics['variant.count']} variants")
    bench.samples = {"deterministic": {k: metrics[k] for k in DETERMINISTIC}}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "scarsim" / "cli.py").is_file():
        print(f"no scarsim source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    rundir = WORK / "runs" / f"{workload.name}-seed{seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    bench = Bench(workload, seed, rundir)
    try:
        if args.trace:
            metrics = per_layer(bench)
            units = metric_units()
        else:
            metrics = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = len(bench.failures)
    record = {
        "environment": {**environment(workload, seed), **bench.versions},
        "attempted": bench.attempted,
        "failed": failed,
        "failures": bench.failures,
        "oracle_error": bench.oracle_error,
        "metrics": metrics,
        "samples": bench.samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, reason in bench.failures.items():
        print(f"FAILED {name}: {reason}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics.get(name, float('nan')):.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / bench.attempted:.6g} ({failed}/{bench.attempted})")
    print(f"{'oracle_error':32s} {bench.oracle_error} (tolerance {ORACLE_TOL:g})")
    print(json.dumps({
        "correct": failed == 0 and all(name in metrics for name in units),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
