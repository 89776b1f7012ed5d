"""Per-layer tracing from outside the program.

Each layer is named after its scarsim module and timed around the public
functions its callers look up.  A name is patched where the caller finds
it: ``experiments`` binds the observables and model functions itself,
``cli`` binds ``emit``, and ``mitigation`` binds its own
``run_noisy_counts``, so readout calibration stays out of
``noise.execute``.  Spans live in memory; ``Tracer.dump`` writes them once
at exit, and ``summarize`` turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, name, layer).  A "Class.method" name patches a method.
TARGETS = [
    ("scarsim.experiments", "run_zpi", "experiments.loop"),
    ("scarsim.experiments", "run_cy", "experiments.loop"),
    ("scarsim.experiments", "reference_series", "experiments.reference"),
    ("scarsim.observables", "simulate_cy_noiseless", "experiments.reference"),
    ("scarsim.experiments", "build_trotter_step", "model"),
    ("scarsim.experiments", "neel_prep_circuit", "model"),
    ("scarsim.mitigation", "calibrate_confusion", "mitigation.calibrate"),
    ("scarsim.mitigation", "fold_gates_random", "mitigation.fold"),
    ("scarsim.mitigation", "twirl_circuit", "mitigation.twirl"),
    ("scarsim.noise", "run_noisy_counts", "noise.execute"),
    ("scarsim.noise", "apply_readout_error", "noise.readout_forward"),
    ("scarsim.qsim", "Counts.from_vector", "qsim.counts"),
    ("scarsim.qsim", "Counts.to_vector", "qsim.counts"),
    ("scarsim.mitigation", "mitigate_readout", "mitigation.invert"),
    ("scarsim.mitigation", "postselect", "mitigation.postselect"),
    ("scarsim.experiments", "staggered_magnetization", "observables.estimate"),
    ("scarsim.experiments", "per_site_z", "observables.estimate"),
    ("scarsim.experiments", "loschmidt_echo", "observables.estimate"),
    ("scarsim.experiments", "pyp_expectation", "observables.estimate"),
    ("scarsim.mitigation", "zne_extrapolate", "mitigation.zne"),
    ("scarsim.cli", "emit", "experiments.emit"),
]

LAYERS = list(dict.fromkeys(layer for _, _, layer in TARGETS))

# Extra per-layer metrics beyond .calls and .self_s, filled by the
# counters below or by summarize().
EXTRAS = {
    "noise.execute": ["p50_ms", "p99_ms", "gates_in", "two_qubit_gates", "trajectories",
                      "amp_updates", "bytes_computed"],
    "qsim.counts": ["outcomes"],
    "mitigation.postselect": ["retained", "empty"],
    "mitigation.twirl": ["gates_out"],
    "mitigation.fold": ["gates_out"],
    "mitigation.zne": ["unweighted"],
    "experiments.emit": ["bytes"],
}
VARIANT_METRICS = ["variant.p50_ms", "variant.p99_ms", "variant.count"]

# Counts that must repeat exactly for a given workload and seed: the
# benchmark compares them between two traced processes.
DETERMINISTIC = (
    [f"{layer}.calls" for layer in LAYERS]
    + ["noise.execute." + k for k in ("gates_in", "two_qubit_gates", "trajectories",
                                      "amp_updates", "bytes_computed")]
    + ["qsim.counts.outcomes", "mitigation.twirl.gates_out", "mitigation.fold.gates_out",
       "mitigation.postselect.empty", "mitigation.zne.unweighted", "variant.count"]
)

BYTES_PER_AMP_UPDATE = 32  # one complex128 read and one written


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        names += [f"{layer}.{extra}" for extra in EXTRAS.get(layer, [])]
    return {name: _unit(name) for name in names + VARIANT_METRICS + ["trace.overhead"]}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_s"):
        return "s"
    if suffix.startswith("bytes"):
        return "bytes"
    if suffix in ("retained", "overhead"):
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------
# Counters: run after the wrapped call returns, outside its span.
# ---------------------------------------------------------------------------

@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _count_execute(tracer, fn, args, kwargs, result):
    call = _signature(fn).bind(*args, **kwargs)
    circuit = call.arguments["circuit"]
    c = tracer.counters
    c["noise.execute.gates_in"] += len(circuit.gates)
    c["noise.execute.two_qubit_gates"] += circuit.n_two_qubit


def _count_batch(tracer, fn, args, kwargs, result):
    """What the executor evolved: one generator per trajectory, and each
    planned operation (after single-qubit fusion) over every amplitude of
    every trajectory.  The sparse Pauli insertions are not counted."""
    if not tracer.inside("noise.execute"):
        return  # calibration's executions belong to mitigation.calibrate
    plan, rngs = args[0], args[2] if len(args) > 2 else kwargs["rngs"]
    updates = len(rngs) * len(plan.ops) * (1 << plan.width)
    c = tracer.counters
    c["noise.execute.trajectories"] += len(rngs)
    c["noise.execute.amp_updates"] += updates
    c["noise.execute.bytes_computed"] += updates * BYTES_PER_AMP_UPDATE


def _count_outcomes(tracer, fn, args, kwargs, result):
    tracer.counters["qsim.counts.outcomes"] += len(result.data)


def _count_postselect(tracer, fn, args, kwargs, result):
    c = tracer.counters
    counts = args[0] if args else kwargs["counts"]
    c["_postselect_attempted"] += sum(counts.data.values())
    c["_postselect_kept"] += sum(result.counts.data.values())
    c["mitigation.postselect.empty"] += int(result.empty)


def _gates_out(layer):
    def count(tracer, fn, args, kwargs, result):
        tracer.counters[f"{layer}.gates_out"] += len(result.gates)
    return count


def _count_unweighted(tracer, fn, args, kwargs, result):
    if any(float(s) <= 0 for _, _, s in result.points):
        tracer.counters["mitigation.zne.unweighted"] += 1


def _count_emit(tracer, fn, args, kwargs, result):
    tracer.counters["experiments.emit.bytes"] += sum(Path(p).stat().st_size for p in result)


COUNTERS = {
    ("scarsim.noise", "run_noisy_counts"): _count_execute,
    ("scarsim.qsim", "Counts.from_vector"): _count_outcomes,
    ("scarsim.mitigation", "postselect"): _count_postselect,
    ("scarsim.mitigation", "twirl_circuit"): _gates_out("mitigation.twirl"),
    ("scarsim.mitigation", "fold_gates_random"): _gates_out("mitigation.fold"),
    ("scarsim.mitigation", "zne_extrapolate"): _count_unweighted,
    ("scarsim.cli", "emit"): _count_emit,
}

# Counters on calls inside a layer, without a span of their own.
# _NoisePlan.run_batch is the executor's private batch evolution: a change
# that removes it must hook its replacement here, or the trajectory and
# amplitude counts read 0.
HOOKS = [("scarsim.noise", "_NoisePlan.run_batch", _count_batch)]


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Spans are [layer, start_ns, end_ns, parent span, variant id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.variant = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def inside(self, layer: str) -> bool:
        """Whether the innermost open span belongs to ``layer``."""
        return bool(self.stack) and self.spans[self.stack[-1]][0] == LAYERS.index(layer)

    def hook(self, fn, counter):
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(self, fn, args, kwargs, result)
            return result

        return hooked

    def wrap(self, layer: str, fn, counter=None, new_variant: bool = False):
        layer_id = LAYERS.index(layer)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if new_variant:
                self.variant += 1
            span = [layer_id, 0, 0, stack[-1] if stack else -1, self.variant]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, fn, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore
        the original objects exactly."""
        saved = []
        try:
            targets = [(m, n, layer, COUNTERS.get((m, n))) for m, n, layer in TARGETS]
            for module, name, layer, counter in targets + [(m, n, None, c) for m, n, c in HOOKS]:
                owner = importlib.import_module(module)
                cls, _, attr = name.rpartition(".")
                if cls:
                    owner = getattr(owner, cls, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                if layer is None:
                    wrapped = self.hook(fn, counter)
                else:
                    wrapped = self.wrap(layer, fn, counter,
                                        new_variant=name == "fold_gates_random")
                if is_classmethod:
                    wrapped = classmethod(wrapped)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({
            "layers": LAYERS,
            "spans": self.spans,
            "counters": dict(self.counters),
            "missing": self.missing,
        }))


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(dump: dict) -> dict[str, float]:
    """Per-layer metrics from one dumped trace (without trace.overhead)."""
    layers = dump["layers"]
    spans = dump["spans"]
    child = [0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for name in layers:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    execute_ms, fold_starts = [], []
    for i, (layer, start, end, parent, _) in enumerate(spans):
        name = layers[layer]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start - child[i]) / 1e9
        if name == "noise.execute":
            execute_ms.append((end - start) / 1e6)
        elif name == "mitigation.fold":
            fold_starts.append(start)
    counters = dump["counters"]
    for layer, extras in EXTRAS.items():
        for extra in extras:
            out[f"{layer}.{extra}"] = counters.get(f"{layer}.{extra}", 0)
    out["noise.execute.p50_ms"] = _percentile(execute_ms, 50)
    out["noise.execute.p99_ms"] = _percentile(execute_ms, 99)
    attempted = counters.get("_postselect_attempted", 0.0)
    out["mitigation.postselect.retained"] = (
        counters.get("_postselect_kept", 0.0) / attempted if attempted else 0.0
    )
    variant_ms = [(b - a) / 1e6 for a, b in zip(fold_starts, fold_starts[1:])]
    out["variant.p50_ms"] = _percentile(variant_ms, 50)
    out["variant.p99_ms"] = _percentile(variant_ms, 99)
    out["variant.count"] = len(fold_starts)
    return out
