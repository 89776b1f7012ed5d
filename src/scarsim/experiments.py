"""Batch experiment runner: configuration, circuit-variant orchestration,
mitigation pipeline, statistics, and deterministic file emission.

Pipeline order is fixed: readout-matrix inversion, then postselection,
then per-twirl observable estimation, then linear extrapolation across
the noise scale factors.  Variants come from a prefix-sharing sweep
(``_sweep``): each (twirl, scale) chain evolves a batch of noise
trajectories through the preparation block and then one Trotter step
per block, measuring a snapshot after every block; under stochastic
noise the sweep restarts the chain every ceil(sqrt(steps + 1)) steps,
and its fresh batch re-runs the chain's whole prefix.  Each folded
block is twirled only where a twirl can change a trajectory
(``mitigation.twirl_is_visible``: the noise has a coherent
overrotation or single-qubit error).  The executor
plans each distinct block once per run and shares the plan between
every chain, twirl and family that runs it; a restart runs the chain's
planned blocks (executor windows do not cross block boundaries).
Readout error is a channel on the mixture of the trajectories' outcome
probabilities, from which all the variant's shots are then drawn.  The
variant key (config seed, pipeline tag, step, twirl, scale; cy adds its
family between tag and step) seeds that step's folds, twirl and shots;
the chain key, the variant key of the first step of the step's segment,
seeds the trajectories.  A rerun with the same config therefore emits
byte-identical files.  Estimates at different steps of one segment
share its noise draws, and all steps of a chain share twirl draws, so
they are correlated across steps, but each is still unbiased.

Each variant's estimates are one float row; a sweep's rows form one
(steps + 1, scales, twirls, columns) array, in which NaN marks a
missing estimate (postselection kept nothing, or a raw column at a
scale other than 1).  ``_zne`` reduces it to values and stds with one
least-squares line per step and column over the samples that are not
missing; it is the one ZNE reduction every experiment uses.  Every
series and table is emitted as a ``Table``, in CSV or JSON.
"""
from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, mitigation, noise, observables
from .model import (
    RZZ_IMPLS,
    ModelParams,
    bond_gates,
    fibonacci_projector,
    neel_bitstring,
    neel_prep_circuit,
    neel_state,
    trotter_angles,
    build_trotter_step,
)
from .noise import NoiseSpec, rzz_duration
from .observables import (
    CY_BRANCHES,
    PARITIES,
    Support,
    TimeSeries,
    accumulated_error,
    assemble_cy,
    cy_branch_prep,
    loschmidt_echo,
    parity_sites,
    per_site_z,
    pyp_expectation,
    series_from_values,
    stagger_sum,
    staggered_magnetization,  # not called here; the benchmark's tracer patches this name
    support,
    y_basis_rotation,
)
from .qsim import Circuit, Counts

READOUT_MODES = ("off", "tensor")
FORMATS = ("csv", "json")
# Largest ZNE scale factor a config accepts: a variant runs about lambda
# times its unfolded gates (README, "Command line", gives the reason).
MAX_ZNE_FACTOR = 100.0

# seed-derivation role keys
_ROLE_FOLD = 0
_ROLE_TWIRL = 1
_ROLE_CAL = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; (config, seed) fixes all randomness."""

    sites: int = 12
    steps: int = 39
    v: float = 1.0
    omega: float = 0.24
    dt: float = 1.0
    impl: str = "scaled-rzx"
    noise_preset: str = "casablanca-like"
    noise_overrides: dict = field(default_factory=dict)
    shots: int = 8192
    infinite_shots: bool = False
    shots_per_trajectory: int = 1024
    twirls: int = 10
    zne_factors: tuple[float, ...] = (1.0, 1.5, 2.0)
    readout_mode: str = "tensor"
    postselect: bool = True
    dd: bool = False
    seed: int = 0
    out: str = "results"
    format: str = "csv"

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError("need at least 2 sites")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots_per_trajectory < 1:
            raise ValueError("shots_per_trajectory must be >= 1")
        if self.twirls < 1:
            raise ValueError("twirls must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.readout_mode not in READOUT_MODES:
            raise ValueError(f"readout_mode must be one of {READOUT_MODES}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.impl not in RZZ_IMPLS:
            raise ValueError(f"impl must be one of {RZZ_IMPLS}")
        factors = tuple(float(f) for f in self.zne_factors)
        if not all(map(math.isfinite, factors)):  # NaN passes the order check below
            raise ValueError(f"zne_factors must be finite, got {factors}")
        if not factors or sorted(factors) != list(factors) or factors[0] != 1.0:
            raise ValueError("zne_factors must be ascending and start at 1.0")
        if factors[-1] > MAX_ZNE_FACTOR:
            raise ValueError(f"zne_factors must be at most {MAX_ZNE_FACTOR:g}, got {factors}")
        object.__setattr__(self, "zne_factors", factors)
        object.__setattr__(self, "noise_overrides", dict(self.noise_overrides))
        unknown = set(self.noise_overrides) - noise.SCALAR_FIELDS
        if unknown:
            raise ValueError(f"noise_overrides: not scalar NoiseSpec fields: {sorted(unknown)}")
        params = self.model_params()
        if params.V * params.dt <= 0:
            raise ValueError(f"v * dt must be positive (the Vt axis of every series must "
                             f"increase), got v={params.V}, dt={params.dt}")
        spec = self.noise_spec()  # an invalid preset or override fails here, not mid-run
        if self.readout_mode == "tensor" and noise.singular_readout(spec.readout_eps,
                                                                    spec.readout_eta):
            raise ValueError("readout_eps + readout_eta >= 1 leaves the readout channel without "
                             "an inverse; use readout_mode = off")

    def model_params(self) -> ModelParams:
        return ModelParams(V=self.v, Omega=self.omega, dt=self.dt, L=self.sites)

    def noise_spec(self) -> NoiseSpec:
        return noise.preset(self.noise_preset, **self.noise_overrides)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["zne_factors"] = list(self.zne_factors)
        return d


def _flag(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r} (use 1/true/yes or 0/false/no)")
    return word in ("1", "true", "yes")


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _choice(options):
    """A converter that passes a value of ``options`` and refuses any other."""
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"not one of {tuple(options)}: {text!r}")
        return text
    return convert


# INI section -> {key: converter}; each key is the ExperimentConfig field,
# except [noise] preset (noise_preset) and override.<field> (noise_overrides).
_OVERRIDE = "override."
_INI_FIELDS = {
    "model": {"sites": int, "steps": int, "v": float, "omega": float, "dt": float},
    "execution": {"impl": _choice(RZZ_IMPLS), "shots": int, "infinite_shots": _flag,
                  "shots_per_trajectory": int, "seed": int},
    "noise": {"preset": _choice(noise.PRESETS),
              **{_OVERRIDE + name: float for name in sorted(noise.SCALAR_FIELDS)}},
    "mitigation": {"twirls": int,
                   "zne_factors": _float_tuple,
                   "readout_mode": _choice(READOUT_MODES), "postselect": _flag, "dd": _flag},
    "output": {"out": str, "format": _choice(FORMATS)},
}


INI_KEYS = frozenset((section, key) for section, keys in _INI_FIELDS.items() for key in keys)


def _check_ini_keys(cp: configparser.ConfigParser, allowed, path) -> None:
    """Reject any section or key of ``cp`` that ``allowed``, a set of
    (section, key) pairs, does not list, and any [DEFAULT] entry: it
    would be copied into every section."""
    if cp.defaults():
        raise ValueError(f"{path}: unknown section [DEFAULT]")
    sections = {s for s, _ in allowed}
    for section in cp.sections():
        if section not in sections:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if (section, key) not in allowed:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")


def config_from_ini(path, allowed=INI_KEYS, **cli_overrides) -> ExperimentConfig:
    """Build a config from an INI document; keyword overrides win.

    Sections mirror the dataclass: [model] sites/steps/v/omega/dt,
    [execution] impl/shots/infinite_shots/seed/shots_per_trajectory,
    [noise] preset plus override.<field> entries for scalar NoiseSpec
    fields, [mitigation] twirls/zne_factors/readout_mode/postselect/dd,
    [output] out/format.  ``allowed`` narrows that to the sections and
    keys a reader uses ((section, key) pairs).  Values are literal (no
    ``%`` interpolation).  Unknown sections and keys, [DEFAULT]
    included, are rejected, and a value its converter refuses is named
    by file, section and key.
    """
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        cp.read_file(fh)
    _check_ini_keys(cp, allowed, path)

    def value(section, key, conv):
        try:
            return conv(cp.get(section, key))
        except ValueError as exc:  # name the key: "flase" alone does not say where
            raise ValueError(f"{path}: [{section}] {key}: {exc}") from None

    kwargs: dict = {key: value(section, key, conv)
                    for section, keys in _INI_FIELDS.items()
                    for key, conv in keys.items() if cp.has_option(section, key)}
    if "preset" in kwargs:
        kwargs["noise_preset"] = kwargs.pop("preset")
    overrides = {k[len(_OVERRIDE):]: kwargs.pop(k) for k in list(kwargs)
                 if k.startswith(_OVERRIDE)}
    if overrides:
        kwargs["noise_overrides"] = overrides
    kwargs.update({k: v for k, v in cli_overrides.items() if v is not None})
    return ExperimentConfig(**kwargs)


@dataclass
class Table:
    """Flat tabular result, the one format every emitted file is written in."""

    columns: list[str]
    rows: list[tuple]

    @classmethod
    def from_series(cls, ts: TimeSeries) -> Table:
        rows = [
            (int(step), float(t), complex(v).real, complex(v).imag, float(err))
            for step, t, v, err in zip(ts.steps, ts.times, ts.values, ts.errors)
        ]
        return cls(columns=["step", "Vt", "value_re", "value_im", "std"], rows=rows)

    def csv_rows(self) -> list[str]:
        out = [",".join(self.columns)]
        for row in self.rows:
            cells = [
                f"{v:.12e}" if isinstance(v, float) else str(v) for v in row
            ]
            out.append(",".join(cells))
        return out


# Columns of the magnetization pipeline's estimate rows and tables;
# a row has L + 4 columns for L sites.
COL_ZPI = 0
COL_ECHO = (1, 2)  # 0 and 1 tolerated flips
COL_SITES = slice(3, -1)
COL_RETAINED = -1


# ---------------------------------------------------------------------------
# Reference (oracle) series
# ---------------------------------------------------------------------------

def state_series(states: Iterable[np.ndarray]) -> dict:
    """The noiseless reference observables of each state, an amplitude
    array of length 2^L, as arrays over the states: per-site
    magnetizations ``site_z``, staggered ``zpi``, return probabilities
    ``echo0`` and ``echo1`` (0 and 1 flips allowed from the Neel
    reference), the adjacent-1-free weight ``weight``, and the ``*_proj``
    twins of the first four on the state projected onto that subspace
    and renormalized (NaN where the projection is empty).  Each state's
    probabilities are computed once; the twin reads them masked and
    renormalized, and each set of observables is one ``_estimates``
    pass.  ``states`` may be a generator; one state is held at a time.
    """
    rows = []
    for psi in states:
        L = psi.size.bit_length() - 1
        ref = neel_bitstring(L)
        probs = np.abs(psi) ** 2
        masked = np.where(fibonacci_projector(L), probs, 0.0)
        weight = float(np.sum(masked))
        plain = _estimates(Support(slice(None), probs, L), ref)
        twin = (_estimates(Support(slice(None), masked / weight, L), ref) if weight > 0.0
                else np.full_like(plain, np.nan))
        rows.append((plain, twin, weight))
    plain, twin, weights = (np.array(column) for column in zip(*rows))
    out = {"weight": weights}
    for suffix, table in (("", plain), ("_proj", twin)):
        out.update({"site_z" + suffix: table[:, COL_SITES], "zpi" + suffix: table[:, COL_ZPI],
                    "echo0" + suffix: table[:, COL_ECHO[0]], "echo1" + suffix: table[:, COL_ECHO[1]]})
    return out


def reference_series(params: ModelParams, steps: int, impl: str) -> dict:
    """``state_series`` of the noiseless Trotter evolution of
    ``neel_state`` at steps 0..steps.  Each step runs through one
    noiseless plan of the Trotter step, built once per call;
    ``run_circuit``, gate by gate, stays the oracle it is checked
    against."""
    step = noise._NoisePlan(build_trotter_step(params, impl=impl), noise.noiseless())

    def states():
        psi = neel_state(params.L)[None]
        yield psi[0]
        for _ in range(steps):
            psi = step.run_batch(psi, [])[0]
            yield psi[0]

    return state_series(states())


# ---------------------------------------------------------------------------
# Counts pipeline
# ---------------------------------------------------------------------------

def _calibrated_confusion(config, spec):
    if config.readout_mode == "off":
        return None
    return mitigation.calibrate_confusion(
        spec,
        config.sites,
        shots=config.shots,
        seed=config.seed * 1000003 + _ROLE_CAL,
        infinite=config.infinite_shots,
        shots_per_trajectory=config.shots_per_trajectory,
    )


def _process_counts(counts: Counts, confusion, config, reference: str) -> np.ndarray:
    """Readout inversion -> postselection -> estimate row.  When
    postselection keeps nothing, every estimate is NaN and the retained
    fraction is 0."""
    if confusion is not None:
        counts = mitigation.mitigate_readout(counts, confusion)
    retained = 1.0
    if config.postselect:
        sel = mitigation.postselect(counts)
        retained = sel.retained_fraction
        if sel.empty:
            row = np.full(counts.width + 4, np.nan)
            row[COL_RETAINED] = 0.0
            return row
        counts = sel.counts
    return _estimates(counts, reference, retained)


def _estimates(obj, reference: str, retained: float = 1.0) -> np.ndarray:
    """The estimate row of counts or a ``Support``, from one support
    pass: per-site <Z> once, the staggered magnetization from it, and
    both echoes from the same support; each value is bit for bit what
    its own estimator gives."""
    sup = support(obj)
    zs = per_site_z(sup)
    return np.concatenate((
        [stagger_sum(zs), loschmidt_echo(sup, reference, 0), loschmidt_echo(sup, reference, 1)],
        zs,
        [retained],
    ))


def _zne(samples: np.ndarray, lam_effs) -> tuple[np.ndarray, np.ndarray]:
    """(values, stds), each (steps, columns), of a sweep's (steps,
    scales, twirls, columns) samples, with lam_effs[step] the realized
    scales of a step: one ``mitigation.line_fits`` row per (step, column)
    over every finite twirl sample at its scale.

    Over two or more distinct scales the value is the extrapolated
    intercept and the std its fit std (residual variance over n - 2
    degrees of freedom, at least 1).  Over one distinct scale the value
    is the mean of the pooled samples and the std their ddof-1 spread,
    0 for one sample.  A row without samples is NaN.
    """
    n_steps, n_scales, n_twirls, n_cols = samples.shape
    vals = samples.transpose(0, 3, 1, 2).reshape(n_steps * n_cols, n_scales * n_twirls)
    lams = np.repeat(np.repeat(np.asarray(lam_effs, dtype=float), n_twirls, axis=1),
                     n_cols, axis=0)
    coef, cov = mitigation.line_fits(lams, vals)
    return coef[:, 0].reshape(n_steps, n_cols), np.sqrt(cov[:, 0, 0]).reshape(n_steps, n_cols)


def _segment_steps(n_steps: int, stochastic: bool) -> int:
    """Steps a chain carries one trajectory batch.

    Restarting fresh trajectories every s steps costs about
    n_steps**2 / (2 s) block evolutions on top of the n_steps of one
    carried batch, and cuts the series into about (n_steps + 1) / s
    independent segments.  s = ceil(sqrt(n_steps + 1)) balances the two:
    about sqrt(n_steps) segments for n_steps**1.5 / 2 extra evolutions,
    against the n_steps**2 / 2 of re-running every step.  Without
    stochastic noise every batch is the same, so one is carried
    throughout.
    """
    if not stochastic:
        return n_steps + 1
    return math.ceil(math.sqrt(n_steps + 1))


def _sweep(config: ExperimentConfig, spec: NoiseSpec, blocks: list[Circuit],
           key_head: list[int], estimate, basis: Circuit | None = None):
    """Run one circuit family through every (twirl, scale) chain.

    ``blocks[0]`` prepares the state and ``blocks[n]`` is the n-th
    Trotter step, so the circuit of step n is blocks[0..n].  A chain, one
    twirl and one scale, evolves its blocks block by block: block n gets
    its share of the prefix's folds (``mitigation.block_fold_counts``)
    and its own twirl, if ``spec`` makes twirls visible
    (``mitigation.twirl_is_visible``; otherwise every trajectory of the
    twirled block would end in the folded block's state up to a global
    phase, so the folded block runs as it is).  The block runs on the
    chain's trajectory batch, and the snapshot after it is measured (in
    ``basis``, if given) and passed to ``estimate(counts, lam)``, which
    returns the variant's estimates as one 1-D float row of a fixed
    length; NaN marks a missing estimate.  The chain is cut into
    segments of ``_segment_steps`` steps: at the first step of each
    segment the sweep restarts the chain (``noise.TrajectoryChain``), so
    that step starts fresh trajectories that run the chain's whole
    folded, twirled prefix, and the segment's later steps carry that
    batch one block at a time.  Each step appends the plan of its block
    to the chain (see ``noise.run_noisy_counts``); that plan is built
    once per run and shared by every chain that runs the same block.  A
    restart runs the chain's planned blocks joined into one plan, so no
    gate window crosses a block boundary.  Steps of one segment share
    their noise draws; steps of different segments do not, which bounds
    how far the sharing correlates the series.
    Whether the chain's noise is stochastic, which sets its trajectory
    count and segments, is ``noise.chain_noise`` of its blocks and basis.

    The variant key of (step, twirl w, scale li) is key_head + [step, w, li];
    it seeds the block's folds (+[0]) and twirl (+[1]) and the step's
    shots (+[4]), drawn after the readout channel.  The chain key of a
    step is the variant key of its segment's first step; trajectory t
    draws its noise from chain key + [2, t] for every block it evolves.

    Returns (samples, lam_effs, variants): samples is one (steps + 1,
    scales, twirls, columns) array of the rows, lam_effs[step] the
    realized scales, and variants[step] one record per variant in
    (twirl, scale) order, built as the variant runs from its key and the
    chain key.
    """
    factors = config.zne_factors
    n2_blocks = [b.n_two_qubit for b in blocks]
    n2 = list(itertools.accumulate(n2_blocks))
    lam_effs = [[mitigation.effective_scale(n, lam) for lam in factors] for n in n2]
    stochastic, quasi_static = noise.chain_noise(blocks + [basis], spec)
    n_traj = noise.trajectory_count(stochastic, config.shots, config.shots_per_trajectory)
    seg = _segment_steps(len(blocks) - 1, stochastic)
    twirl = mitigation.twirl_is_visible(spec)
    estimates = [[[None] * config.twirls for _ in factors] for _ in blocks]
    variants: list[list[dict]] = [[] for _ in blocks]
    for w in range(config.twirls):
        for li, lam in enumerate(factors):
            folds = mitigation.block_fold_counts(n2_blocks, lam)
            chain = noise.TrajectoryChain(n_traj, quasi_static)
            for step, block in enumerate(blocks):
                key = key_head + [step, w, li]
                circuit = mitigation.fold_gates_random(
                    block, lam, seed=key + [_ROLE_FOLD], folds=folds[step]
                )
                if twirl:
                    circuit = mitigation.twirl_circuit(circuit, seed=key + [_ROLE_TWIRL])
                if step % seg == 0:
                    chain.restart()
                    chain_key = key
                counts = noise.run_noisy_counts(
                    circuit,
                    spec,
                    config.shots,
                    key,
                    infinite=config.infinite_shots,
                    basis=basis,
                    chain=chain,
                )
                estimates[step][li][w] = estimate(counts, lam)
                variants[step].append({
                    "step": step,
                    "twirl": w,
                    "scale": lam,
                    "effective_scale": lam_effs[step][li],
                    "two_qubit_gates": n2[step],
                    "seed_key": key,
                    "chain_key": chain_key,
                })
    return np.array(estimates), lam_effs, variants


def _zpi_sweep(config: ExperimentConfig):
    """The magnetization pipeline's one sweep, reduced by ``_zne``:
    (mit, mit_std, raw, raw_std, variants), the (steps + 1, columns)
    tables of the mitigated and raw estimates and their stds in the
    ``COL_*`` column layout, and the variant records."""
    params = config.model_params()
    spec = config.noise_spec()
    L = params.L
    reference = neel_bitstring(L)
    confusion = _calibrated_confusion(config, spec)

    idle_ns = None
    if config.dd:
        idle_ns = rzz_duration(trotter_angles(params).theta_zz, config.impl, spec.pulse)
    step_circ = build_trotter_step(params, impl=config.impl, idle_ns=idle_ns)
    prep = neel_prep_circuit(L)
    if config.dd:
        step_circ = mitigation.insert_dd(step_circ, spec.pulse.single_pulse_ns)

    width = L + 4
    no_raw = np.full(width, np.nan)

    def estimate(counts, lam):
        # row: mitigated columns, then raw ones; raw columns and the
        # retained fraction are measured at lambda = 1 only
        mit = _process_counts(counts, confusion, config, reference)
        if lam != 1.0:
            mit[COL_RETAINED] = np.nan
            return np.concatenate((mit, no_raw))
        return np.concatenate((mit, _estimates(counts, reference)))

    # key head [seed, 0]: 0 tags the zpi sweep, as 7 tags the cy families
    samples, lam_effs, step_variants = _sweep(
        config, spec, [prep] + [step_circ] * config.steps, [config.seed, 0], estimate
    )

    mit, mit_std = _zne(samples[..., :width], lam_effs)
    # raw rows of the lambda = 1 scales, pooled as one scale
    ones = [li for li, lam in enumerate(config.zne_factors) if lam == 1.0]
    raw, raw_std = _zne(samples[:, ones, :, width:], [[1.0] * len(ones)] * len(lam_effs))
    return mit, mit_std, raw, raw_std, [v for step in step_variants for v in step]


def _series(config, values, errors) -> TimeSeries:
    return series_from_values(np.arange(config.steps + 1), config.dt * config.v, values, errors)


def run_zpi(config: ExperimentConfig) -> dict:
    """Magnetization and echo bundle of one sweep: staggered
    magnetization (mitigated, unmitigated, references), per-site tables,
    accumulated error, subspace weight, and the return-probability series
    ``loschmidt_f{0,1}_*`` for 0 and 1 tolerated flips, all read from the
    same counts."""
    params = config.model_params()
    ref = reference_series(params, config.steps, config.impl)
    mit, mit_std, raw, raw_std, variants = _zpi_sweep(config)
    L = config.sites
    out: dict = {}

    out["zpi_density_mitigated"] = _series(config, mit[:, COL_ZPI] / L, mit_std[:, COL_ZPI] / L)
    out["zpi_density_unmitigated"] = _series(config, raw[:, COL_ZPI] / L,
                                             raw_std[:, COL_ZPI] / L)
    out["zpi_density_ideal"] = _series(config, ref["zpi"] / L, None)
    out["zpi_density_projected"] = _series(config, ref["zpi_proj"] / L, None)
    out["fibonacci_weight_ideal"] = _series(config, ref["weight"], None)
    out["postselect_retained"] = _series(config, mit[:, COL_RETAINED], None)

    site_mean, site_std = mit[:, COL_SITES], mit_std[:, COL_SITES]
    ref_site = ref["site_z_proj"] if config.postselect else ref["site_z"]
    d_vals, d_err = accumulated_error(site_mean, ref_site, site_std)
    out["accumulated_error_mitigated"] = _series(config, d_vals, d_err)

    d_raw, d_raw_err = accumulated_error(raw[:, COL_SITES], ref["site_z"], raw_std[:, COL_SITES])
    out["accumulated_error_unmitigated"] = _series(config, d_raw, d_raw_err)

    for flips in (0, 1):
        col = COL_ECHO[flips]
        out[f"loschmidt_f{flips}_mitigated"] = _series(config, mit[:, col], mit_std[:, col])
        out[f"loschmidt_f{flips}_unmitigated"] = _series(config, raw[:, col], raw_std[:, col])
        out[f"loschmidt_f{flips}_ideal"] = _series(config, ref[f"echo{flips}"], None)
        out[f"loschmidt_f{flips}_projected"] = _series(config, ref[f"echo{flips}_proj"], None)

    dt_v = params.dt * params.V

    def site_table(values, stds) -> Table:
        rows = [
            (step, float(step * dt_v), q + 1, float(values[step, q]), float(stds[step, q]))
            for step in range(config.steps + 1)
            for q in range(L)
        ]
        return Table(columns=["step", "Vt", "site", "value", "std"], rows=rows)

    out["per_site_z_mitigated"] = site_table(site_mean, site_std)
    out["per_site_z_reference"] = site_table(ref_site, np.zeros_like(ref_site))
    out["variants"] = variants
    return out


# ---------------------------------------------------------------------------
# Correlator experiment
# ---------------------------------------------------------------------------

def run_cy(config: ExperimentConfig) -> dict:
    """Correlator pipeline: 4 branches x 2 parities x floor(L/2) sources
    per step, twirl x scale variants each, readout mitigation and ZNE per
    local term (no postselection: the measurement is not in the Z basis).
    It runs without DD; a config asking for DD is refused."""
    if config.dd:
        raise ValueError("cy runs without dynamical decoupling: needs dd=False")
    params = config.model_params()
    spec = config.noise_spec()
    L = params.L
    confusion = _calibrated_confusion(config, spec)
    step_circ = build_trotter_step(params, impl=config.impl)
    prep = neel_prep_circuit(L)
    sources = list(range(2, L + 1, 2))

    # one sweep per (source, branch, parity) family; ZNE value and
    # variance of every local term in the ``assemble_cy`` layout
    value = np.zeros((config.steps + 1, len(sources), len(CY_BRANCHES), L))
    var = np.zeros_like(value)
    families = []  # (source, branch, parity, variant records by step)
    for si, i in enumerate(sources):
        for bi, b in enumerate(CY_BRANCHES):
            blocks = [Circuit(L, prep.gates + cy_branch_prep(L, i, b).gates)]
            blocks += [step_circ] * config.steps
            for pi, parity in enumerate(PARITIES):

                def estimate(counts, lam):
                    if confusion is not None:
                        counts = mitigation.mitigate_readout(counts, confusion)
                    return pyp_expectation(counts, parity)

                samples, lam_effs, step_variants = _sweep(
                    config, spec, blocks, [config.seed, 7, i, bi, pi], estimate,
                    basis=y_basis_rotation(L, parity),
                )
                cols = [j - 1 for j in parity_sites(L, parity)]
                val, std = _zne(samples, lam_effs)
                value[:, si, bi, cols] = val
                var[:, si, bi, cols] = std**2
                families.append((i, b, parity, step_variants))

    values = assemble_cy(value)
    # Re C_Y sums +-(M+1 - M-1) / 2 and Im C_Y +-(+Y - -Y) / 2 over every
    # (source, site) term (branches 0-3), so the ZNE variance of each
    # independent term enters with weight 1/4.  It stays per step, in
    # scalars: abs and sqrt over an array of steps can round a std one ulp
    # apart
    stds = np.zeros(config.steps + 1)
    for step, (v, var_step) in enumerate(zip(values, var)):
        var_re = 0.25 * (var_step[:, 0] + var_step[:, 1]).sum()
        var_im = 0.25 * (var_step[:, 2] + var_step[:, 3]).sum()
        mag = abs(v)
        stds[step] = (np.sqrt(v.real**2 * var_re + v.imag**2 * var_im) / mag if mag > 0
                      else np.sqrt(var_re + var_im))
    variants = [{"source": i, "branch": b, "parity": parity, **v}
                for step in range(config.steps + 1)
                for i, b, parity, step_variants in families
                for v in step_variants[step]]

    # noiseless Trotter correlator via the measurement protocol itself
    ref = observables.simulate_cy_noiseless(params, config.steps, impl=config.impl)
    out = {
        "cy_mitigated": _series(config, values, stds),
        "cy_abs_mitigated": _series(config, np.abs(values), stds),
        "cy_ideal": _series(config, ref, None),
        "cy_abs_ideal": _series(config, np.abs(ref), None),
        "variants": variants,
    }
    return out


# ---------------------------------------------------------------------------
# Interaction-gate benchmark
# ---------------------------------------------------------------------------

def run_rzz_bench(config: ExperimentConfig, thetas, repeats: int = 4) -> dict:
    """Duration, modeled error rate, and SPAM-free slope per angle in
    ``thetas`` and realization."""
    from .qsim import rzz as rzz_gate
    from .tomography import spam_free_error

    spec = config.noise_spec()
    grid = np.asarray(thetas, dtype=float)
    rows = []
    for theta in grid:
        for impl in ("two-cnot", "scaled-rzx"):
            duration = rzz_duration(float(theta), impl, spec.pulse)
            model_p = _realized_error(float(theta), impl, spec)
            slope = spam_free_error(
                rzz_gate(0, 1, float(theta)),
                spec,
                repeats=repeats,
                shots=config.shots,
                seed=config.seed,
                infinite=config.infinite_shots,
                realization=impl,
            )
            rows.append(
                (
                    float(theta),
                    impl,
                    float(duration),
                    float(model_p),
                    float(slope.epsilon),
                    float(slope.epsilon_std),
                )
            )
    table = Table(
        columns=["theta", "impl", "duration_ns", "model_error", "qpt_slope", "slope_std"],
        rows=rows,
    )
    return {"rzz_bench": table}


def _realized_error(theta: float, impl: str, spec: NoiseSpec) -> float:
    """1 - prod(1 - p) over every gate of ``bond_gates``, with p the
    depolarizing weight the executor draws after it:
    ``two_qubit_error_prob`` for a two-qubit gate,
    ``single_qubit_depolarizing`` for a single-qubit one."""
    return 1.0 - math.prod(
        1.0 - (spec.two_qubit_error_prob(g) if g.is_two_qubit else spec.single_qubit_depolarizing)
        for g in bond_gates(0, 1, theta, impl))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(results: dict, config: ExperimentConfig, out_dir=None) -> list[Path]:
    """Write one file per series/table plus a manifest with content hashes.

    Output is deterministic: fixed float formatting, sorted JSON keys,
    no timestamps; rerunning an identical config reproduces every byte.
    """
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    hashes: dict[str, str] = {}
    for name in sorted(results):
        obj = results[name]
        if name == "variants":
            path = out / "variants.jsonl"
            text = "\n".join(json.dumps(v, sort_keys=True) for v in obj)
        else:
            table = Table.from_series(obj) if isinstance(obj, TimeSeries) else obj
            path = out / f"{name}.{config.format}"
            if config.format == "csv":
                text = "\n".join(table.csv_rows())
            else:
                payload = {"columns": table.columns, "rows": [list(r) for r in table.rows]}
                text = json.dumps(payload, sort_keys=True, indent=1)
        path.write_text(text + "\n")
        hashes[path.name] = hashlib.sha1(path.read_bytes()).hexdigest()
        written.append(path)
    manifest = {
        "package_version": __version__,
        "config": config.to_dict(),
        "files": hashes,
    }
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    written.append(mpath)
    return written
