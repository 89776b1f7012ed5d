"""The prefix-sharing variant sweep: each chain evolves its blocks once
per segment, and every step still sees exactly the circuit, folds and
scale of its whole prefix."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarsim import experiments, mitigation, noise
from scarsim.experiments import (
    ExperimentConfig,
    _sweep,
    reference_series,
    run_cy,
    run_zpi,
)
from scarsim.model import build_trotter_step, neel_bitstring, neel_prep_circuit
from scarsim.noise import run_noisy_density
from scarsim.observables import (
    CY_BRANCHES,
    PARITIES,
    cy_branch_prep,
    cy_oracle,
    simulate_cy_noiseless,
    stagger_sign,
    y_basis_rotation,
)
from scarsim.qsim import (
    Circuit,
    Statevector,
    bit_table,
    circuit_unitary,
    cnot,
    delay,
    h,
    run_circuit,
    rzz,
)


def noiseless_config(**kw) -> ExperimentConfig:
    base = dict(sites=4, steps=4, shots=512, infinite_shots=True, twirls=2,
                zne_factors=(1.0, 1.5, 2.0), noise_preset="noiseless",
                readout_mode="off", postselect=True, seed=13)
    base.update(kw)
    return ExperimentConfig(**base)


def record_counts(monkeypatch) -> dict:
    """Spy on the executor: variant seed key -> the counts it returned."""
    seen = {}
    run = noise.run_noisy_counts

    def spy(circuit, spec, shots, seed, **kw):
        counts = run(circuit, spec, shots, seed, **kw)
        seen[tuple(seed)] = counts
        return counts

    monkeypatch.setattr(noise, "run_noisy_counts", spy)
    return seen


def resimulated_counts(circuit: Circuit, cfg: ExperimentConfig, key) -> np.ndarray:
    """The whole prefix run from |0...0> and sampled as the sweep samples
    one noiseless trajectory: from the variant key + [4]."""
    p = run_circuit(Statevector.zero(circuit.width), circuit).probabilities()
    if cfg.infinite_shots:
        return p * cfg.shots
    return np.random.default_rng(list(key) + [4]).multinomial(cfg.shots, p / p.sum())


class TestNoiselessSweepMatchesResimulation:
    @pytest.mark.parametrize("postselect", [True, False])
    def test_zpi_and_loschmidt_infinite_shots(self, postselect):
        cfg = noiseless_config(postselect=postselect)
        ref = reference_series(cfg.model_params(), cfg.steps, cfg.impl)
        tag = "_proj" if postselect else ""
        zpi = run_zpi(cfg)
        np.testing.assert_allclose(zpi["zpi_density_mitigated"].values.real,
                                   ref["zpi" + tag] / cfg.sites, rtol=0, atol=1e-12)
        np.testing.assert_allclose(zpi["zpi_density_unmitigated"].values.real,
                                   ref["zpi"] / cfg.sites, rtol=0, atol=1e-12)
        for flips in (0, 1):
            np.testing.assert_allclose(zpi[f"loschmidt_f{flips}_mitigated"].values.real,
                                       ref[f"echo{flips}{tag}"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("infinite", [True, False])
    def test_zpi_counts_equal_prefix_resimulation(self, monkeypatch, infinite):
        cfg = noiseless_config(infinite_shots=infinite, dd=True)
        seen = record_counts(monkeypatch)
        variants = run_zpi(cfg)["variants"]
        step = build_trotter_step(cfg.model_params(), impl=cfg.impl)
        prep = neel_prep_circuit(cfg.sites)
        assert len(seen) == len(variants) == (cfg.steps + 1) * cfg.twirls * 3
        for v in variants:
            prefix = Circuit(cfg.sites, prep.gates + step.gates * v["step"])
            want = resimulated_counts(prefix, cfg, v["seed_key"])
            np.testing.assert_allclose(seen[tuple(v["seed_key"])].vector, want,
                                       rtol=0, atol=1e-12 * cfg.shots)

    @pytest.mark.parametrize("infinite", [True, False])
    def test_cy_counts_equal_prefix_resimulation(self, monkeypatch, infinite):
        cfg = noiseless_config(sites=4, steps=3, twirls=1, infinite_shots=infinite)
        seen = record_counts(monkeypatch)
        bundle = run_cy(cfg)
        step = build_trotter_step(cfg.model_params(), impl=cfg.impl)
        prep = neel_prep_circuit(cfg.sites)
        variants = bundle["variants"]
        assert len(seen) == len(variants) == (cfg.steps + 1) * 2 * 4 * 2 * 3
        for v in variants:
            prefix = Circuit(cfg.sites, prep.gates
                             + cy_branch_prep(cfg.sites, v["source"], v["branch"]).gates
                             + step.gates * v["step"]
                             + y_basis_rotation(cfg.sites, v["parity"]).gates)
            want = resimulated_counts(prefix, cfg, v["seed_key"])
            np.testing.assert_allclose(seen[tuple(v["seed_key"])].vector, want,
                                       rtol=0, atol=1e-12 * cfg.shots)

    def test_cy_infinite_shots_matches_protocol_and_oracle(self):
        cfg = noiseless_config(sites=5, steps=4, twirls=2)
        got = run_cy(cfg)["cy_mitigated"].values
        params = cfg.model_params()
        protocol = simulate_cy_noiseless(params, cfg.steps, impl=cfg.impl)
        for n in range(cfg.steps + 1):
            assert abs(got[n] - protocol[n]) < 1e-12
            assert abs(got[n] - cy_oracle(params, n)) < 1e-10

    def test_variant_order_and_keys(self):
        # zpi keys are [seed, 0, step, twirl, scale index]: 0 tags the zpi
        # sweep as 7 tags the cy families
        cfg = noiseless_config(steps=2, twirls=2, zne_factors=(1.0, 2.0))
        variants = run_zpi(cfg)["variants"]
        order = [(v["step"], v["twirl"], v["scale"]) for v in variants]
        assert order == sorted(order) and len(order) == 3 * 2 * 2
        for v in variants:
            assert "trial" not in v
            li = cfg.zne_factors.index(v["scale"])
            assert v["seed_key"] == [cfg.seed, 0, v["step"], v["twirl"], li]
            assert v["chain_key"] == [cfg.seed, 0, 0, v["twirl"], li]
        cy = run_cy(noiseless_config(sites=4, steps=1, twirls=1, zne_factors=(1.0,)))
        order = [(v["step"], v["source"], CY_BRANCHES.index(v["branch"]),
                  PARITIES.index(v["parity"])) for v in cy["variants"]]
        assert order == sorted(order)


def _gate_list(gates) -> list[tuple]:
    return [(g.kind, g.qubits, g.angle, g.duration_ns) for g in gates]


def sweep_depth(monkeypatch) -> list[int]:
    """[number of open ``experiments._sweep`` calls].  The spies below
    record only inside one, so they see the sweep's plans and executions
    and not the noiseless plans of the reference series."""
    depth = [0]
    sweep = experiments._sweep

    def spy(*args, **kw):
        depth[0] += 1
        try:
            return sweep(*args, **kw)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(experiments, "_sweep", spy)
    return depth


def record_plans(monkeypatch) -> list[tuple]:
    """Spy on the planner: (plan, circuit) for every ``_NoisePlan`` the
    sweep builds from a circuit, in order."""
    built = []
    init = noise._NoisePlan.__init__
    depth = sweep_depth(monkeypatch)

    def spy(plan, circuit, spec):
        init(plan, circuit, spec)
        if depth[0]:
            built.append((plan, circuit))

    monkeypatch.setattr(noise._NoisePlan, "__init__", spy)
    return built


def record_runs(monkeypatch) -> tuple[dict, list[tuple]]:
    """Spy on the executor and the planner: variant seed key -> (counts,
    the planned blocks its batch evolution ran, in order, the circuit it
    was given), and every (plan, circuit) built."""
    built = record_plans(monkeypatch)
    seen = {}
    run = noise.run_noisy_counts

    def spy(circuit, spec, shots, seed, **kw):
        chain = kw["chain"]
        start = chain.ran  # 0 after a restart: a fresh batch runs every plan
        counts = run(circuit, spec, shots, seed, **kw)
        seen[tuple(seed)] = (counts, chain.plans[start:], circuit)
        return counts

    monkeypatch.setattr(noise, "run_noisy_counts", spy)
    return seen, built


def _plan_keys(built) -> list[tuple]:
    """The gate list of each built plan: what the plan memo keys on."""
    return [tuple(_gate_list(c.gates)) for _, c in built]


def test_noisy_chains_restart_fresh_trajectories_every_segment(monkeypatch):
    # 6 steps -> segments of ceil(sqrt(6)) = 3 steps: steps 0 and 3 rerun
    # the chain's planned prefix on fresh trajectories seeded by their own
    # variant key, exactly as a one-off execution of those blocks would;
    # steps 1, 2, 4 and 5 continue their segment's batch through the plan
    # of their own folded block alone
    cfg = ExperimentConfig(sites=4, steps=5, shots=256, shots_per_trajectory=64,
                           twirls=1, zne_factors=(1.0, 2.0), readout_mode="off",
                           postselect=False, noise_preset="casablanca-like", seed=3)
    run = noise.run_noisy_counts
    seen, built = record_runs(monkeypatch)
    variants = {tuple(v["seed_key"]): v for v in run_zpi(cfg)["variants"]}
    # each distinct folded block is planned once per run: at scale 1 the
    # five Trotter steps share one plan
    run_plans = _plan_keys(built)
    assert len(run_plans) == len(set(run_plans)) < len(variants)
    source = {id(plan): circuit for plan, circuit in built}
    spec = cfg.noise_spec()
    blocks = ([neel_prep_circuit(cfg.sites)]
              + [build_trotter_step(cfg.model_params(), impl=cfg.impl)] * cfg.steps)
    seg = math.ceil(math.sqrt(cfg.steps + 1))
    assert seg == 3
    # the prep block alone draws no noise, so a one-off run of it would
    # take one trajectory; the reference runs the chain's count
    stochastic, quasi_static = noise.chain_noise(blocks, spec)
    n_traj = noise.trajectory_count(stochastic, cfg.shots, cfg.shots_per_trajectory)
    assert n_traj == 4
    for li, lam in enumerate(cfg.zne_factors):
        folds = mitigation.block_fold_counts([b.n_two_qubit for b in blocks], lam)
        gates, planned = (), []
        for n, block in enumerate(blocks):
            key = [cfg.seed, 0, n, 0, li]
            folded = mitigation.fold_gates_random(block, lam, seed=key + [0], folds=folds[n])
            gates += folded.gates
            counts, ran, circuit = seen[tuple(key)]
            # no overrotation and no single-qubit error: no twirl is drawn
            assert _gate_list(circuit.gates) == _gate_list(folded.gates)
            assert variants[tuple(key)]["chain_key"] == [cfg.seed, 0, n - n % seg, 0, li]
            # the step runs the plan of its own folded block, and reruns
            # earlier plans of its chain only
            assert _gate_list(source[id(ran[-1])].gates) == _gate_list(folded.gates)
            planned.append(ran[-1])
            if n % seg:
                assert ran == [planned[n]]
                continue
            assert all(a is b for a, b in zip(ran, planned, strict=True))
            ran_gates = [g for plan in ran for g in source[id(plan)].gates]
            assert _gate_list(ran_gates) == _gate_list(gates)
            chain = noise.TrajectoryChain(n_traj, quasi_static, ran[:-1])
            once = run(folded, spec, cfg.shots, key, chain=chain)
            np.testing.assert_array_equal(counts.vector, once.vector)


@pytest.mark.parametrize("infinite", [False, True])
def test_a_chainless_call_starts_trajectories_as_a_chain_does(monkeypatch, infinite):
    # the sweep starts each chain's trajectories through the one path a
    # run_noisy_counts call without a chain takes: that call, given a
    # chain's step-0 circuit and key, returns the chain's step-0 counts
    # bit for bit.  Block 0 idles under quasi-static dephasing, so both
    # draw rates first, and single-qubit error makes the twirl and the
    # basis rotation draw errors
    cfg = ExperimentConfig(sites=3, steps=2, shots=256, shots_per_trajectory=64,
                           infinite_shots=infinite, twirls=2, zne_factors=(1.0, 2.0),
                           noise_preset="casablanca-like", seed=4,
                           noise_overrides={"idle_dephasing_rad_per_ns": 0.004,
                                            "single_qubit_depolarizing": 0.02})
    spec = cfg.noise_spec()
    prep = Circuit(3, [*neel_prep_circuit(3).gates, h(0), delay(0, 300.0), cnot(0, 1)])
    blocks = [prep] + [build_trotter_step(cfg.model_params(), impl=cfg.impl)] * cfg.steps
    basis = y_basis_rotation(3, "odd")
    assert noise.chain_noise([prep, basis], spec) == noise.chain_noise(blocks + [basis], spec)
    assert noise.chain_noise([prep, basis], spec) == (True, True)
    assert mitigation.twirl_is_visible(spec)
    run = noise.run_noisy_counts
    starts = []

    def spy(circuit, spec, shots, seed, **kw):
        fresh = kw["chain"].amps is None
        counts = run(circuit, spec, shots, seed, **kw)
        if seed[2] == 0:
            assert fresh
            starts.append((circuit, list(seed), kw["chain"].n_traj, counts))
        return counts

    monkeypatch.setattr(noise, "run_noisy_counts", spy)
    _sweep(cfg, spec, blocks, [cfg.seed, 0], _probabilities, basis)
    assert len(starts) == 4  # 2 twirls x 2 scales
    for circuit, key, n_traj, counts in starts:
        assert n_traj == 4
        once = run(circuit, spec, cfg.shots, key, infinite=infinite,
                   shots_per_trajectory=cfg.shots_per_trajectory, basis=basis)
        np.testing.assert_array_equal(once.vector, counts.vector)


def test_shared_trajectories_are_unbiased_at_every_step():
    # one chain of N single-shot-weight trajectories, restarted at step 2
    # (segments of ceil(sqrt(4)) = 2 steps) and carried otherwise: each
    # step's raw estimate still converges to the exact noisy channel
    # value (5-sigma band; the per-trajectory values lie in [-1, 1] and
    # [0, 1]), although the steps of a segment share their noise draws
    n_traj = 20_000
    cfg = noiseless_config(
        sites=3, steps=3, shots=n_traj, shots_per_trajectory=1, twirls=1,
        zne_factors=(1.0,), postselect=False, noise_preset="casablanca-like",
        noise_overrides={"two_qubit_target_error": 0.3, "readout_eps": 0.0,
                         "readout_eta": 0.0},
    )
    zpi = run_zpi(cfg)
    spec = cfg.noise_spec()
    step = build_trotter_step(cfg.model_params(), impl=cfg.impl)
    ref = neel_bitstring(cfg.sites)
    band = 5.0 / np.sqrt(n_traj)
    moved = 0.0
    for n in range(cfg.steps + 1):
        rho = run_noisy_density(Circuit(3, neel_prep_circuit(3).gates + step.gates * n), spec)
        z = np.real(np.diag(rho)) @ (1 - 2 * bit_table(3).astype(float))
        want_zpi = sum(stagger_sign(q + 1) * z[q] for q in range(3)) / 3
        want_echo = float(np.real(rho[int(ref, 2), int(ref, 2)]))
        assert abs(zpi["zpi_density_unmitigated"].values[n].real - want_zpi) < band
        assert abs(zpi["loschmidt_f0_unmitigated"].values[n].real - want_echo) < band
        moved = max(moved, abs(want_zpi - zpi["zpi_density_ideal"].values[n].real))
    assert moved > 10 * band  # the noise is far larger than the tolerance


def _blocks(n2_blocks: list[int]) -> list[Circuit]:
    """Blocks holding the given numbers of two-qubit gates."""
    return [Circuit(3, [h(0)] + [cnot(k % 2, k % 2 + 1) for k in range(m)] + [h(2)])
            for m in n2_blocks]


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(1.0, 3.0),
    n2_steps=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    n2_prep=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_block_folds_sum_to_prefix_fold_count(lam, n2_steps, n2_prep, seed):
    n2_blocks = [n2_prep] + n2_steps
    folds = mitigation.block_fold_counts(n2_blocks, lam)
    realized = 0
    for n, (block, k) in enumerate(zip(_blocks(n2_blocks), folds)):
        folded = mitigation.fold_gates_random(block, lam, seed=[seed, n], folds=k)
        realized += (len(folded.gates) - len(block.gates)) // 2
        n2 = sum(n2_blocks[: n + 1])
        assert realized == mitigation.fold_count(n2, lam)
        if n2:
            assert (n2 + 2 * realized) / n2 == mitigation.effective_scale(n2, lam)


def _equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[k] / b[k]
    return abs(abs(phase) - 1.0) < 1e-10 and np.allclose(a, phase * b, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    width=st.integers(2, 4),
    steps=st.integers(0, 4),
    lam=st.floats(1.0, 3.0),
    impl=st.sampled_from(["two-cnot", "scaled-rzx", "rzz"]),
    seed=st.integers(0, 2**16),
)
def test_folded_twirled_blocks_keep_the_prefix_unitary(width, steps, lam, impl, seed):
    cfg = noiseless_config(sites=width, steps=steps, impl=impl)
    step = build_trotter_step(cfg.model_params(), impl=impl)
    blocks = [neel_prep_circuit(width)] + [step] * steps
    folds = mitigation.block_fold_counts([b.n_two_qubit for b in blocks], lam)
    gates = []
    for n, (block, k) in enumerate(zip(blocks, folds)):
        folded = mitigation.fold_gates_random(block, lam, seed=[seed, n, 0], folds=k)
        gates += mitigation.twirl_circuit(folded, seed=[seed, n, 1]).gates
    prefix = Circuit(width, neel_prep_circuit(width).gates + step.gates * steps)
    assert _equal_up_to_phase(circuit_unitary(Circuit(width, gates)), circuit_unitary(prefix))


def test_fold_count_argument_is_checked():
    block = Circuit(2, [cnot(0, 1), rzz(0, 1, 0.3)])
    assert mitigation.fold_gates_random(block, 2.0, seed=0, folds=0) is block
    assert len(mitigation.fold_gates_random(block, 2.0, seed=0, folds=5).gates) == 12
    with pytest.raises(ValueError):
        mitigation.fold_gates_random(block, 2.0, seed=0, folds=-1)
    with pytest.raises(ValueError):
        mitigation.fold_gates_random(Circuit(2, [h(0)]), 2.0, seed=0, folds=1)


def record_batches(monkeypatch) -> list[tuple[int, bool]]:
    """Spy on the batch executor: (trajectories, quasi-static rates drawn)
    per ``_NoisePlan.run_batch`` call of the sweep."""
    calls = []
    run_batch = noise._NoisePlan.run_batch
    depth = sweep_depth(monkeypatch)

    def spy(plan, amps, rngs, omegas=None, rows=None):
        if depth[0]:
            calls.append((len(rngs), omegas is not None))
        return run_batch(plan, amps, rngs, omegas, rows)

    monkeypatch.setattr(noise._NoisePlan, "run_batch", spy)
    return calls


@pytest.mark.parametrize("command", ["zpi", "cy"])
def test_one_batch_evolution_per_variant(monkeypatch, command):
    # the cy parity rotation runs on a copy inside the variant's one batch
    # evolution, so every variant evolves its ceil(shots / spt) = 2
    # trajectories once
    cfg = ExperimentConfig(sites=4, steps=2, shots=256, shots_per_trajectory=128,
                           twirls=1, zne_factors=(1.0, 2.0), readout_mode="off",
                           postselect=False, noise_preset="casablanca-like", seed=5)
    calls = record_batches(monkeypatch)
    variants = (run_zpi(cfg) if command == "zpi" else run_cy(cfg))["variants"]
    assert [n for n, _ in calls] == [2] * len(variants)


@pytest.mark.parametrize("dd", [False, True])
def test_idle_only_noise_is_stochastic_only_with_idle_windows(monkeypatch, dd):
    # quasi-static idle dephasing acts only on DELAY gates, which the
    # Trotter step has only with dynamical decoupling: without them a
    # chain runs one trajectory, draws no rates and never restarts
    cfg = ExperimentConfig(sites=4, steps=3, shots=256, shots_per_trajectory=64,
                           twirls=1, zne_factors=(1.0,), readout_mode="off",
                           postselect=False, noise_preset="noiseless", dd=dd, seed=5,
                           noise_overrides={"idle_dephasing_rad_per_ns": 0.002})
    calls = record_batches(monkeypatch)
    seen, built = record_runs(monkeypatch)
    run_zpi(cfg)
    assert calls == ([(4, True)] * 4 if dd else [(1, False)] * 4)
    # no folds at scale 1: a restart runs the planned blocks of every
    # step's two-qubit gates
    source = {id(plan): circuit for plan, circuit in built}
    n2 = [sum(source[id(plan)].n_two_qubit for plan in seen[(cfg.seed, 0, n, 0, 0)][1])
          for n in range(1, 4)]
    assert n2 == ([n2[0], 2 * n2[0], n2[0]] if dd else [n2[0]] * 3)


@pytest.mark.parametrize("command", ["zpi", "cy"])
def test_each_block_and_basis_is_planned_once(monkeypatch, command):
    # 4 steps -> segments of ceil(sqrt(5)) = 3 steps, so every chain
    # restarts at step 3 and reruns the plans of steps 0-2.  A run plans
    # each distinct folded block once, however many chains, twirls and cy
    # families run it, and each measurement basis once
    cfg = ExperimentConfig(sites=4, steps=4, shots=256, shots_per_trajectory=128,
                           twirls=2, zne_factors=(1.0, 2.0), readout_mode="off",
                           postselect=False, noise_preset="casablanca-like", seed=5)
    seen, built = record_runs(monkeypatch)
    variants = (run_zpi(cfg) if command == "zpi" else run_cy(cfg))["variants"]
    assert len(seen) == len(variants)
    ran = {id(plan) for _, parts, _ in seen.values() for plan in parts}
    blocks = [entry for entry in built if id(entry[0]) in ran]
    bases = [circuit for plan, circuit in built if id(plan) not in ran]
    keys = dict(zip((id(entry[0]) for entry in blocks), _plan_keys(blocks)))
    assert len(set(keys.values())) == len(keys) < len(variants)
    # each variant runs the plan of its own folded block
    for _, parts, circuit in seen.values():
        assert keys[id(parts[-1])] == tuple(_gate_list(circuit.gates))
    for v in variants:
        if v["step"] == 3:
            assert len(seen[tuple(v["seed_key"])][1]) == 4
    sweeps = len(variants) // ((cfg.steps + 1) * cfg.twirls * len(cfg.zne_factors))
    if command == "zpi":
        assert bases == []
    else:
        assert len(bases) == len(PARITIES) < sweeps == 16
        assert sorted(_gate_list(b.gates) for b in bases) == sorted(
            _gate_list(y_basis_rotation(cfg.sites, p).gates) for p in PARITIES)


def _sweep_blocks(cfg: ExperimentConfig, command: str):
    """(blocks, basis) of one zpi chain with DD, or of one cy family."""
    spec = cfg.noise_spec()
    params = cfg.model_params()
    prep = neel_prep_circuit(cfg.sites)
    basis = None
    if command == "zpi":
        step = mitigation.insert_dd(build_trotter_step(params, impl=cfg.impl, idle_ns=400.0),
                                    spec.pulse.single_pulse_ns)
    else:
        step = build_trotter_step(params, impl=cfg.impl)
        prep = Circuit(cfg.sites, prep.gates + cy_branch_prep(cfg.sites, 2, "+Y").gates)
        basis = y_basis_rotation(cfg.sites, "odd")
    return [prep] + [step] * cfg.steps, basis


def _probabilities(counts, lam):
    return counts.vector / counts.total_shots


@pytest.mark.parametrize("command", ["zpi", "cy"])
def test_untwirled_sweep_rows_equal_twirled_sweep_rows(monkeypatch, command):
    # with two-qubit, idle-flip and quasi-static noise but no overrotation
    # and no single-qubit error, the sweep runs its folded blocks
    # untwirled, and every infinite-shot row equals the row of a sweep
    # that twirls them
    cfg = ExperimentConfig(sites=4, steps=4, shots=256, shots_per_trajectory=64,
                           infinite_shots=True, twirls=2, zne_factors=(1.0, 2.0),
                           noise_preset="casablanca-like", seed=9,
                           noise_overrides={"idle_stochastic_rate_per_ns": 1e-4,
                                            "idle_dephasing_rad_per_ns": 0.002})
    blocks, basis = _sweep_blocks(cfg, command)
    assert not mitigation.twirl_is_visible(cfg.noise_spec())
    twirled = []
    twirl = mitigation.twirl_circuit
    monkeypatch.setattr(mitigation, "twirl_circuit",
                        lambda circuit, seed: twirled.append(seed) or twirl(circuit, seed))
    got = _sweep(cfg, cfg.noise_spec(), blocks, [cfg.seed, 0], _probabilities, basis)[0]
    assert twirled == []
    monkeypatch.setattr(mitigation, "twirl_is_visible", lambda spec: True)
    want = _sweep(cfg, cfg.noise_spec(), blocks, [cfg.seed, 0], _probabilities, basis)[0]
    assert len(twirled) == got.shape[0] * 2 * 2
    assert got.shape == want.shape == (cfg.steps + 1, 2, 2, 2**cfg.sites)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sweep_twirls_every_block_where_a_twirl_is_visible(monkeypatch):
    # under a coherent overrotation each variant's block is twirled from
    # its own variant key + [1]
    cfg = ExperimentConfig(sites=4, steps=2, shots=256, shots_per_trajectory=64,
                           infinite_shots=True, twirls=2, zne_factors=(1.0, 2.0),
                           noise_preset="casablanca-like", seed=9,
                           noise_overrides={"coherent_overrotation": 0.15})
    blocks, basis = _sweep_blocks(cfg, "cy")
    twirled = []
    twirl = mitigation.twirl_circuit
    monkeypatch.setattr(mitigation, "twirl_circuit",
                        lambda circuit, seed: twirled.append(seed) or twirl(circuit, seed))
    variants = _sweep(cfg, cfg.noise_spec(), blocks, [cfg.seed, 0], _probabilities, basis)[2]
    assert sorted(twirled) == sorted(v["seed_key"] + [1] for step in variants for v in step)
