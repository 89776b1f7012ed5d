"""Dense counts against per-bitstring reference computations.

Every check here rebuilds the quantity from ``Counts.data`` (bitstring
keys, leftmost character = site 1) with plain Python loops, so it is
independent of the lookup tables the package contracts the vector with.
"""
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scarsim.experiments import _estimates
from scarsim.mitigation import postselect
from scarsim.noise import ConfusionMatrix, NoiseSpec, run_noisy_counts
from scarsim.observables import (
    loschmidt_echo,
    parity_sites,
    per_site_z,
    pyp_expectation,
    staggered_magnetization,
)
from scarsim.qsim import Circuit, Counts, Statevector, cnot, run_circuit, ry

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def counts(draw, quasi_allowed=True):
    """Sampled (integer) or signed quasi-counts on 1..6 sites with a
    nonzero total weight."""
    width = draw(st.integers(1, 6))
    dim = 2**width
    quasi = quasi_allowed and draw(st.booleans())
    if quasi:
        values = draw(st.lists(
            st.floats(-50.0, 200.0, allow_nan=False).map(lambda v: round(v, 3)),
            min_size=dim, max_size=dim))
    else:
        values = draw(st.lists(st.integers(0, 40), min_size=dim, max_size=dim))
    vec = np.array(values, dtype=float)
    if abs(vec.sum()) < 1e-3:
        vec[draw(st.integers(0, dim - 1))] += 7.0
    return Counts(vec, float(vec.sum()), quasi=quasi)


def _reference_weights(c: Counts) -> dict[str, float]:
    total = sum(c.data.values())
    return {key: value / total for key, value in c.data.items()}


@PROPERTY
@given(counts())
def test_per_site_z_and_staggered_against_bitstrings(c):
    w = _reference_weights(c)
    expected = [sum(p * (1 - 2 * int(key[i])) for key, p in w.items()) for i in range(c.width)]
    np.testing.assert_allclose(per_site_z(c), expected, atol=1e-9)
    stagger = sum((-1) ** (i + 1) * z for i, z in enumerate(expected))
    assert staggered_magnetization(c) == pytest.approx(stagger, abs=1e-9)


@PROPERTY
@given(counts(), st.data())
def test_loschmidt_echo_against_bitstrings(c, data):
    reference = data.draw(st.text("01", min_size=c.width, max_size=c.width))
    w = _reference_weights(c)
    for flips in (0, 1):
        expected = sum(
            p for key, p in w.items()
            if sum(a != b for a, b in zip(key, reference)) <= flips
        )
        assert loschmidt_echo(c, reference, flips) == pytest.approx(expected, abs=1e-9)


@PROPERTY
@given(counts(), st.booleans(), st.data())
def test_estimate_row_equals_the_separate_estimators_bit_for_bit(c, select, data):
    # sampled counts, quasi-counts with negative entries, or either after
    # postselection: one support pass gives the values the estimators give
    if select:
        sel = postselect(c)
        assume(not sel.empty)
        c = sel.counts
    reference = data.draw(st.text("01", min_size=c.width, max_size=c.width))
    row = _estimates(c, reference, retained=0.25)
    want = np.concatenate(([staggered_magnetization(c), loschmidt_echo(c, reference, 0),
                            loschmidt_echo(c, reference, 1)], per_site_z(c), [0.25]))
    assert row.tobytes() == want.tobytes()


@PROPERTY
@given(counts(), st.sampled_from(["even", "odd"]))
def test_pyp_expectation_against_bitstrings(c, parity):
    w = _reference_weights(c)
    L = c.width
    expected = []
    for j in parity_sites(L, parity):
        total = 0.0
        for key, p in w.items():
            value = 1 - 2 * int(key[j - 1])
            for nb in (j - 1, j + 1):
                if 1 <= nb <= L and key[nb - 1] == "1":
                    value = 0
            total += p * value
        expected.append(total)
    got = pyp_expectation(c, parity)
    assert got.shape == (len(expected),) and got.dtype == float
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)


@PROPERTY
@given(counts())
def test_postselect_against_bitstrings(c):
    kept = {key: v for key, v in c.data.items() if "11" not in key}
    total_in = sum(c.data.values())
    res = postselect(c)
    assert dict(res.counts.data) == pytest.approx(kept)
    assert res.counts.total_shots == pytest.approx(sum(kept.values()))
    assert res.retained_fraction == pytest.approx(sum(kept.values()) / total_in)
    assert res.empty == (not kept or sum(kept.values()) <= 0)
    assert res.counts.quasi == c.quasi


def _per_shot_tensor_reference(c: Counts, m: ConfusionMatrix, seed) -> dict[str, float]:
    """One uniform per shot and bit, outcomes in ascending order, shots of
    one outcome together, bits left to right."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for key in sorted(c.data):
        for _ in range(int(round(c.data[key]))):
            bits = []
            for k, ch in enumerate(key):
                rate = m.factors[k][1, 0] if ch == "0" else m.factors[k][0, 1]
                flip = rng.random() < rate
                bits.append(str(int(ch) ^ int(flip)))
            new = "".join(bits)
            out[new] = out.get(new, 0.0) + 1.0
    return out


def _assert_multinomial_moments(samples: np.ndarray, n: int, q: np.ndarray) -> None:
    """The mean and covariance of ``samples`` (one count vector per row)
    match those of Multinomial(n, q): n q and n (diag q - q q^T), each
    entry within 5 standard errors estimated from the samples (the
    covariance from products of deviations from the exact mean)."""
    dev = samples - n * q
    se_mean = np.sqrt(n * q * (1 - q) / len(samples))
    assert np.all(np.abs(dev.mean(axis=0)) <= 5 * se_mean + 1e-12)
    prods = dev[:, :, None] * dev[:, None, :]
    cov = n * (np.diag(q) - np.outer(q, q))
    se_cov = prods.std(axis=0) / np.sqrt(len(samples))
    assert np.all(np.abs(prods.mean(axis=0) - cov) <= 5 * se_cov + 1e-9)


def _sample_then_read(p: np.ndarray, n: int, m: ConfusionMatrix, seeds) -> np.ndarray:
    """One count vector per seed: n shots drawn from p, then read out by
    ``_per_shot_tensor_reference``."""
    width = m.L
    out = np.zeros((len(seeds), 2**width))
    for row, seed in zip(out, seeds):
        shots = np.random.default_rng([seed, 0]).multinomial(n, p).astype(float)
        read = _per_shot_tensor_reference(Counts(shots, float(n)), m, [seed, 1])
        for key, value in read.items():
            row[int(key, 2)] = value
    return out


SEEDS = range(1500)


def test_tensor_readout_matches_per_shot_reference():
    # the executor's readout channel before sampling against sampling
    # then flipping each shot's bits: both Multinomial(n, M p)
    n, width = 40, 3
    spec = NoiseSpec(two_qubit_target_error=0.0, readout_eps=0.12, readout_eta=0.3)
    circ = Circuit(width, [ry(0, 1.1), ry(1, 2.2), cnot(1, 2), ry(2, 0.4)])
    p = np.abs(run_circuit(Statevector.zero(width), circ).amplitudes) ** 2
    m = ConfusionMatrix.from_rates(width, spec.readout_eps, spec.readout_eta)
    q = reduce(np.kron, m.factors) @ p
    channel = np.array([run_noisy_counts(circ, spec, n, seed).vector for seed in SEEDS])
    _assert_multinomial_moments(channel, n, q)
    _assert_multinomial_moments(_sample_then_read(p, n, m, SEEDS), n, q)


@PROPERTY
@given(counts())
def test_from_dict_and_data_round_trip(c):
    data = dict(c.data)
    assert all(v != 0 for v in data.values()) and len(data) == len(c.data)
    back = Counts.from_dict(data, c.total_shots, c.width, quasi=c.quasi)
    np.testing.assert_array_equal(back.vector, c.vector)
    assert dict(back.data) == data
    assert sorted(data) == list(data)  # ascending outcome order
    assert list(c.data.values()) == [data[k] for k in data]


def test_from_dict_rejects_bad_keys():
    with pytest.raises(ValueError):
        Counts.from_dict({"012": 1.0}, 1.0, 3)
    with pytest.raises(ValueError):
        Counts.from_dict({"01": 1.0}, 1.0, 3)


def test_vector_is_read_only():
    c = Counts.from_dict({"01": 2.0}, 2.0, 2)
    with pytest.raises(ValueError):
        c.vector[0] = 1.0


def test_data_view_is_read_only_and_lazy():
    c = Counts.from_dict({"10": 2.0, "01": 1.0}, 3.0, 2)
    view = c.data
    assert len(view) == 2 and view["10"] == 2.0 and "00" not in view
    with pytest.raises(TypeError):
        view["00"] = 1.0
