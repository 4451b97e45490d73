import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dicode import channel
from dicode.channel import (
    ROW_EQUAL_TOL,
    bernoulli_family,
    channel_to_spec,
    dedupe_and_purge,
    identity_channel,
    load_channel,
    make_channel,
    truncate_channel,
)
from dicode.cli import main
from dicode.errors import SizeGuardError, ValidationError
from dicode.infodist import entropy, fidelity


def test_identity_load(tmp_path):
    spec = {"inputs": ["a", "b"], "matrix": [[1, 0], [0, 1]]}
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    W = load_channel(path)
    assert W.n_inputs == 2
    assert np.allclose(W.matrix, np.eye(2))


def test_bernoulli_spec_file(tmp_path):
    path = tmp_path / "bern.json"
    path.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": 3}))
    W = load_channel(path)
    xs = W.matrix[:, 1]
    assert sorted(xs) == [0.0, 0.125, 0.25, 0.5, 1.0]
    assert np.allclose(W.matrix[:, 0], 1 - xs)


def test_row_sum_violation_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"inputs": ["a"], "matrix": [[0.5, 0.500002]]}))
    with pytest.raises(ValidationError):
        load_channel(path)


def test_negative_entry_rejected():
    with pytest.raises(ValidationError):
        make_channel(["a", "b"], [[1.1, -0.1], [0.5, 0.5]])


# json reads NaN and Infinity; a NaN entry passed every check and gave a NaN
# row-sum residual, a NaN cost a NaN power_capacity row
NON_FINITE_SPECS = {
    "matrix-nan": ('[[NaN, 0.5], [0.5, 0.5]]', 'null'),
    "matrix-inf": ('[[Infinity, 0.5], [0.5, 0.5]]', 'null'),
    "cost-nan": ('[[0.5, 0.5], [0.5, 0.5]]', '[NaN, 1]'),
    "cost-inf": ('[[0.5, 0.5], [0.5, 0.5]]', '[Infinity, 1]'),
}


@pytest.mark.parametrize("matrix,cost", NON_FINITE_SPECS.values(), ids=NON_FINITE_SPECS.keys())
def test_non_finite_entry_rejected(matrix, cost, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"inputs": ["a", "b"], "matrix": {matrix}, "cost": {cost}}}')
    with pytest.raises(ValidationError, match="finite"):
        load_channel(path)


# at k_max = 0 a NaN base gives the finite ladder [0.0, nan**0] = [0.0, 1.0]
@pytest.mark.parametrize("k_max", [0, 3])
def test_nan_bernoulli_base_rejected(k_max, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"family": "bernoulli", "a": NaN, "k_max": {k_max}}}')
    with pytest.raises(ValidationError, match="a > 1"):
        load_channel(path)


# JSON numbers only: int(True) and int(6.7) used to load as k_max 1 and 6
NON_NUMBER_FIELDS = {"k-max-bool": {"k_max": True}, "k-max-real": {"k_max": 6.7},
                     "k-max-string": {"k_max": "6"}, "a-bool": {"a": True},
                     "a-string": {"a": "2.0"}, "a-null": {"a": None}}


@pytest.mark.parametrize("field", NON_NUMBER_FIELDS.values(), ids=NON_NUMBER_FIELDS.keys())
def test_bernoulli_spec_needs_json_numbers(field, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": 6} | field))
    with pytest.raises(ValidationError, match="a number a and an integer k_max"):
        load_channel(path)


# a ragged matrix raised numpy's ValueError (exit 1); "ab" loaded as labels a
# and b, and bool or numeric-string entries converted to 0/1 and floats;
# repeated, null, list or number labels loaded as their str()
BAD_EXPLICIT_FIELDS = {
    "matrix-ragged": ({"matrix": [[0.5, 0.5], [1.0]]}, "matrix"),
    "matrix-ragged-deep": ({"matrix": [[0.5, 0.5], [0.5, [0.5]]]}, "matrix"),
    "matrix-not-rows": ({"matrix": [0.5, 0.5]}, "matrix"),
    "matrix-bool": ({"matrix": [[True, False], [False, True]]}, "matrix"),
    "matrix-string": ({"matrix": [["0.9", "0.1"], ["0.2", "0.8"]]}, "matrix"),
    "matrix-null": ({"matrix": [[None, 1.0], [0.5, 0.5]]}, "matrix"),
    "inputs-string": ({"inputs": "ab"}, "inputs"),
    "inputs-object": ({"inputs": {"a": 0, "b": 1}}, "inputs"),
    "inputs-repeated": ({"inputs": ["a", "a"]}, "inputs"),
    "inputs-null-list": ({"inputs": [None, [1]]}, "inputs"),
    "inputs-numbers": ({"inputs": [1, 2]}, "inputs"),
    "cost-bool": ({"cost": [True, False]}, "cost"),
    "cost-string": ({"cost": ["1", "0"]}, "cost"),
    "cost-number": ({"cost": 1.0}, "cost"),
}


@pytest.mark.parametrize("field,key", BAD_EXPLICIT_FIELDS.values(),
                         ids=BAD_EXPLICIT_FIELDS.keys())
def test_explicit_spec_needs_lists_of_json_numbers(field, key, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"inputs": ["a", "b"], "matrix": [[0.5, 0.5], [0.2, 0.8]]}
                               | field))
    with pytest.raises(ValidationError, match=f"channel spec {key} must be"):
        load_channel(path)


def test_soft_residual_renormalized():
    W = make_channel(["a"], [[0.5, 0.5 + 1e-9]])
    assert abs(W.matrix[0].sum() - 1.0) < 1e-12
    assert 0 < W.renorm_residual <= 1e-6


def test_bernoulli_family_values():
    W = bernoulli_family(2.0, 2)
    assert list(W.matrix[:, 1]) == [0.0, 1.0, 0.5, 0.25]
    assert W.n_inputs == 4
    W0 = bernoulli_family(4.0, 0)
    assert list(W0.matrix[:, 1]) == [0.0, 1.0]
    W3 = bernoulli_family(2.0, 3)
    assert tuple(W3.matrix[4]) == (0.875, 0.125)
    with pytest.raises(ValidationError):
        bernoulli_family(1.0, 2)


def test_underflowing_ladder_refused_before_it_is_built(tmp_path):
    """2^-k_max is 0.0, so the last ladder point repeats x = 0: the spec is
    refused before its 10^9 points are built."""
    spec = tmp_path / "ladder.json"
    spec.write_text(json.dumps({"family": "bernoulli", "a": 2, "k_max": 1000000000}))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="ladder points are not distinct"):
            load_channel(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["channel", "check", "--channel", str(spec)]) == 2


def test_ladder_size_guard(monkeypatch):
    """A 10^5-point ladder is admitted; past LADDER_SIZE_LIMIT points the
    ladder is refused before it is built."""
    assert bernoulli_family(1.0001, 10**5).n_inputs == 10**5 + 2
    monkeypatch.setattr(channel, "LADDER_SIZE_LIMIT", 10)
    assert bernoulli_family(2.0, 8).n_inputs == 10
    with pytest.raises(SizeGuardError, match="ladder of 11 points"):
        bernoulli_family(2.0, 9)


# keys outside the spec's form used to load and be ignored: "costs" as zero costs
UNREAD_KEYS = {
    "explicit-costs": {"inputs": ["a", "b"], "matrix": [[0.9, 0.1], [0.2, 0.8]],
                       "costs": [0, 5]},
    "explicit-a": {"inputs": ["a", "b"], "matrix": [[0.9, 0.1], [0.2, 0.8]], "a": 2.0},
    "bernoulli-cost": {"family": "bernoulli", "a": 2.0, "k_max": 6, "cost": [0] * 8},
    "bernoulli-matrix": {"family": "bernoulli", "a": 2.0, "k_max": 0,
                         "matrix": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("spec", UNREAD_KEYS.values(), ids=UNREAD_KEYS.keys())
def test_spec_keys_outside_its_form_refused(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValidationError, match="channel spec keys .* are not read"):
        load_channel(path)


def test_truncate_hand_case():
    W = make_channel(["x"], [[0.5, 0.4999, 1e-4]])
    V = truncate_channel(W, 0.5, 10)
    assert V.matrix[0, 2] == 0.0
    k = 0.5 + 0.4999
    assert V.matrix[0, 0] == pytest.approx(0.5 / k, abs=1e-15)
    assert V.matrix[0, 1] == pytest.approx(0.4999 / k, abs=1e-15)


def test_truncate_no_op_and_domination():
    rng = np.random.default_rng(5)
    m = rng.random((4, 5)) + 0.05
    m /= m.sum(axis=1, keepdims=True)
    W = make_channel(list("abcd"), m)
    delta, n = 0.3, 7
    V = truncate_channel(W, delta, n)
    # all entries above threshold: unchanged
    assert np.allclose(V.matrix, W.matrix)
    # rows sum to one and letterwise domination holds
    Ws = make_channel(["x", "y"], [[0.98, 0.015, 0.005], [0.4, 0.59, 0.01]])
    Vs = truncate_channel(Ws, 0.5, 10)
    assert np.allclose(Vs.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(Vs.matrix <= Ws.matrix / (1 - 0.5 / 10) + 1e-15)


def test_purge_keeps_cheapest():
    W = make_channel(["a", "b", "c"], [[1, 0], [1, 0], [0, 1]], cost=[2, 1, 0])
    P = dedupe_and_purge(W)
    assert P.n_inputs == 2
    assert P.input_labels == ("b", "c")
    # idempotent
    P2 = dedupe_and_purge(P)
    assert P2.input_labels == P.input_labels
    # all rows equal: one survivor
    Q = dedupe_and_purge(make_channel(list("abc"), [[0.5, 0.5]] * 3))
    assert Q.n_inputs == 1
    # identity unchanged
    assert dedupe_and_purge(identity_channel(2)).n_inputs == 2


def purge_reference(W):
    """The pairwise loop that dedupe_and_purge vectorizes: the kept inputs."""
    cost = W.cost_vector()
    keep = []
    for i in range(W.n_inputs):
        matched = None
        for pos, j in enumerate(keep):
            if np.max(np.abs(W.matrix[i] - W.matrix[j])) <= ROW_EQUAL_TOL:
                matched = pos
                break
        if matched is None:
            keep.append(i)
        elif cost[i] < cost[keep[matched]]:
            keep[matched] = i
    return sorted(keep)


@st.composite
def planted_duplicates(draw):
    """A channel whose rows are copies of a few base rows, each moved by 0, a
    fraction of, about one or a few ROW_EQUAL_TOL, or far; costs tie often."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_y = draw(st.integers(2, 4))
    bases = rng.random((draw(st.integers(1, 4)), n_y)) + 0.1
    bases /= bases.sum(axis=1, keepdims=True)
    rows = bases[rng.integers(0, len(bases), draw(st.integers(1, 12)))]
    shift = rng.choice([0.0, 0.4, 1.0, 2.0, 1e6], len(rows)) * ROW_EQUAL_TOL
    rows[:, 0] += shift
    rows[:, 1] -= shift
    cost = rng.integers(0, 3, len(rows)) if draw(st.booleans()) else None
    return make_channel([str(i) for i in range(len(rows))], rows, cost=cost)


@settings(max_examples=200, deadline=None)
@given(planted_duplicates())
def test_purge_matches_the_loop_reference(W):
    keep = purge_reference(W)
    P = dedupe_and_purge(W)
    assert P.input_labels == tuple(W.input_labels[i] for i in keep)
    assert (P.cost is None) == (W.cost is None)
    if W.cost is not None:
        assert np.array_equal(P.cost, W.cost[keep])


TABLES = ("log2", "entropies", "fidelities", "purged", "sqrt_cloud", "raw_cloud")


def test_tables_built_once_and_read_only():
    W = make_channel(list("abc"), [[1, 0, 0], [1, 0, 0], [0.25, 0.25, 0.5]], cost=[1, 0, 2])
    for name in TABLES:
        assert getattr(W, name) is getattr(W, name), name
    for table in (W.log2, W.fidelities, W.sqrt_cloud.points, W.raw_cloud.points):
        assert not table.flags.writeable
    assert W.entropies == tuple(entropy(row) for row in W.matrix) == (0.0, 0.0, 1.5)


def test_log2_table_has_minus_inf_at_zeros():
    W = bernoulli_family(2.0, 6)
    with np.errstate(divide="ignore"):
        want = np.log2(W.matrix)
    assert W.log2.tobytes() == want.tobytes()
    assert W.log2[0, 1] == -np.inf and W.log2[1, 0] == -np.inf


def test_fidelities_equal_fidelity_bitwise():
    rng = np.random.default_rng(7)
    channels = [bernoulli_family(2.0, 6), identity_channel(3)]
    for n_y in (2, 5, 39):
        m = rng.random((6, n_y)) * (rng.random((6, n_y)) < 0.8)
        m[:, 0] += 1e-3
        channels.append(make_channel(list("abcdef"), m / m.sum(axis=1, keepdims=True)))
    for W in channels:
        for a in range(W.n_inputs):
            for b in range(W.n_inputs):
                assert float.hex(float(W.fidelities[a, b])) == \
                    float.hex(fidelity(W.matrix[a], W.matrix[b]))


def test_purged_equals_dedupe_and_purge():
    W = make_channel(list("abcd"), [[1, 0], [0.5, 0.5], [1, 0], [0.5, 0.5]],
                     cost=[2, 1, 0, 3])
    P, Q = W.purged, dedupe_and_purge(W)
    assert P.input_labels == Q.input_labels == ("b", "c")
    assert P.matrix.tobytes() == Q.matrix.tobytes()
    assert P.cost.tobytes() == Q.cost.tobytes()


def test_tables_die_with_their_channel():
    W = bernoulli_family(2.0, 6)
    refs = [weakref.ref(W.sqrt_cloud), weakref.ref(W.raw_cloud), weakref.ref(W.purged)]
    del W
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_rows_are_distributions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.random((3, 4))
        m /= m.sum(axis=1, keepdims=True)
        W = make_channel(list("abc"), m)
        assert np.all(W.matrix >= 0)
        assert np.allclose(W.matrix.sum(axis=1), 1.0, atol=1e-12)


# every refusal of the channel layer: (call, exception type, message fragment)
CHANNEL_REFUSALS = {
    "matrix-not-2d": (lambda: make_channel(["a"], [0.5, 0.5]), ValidationError, "2-d"),
    "no-input": (lambda: make_channel([], np.zeros((0, 2))), ValidationError,
                 "at least one input"),
    "one-output": (lambda: make_channel(["a"], [[1.0]]), ValidationError,
                   "at least two outputs"),
    "entry-above-1": (lambda: make_channel(["a"], [[1.5, -0.0]]), ValidationError,
                      "entries above 1"),
    "label-count": (lambda: make_channel(["a"], [[1, 0], [0, 1]]), ValidationError,
                    "label count"),
    "cost-length": (lambda: make_channel(["a", "b"], [[1, 0], [0, 1]], cost=[1.0]),
                    ValidationError, "cost vector length"),
    "negative-k-max": (lambda: bernoulli_family(2.0, -1), ValidationError, "k_max must be >= 0"),
    # 1.5^-k rounds to one subnormal for two k near 1837, where it is not yet 0
    "repeated-ladder-point": (lambda: bernoulli_family(1.5, 1837), ValidationError,
                              "not distinct"),
    "truncate-delta": (lambda: truncate_channel(identity_channel(2), 1.0, 4), ValidationError,
                       "delta must lie in (0, 1)"),
    "truncate-n": (lambda: truncate_channel(identity_channel(2), 0.5, 0), ValidationError,
                   "n must be >= 1"),
}


@pytest.mark.parametrize("call,kind,fragment", CHANNEL_REFUSALS.values(),
                         ids=CHANNEL_REFUSALS.keys())
def test_channel_refusals(call, kind, fragment):
    with pytest.raises(kind, match=re.escape(fragment)):
        call()


# spec files load_channel refuses: (file text, or None for no file, and message fragment)
SPEC_REFUSALS = {
    "no-file": (None, "cannot read channel spec"),
    "not-json": ("{", "cannot read channel spec"),
    "not-an-object": ("[1, 2]", "must be a JSON object"),
    "unknown-family": ('{"family": "poisson", "a": 2.0, "k_max": 3}', "unknown channel family"),
    "no-matrix": ('{"inputs": ["a", "b"]}', "missing key 'matrix'"),
}


@pytest.mark.parametrize("text,fragment", SPEC_REFUSALS.values(), ids=SPEC_REFUSALS.keys())
def test_spec_file_refusals(text, fragment, tmp_path):
    path = tmp_path / "chan.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        load_channel(path)


def test_spec_round_trip_keeps_costs(tmp_path):
    W = make_channel(["a", "b"], [[0.9, 0.1], [0.2, 0.8]], cost=[0.0, 5.0])
    spec = channel_to_spec(W)
    assert spec["cost"] == [0.0, 5.0]
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(spec))
    assert load_channel(path).cost.tolist() == [0.0, 5.0]
