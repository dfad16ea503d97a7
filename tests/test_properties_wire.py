"""Property-based tests (hypothesis) for the serve wire codec.

A client may send a tensor's IOU rows in any order and each row's
indices in any order; the daemon must decode the payload to exactly the
canonical tensor, so the result and the cache key match an in-process
submission bit for bit. A malformed payload must raise the typed
:class:`~repro.serve.jobs.InvalidJobError` and never decode to a spec.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import content_fingerprint
from repro.formats import SparseSymmetricTensor
from repro.serve import InvalidJobError, JobSpec
from repro.serve.wire import spec_from_wire, spec_to_wire
from repro.symmetry.permutations import canonicalize

COMMON = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def wire_payload(draw):
    """``(tensor, payload)`` for a small random tensor of an s3ttmc spec."""
    order = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 7))
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    idx = rng.integers(0, dim, size=(n, order))
    vals = rng.standard_normal(n)
    idx, vals = canonicalize(idx, vals, combine="first")
    tensor = SparseSymmetricTensor(order, dim, idx, vals, assume_canonical=True)
    factor = rng.random((dim, 2))
    payload = spec_to_wire(JobSpec(kind="s3ttmc", tensor=tensor, factor=factor))
    return tensor, payload


def scramble(payload, rng):
    """Shuffle the payload's rows and permute the indices within each."""
    indices = np.asarray(payload["tensor"]["indices"])
    values = np.asarray(payload["tensor"]["values"])
    order = rng.permutation(len(values))
    payload["tensor"]["indices"] = [
        rng.permutation(row).tolist() for row in indices[order]
    ]
    payload["tensor"]["values"] = values[order].tolist()


@COMMON
@given(wire_payload(), st.integers(0, 2**31 - 1))
def test_scrambled_rows_decode_to_the_canonical_tensor(case, seed):
    tensor, payload = case
    scramble(payload, np.random.default_rng(seed))
    back = spec_from_wire(payload).tensor
    assert back.indices.dtype == tensor.indices.dtype
    assert np.array_equal(back.indices, tensor.indices)
    assert back.values.tobytes() == tensor.values.tobytes()
    assert content_fingerprint(back) == content_fingerprint(tensor)


@pytest.mark.parametrize("order", [1, 3, 5])
def test_empty_tensor_round_trips(order):
    # Zero rows encode as ``[]``, which carries no row width; the decoder
    # must still accept the spec JobSpec.validate accepts in process.
    empty = np.zeros((0, order), dtype=np.int64)
    tensor = SparseSymmetricTensor(order, 4, empty, np.zeros(0))
    spec = JobSpec(kind="s3ttmc", tensor=tensor, factor=np.ones((4, 2)))
    spec.validate()
    payload = spec_to_wire(spec)
    assert payload["tensor"]["indices"] == []
    back = spec_from_wire(payload)
    back.validate()
    assert back.tensor.indices.shape == (0, order)
    assert content_fingerprint(back.tensor) == content_fingerprint(tensor)


def _drop_tensor(payload, rng):
    del payload["tensor"]


def _drop_tensor_field(payload, rng):
    del payload["tensor"][rng.choice(["order", "dim", "indices", "values"])]


def _widen_one_row(payload, rng):
    row = int(rng.integers(len(payload["tensor"]["indices"])))
    payload["tensor"]["indices"][row] = payload["tensor"]["indices"][row] + [0]


def _narrow_every_row(payload, rng):
    payload["tensor"]["order"] += 1


def _index_out_of_range(payload, rng):
    row = int(rng.integers(len(payload["tensor"]["indices"])))
    bad = payload["tensor"]["dim"] if rng.random() < 0.5 else -1
    payload["tensor"]["indices"][row][0] = int(bad)


def _fractional_index(payload, rng):
    payload["tensor"]["indices"][0][0] += 0.5


def _duplicate_row(payload, rng):
    row = int(rng.integers(len(payload["tensor"]["indices"])))
    dup = list(reversed(payload["tensor"]["indices"][row]))
    payload["tensor"]["indices"].append(dup)
    payload["tensor"]["values"].append(1.0)


def _nonfinite_value(payload, rng):
    row = int(rng.integers(len(payload["tensor"]["values"])))
    payload["tensor"]["values"][row] = float(rng.choice([np.nan, np.inf, -np.inf]))


def _nonfinite_factor(payload, rng):
    payload["factor"][0][int(rng.integers(2))] = float("nan")


CORRUPTIONS = {
    "missing tensor": (_drop_tensor, "tensor"),
    "missing tensor field": (_drop_tensor_field, "misses field"),
    "row wider than order": (_widen_one_row, "malformed"),
    "rows narrower than order": (_narrow_every_row, "indices must be"),
    "index out of range": (_index_out_of_range, "out of range"),
    "fractional index": (_fractional_index, "integers"),
    "duplicate row": (_duplicate_row, "duplicate"),
    "non-finite value": (_nonfinite_value, "tensor values must be finite"),
    "non-finite factor": (_nonfinite_factor, "factor must be finite"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@COMMON
@given(case=wire_payload(), seed=st.integers(0, 2**31 - 1))
def test_malformed_payload_raises_typed_error(corruption, case, seed):
    _, payload = case
    rng = np.random.default_rng(seed)
    scramble(payload, rng)
    spec_from_wire(copy.deepcopy(payload))  # the scrambled payload is valid
    corrupt, match = CORRUPTIONS[corruption]
    corrupt(payload, rng)
    with pytest.raises(InvalidJobError, match=match):
        spec_from_wire(payload)
