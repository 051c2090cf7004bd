"""The entity-hour blame pipeline against the masked-copy reference.

``run_blame_analysis`` reduces every count plane to (entity, hour) sums
against the (C, S) keep mask instead of building masked (C, S, H) copies.
On random small datasets and pair masks, its rate matrices, Table 5
buckets and per-pair server-side attribution must equal the ones the
:meth:`~repro.core.dataset.MeasurementDataset.pair_exclusion_view`
(``MaskedCounts``) reference computes, and the slabbed dataset digest
must equal a one-shot hash of each whole array.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import blame, dataset as dataset_mod
from repro.core.dataset import MIN_SAMPLES_PER_HOUR, MeasurementDataset
from repro.core.episodes import (
    RateMatrix,
    entity_hour_sums,
    episode_matrix,
    rate_matrices,
)


def _random_dataset(seed: int, c: int, s: int, h: int) -> MeasurementDataset:
    world = SimpleNamespace(
        clients=[None] * c, websites=[None] * s, hours=h,
        max_replicas=lambda: 2,
    )
    ds = MeasurementDataset(world)
    rng = np.random.default_rng(seed)
    for name in ds._ARRAY_FIELDS:
        arr = getattr(ds, name)
        arr[...] = rng.integers(0, 4, arr.shape)
    ds.transactions[...] += rng.integers(0, 12, ds.shape, dtype=np.uint16)
    return ds


datasets = st.builds(
    _random_dataset,
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 6), s=st.integers(1, 6), h=st.integers(1, 8),
)


@st.composite
def dataset_and_mask(draw):
    ds = draw(datasets)
    c, s, _ = ds.shape
    if draw(st.booleans()):
        return ds, None
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ds, rng.random((c, s)) < density


def _view_rates(view, axis: int) -> RateMatrix:
    """Rates summed out of the masked (C, S, H) copies along ``axis``."""
    trans = view.transactions.sum(axis=axis, dtype=np.int64)
    fails = view.failures.sum(axis=axis, dtype=np.int64)
    rates = np.full(trans.shape, np.nan)
    enough = trans >= MIN_SAMPLES_PER_HOUR
    rates[enough] = fails[enough] / trans[enough]
    return RateMatrix(rates=rates, transactions=trans, failures=fails)


def _reference(ds, mask, threshold):
    view = ds if mask is None else ds.pair_exclusion_view(mask)
    client, server = _view_rates(view, 1), _view_rates(view, 0)
    c_flag = episode_matrix(client, threshold)[:, None, :]
    s_flag = episode_matrix(server, threshold)[None, :, :]
    tcp = view.tcp_failures.astype(np.int64)
    buckets = (
        int((tcp * (s_flag & ~c_flag)).sum()),
        int((tcp * (c_flag & ~s_flag)).sum()),
        int((tcp * (c_flag & s_flag)).sum()),
        int((tcp * (~c_flag & ~s_flag)).sum()),
    )
    return client, server, buckets, (tcp * s_flag).sum(axis=2)


def _same_rates(a, b) -> bool:
    return (
        np.array_equal(a.rates, b.rates, equal_nan=True)
        and np.array_equal(a.transactions, b.transactions)
        and np.array_equal(a.failures, b.failures)
    )


@settings(max_examples=80, deadline=None)
@given(case=dataset_and_mask())
def test_masked_entity_hour_sums_match_masked_view(case):
    ds, mask = case
    keep = None if mask is None else ~mask
    view = ds if mask is None else ds.pair_exclusion_view(mask)
    for plane, masked in (
        (ds.transactions, view.transactions),
        (ds.failures, view.failures),
        (ds.tcp_failures, view.tcp_failures),
    ):
        per_client, per_server = entity_hour_sums(plane, keep)
        assert np.array_equal(per_client, masked.sum(axis=1, dtype=np.int64))
        assert np.array_equal(per_server, masked.sum(axis=0, dtype=np.int64))
    client, server = rate_matrices(ds, mask)
    assert _same_rates(client, _view_rates(view, 1))
    assert _same_rates(server, _view_rates(view, 0))


@settings(max_examples=80, deadline=None)
@given(
    case=dataset_and_mask(),
    threshold=st.floats(0.01, 0.6, allow_nan=False),
)
def test_blame_buckets_match_masked_view(case, threshold):
    ds, mask = case
    analysis = blame.run_blame_analysis(ds, threshold, mask)
    client, server, buckets, attributed = _reference(ds, mask, threshold)
    assert _same_rates(analysis.client_rates, client)
    assert _same_rates(analysis.server_rates, server)
    b = analysis.breakdown
    assert (b.server_side, b.client_side, b.both, b.other) == buckets
    assert np.array_equal(analysis.server_attributed, attributed)
    # Table 5 through the shared analysis equals computing every row.
    assert blame.blame_table(
        ds, (threshold, 0.1), mask, analysis=analysis
    ) == blame.blame_table(ds, (threshold, 0.1), mask)


def _one_shot_digest(ds) -> str:
    h = hashlib.sha256()
    for name in ds._ARRAY_FIELDS:
        arr = getattr(ds, name)
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


@settings(max_examples=40, deadline=None)
@given(ds=datasets, slab_bytes=st.sampled_from([8, 24, 200, 4 << 20]))
def test_slabbed_digest_matches_one_shot_hash(ds, slab_bytes):
    saved = dataset_mod._DIGEST_SLAB_BYTES
    dataset_mod._DIGEST_SLAB_BYTES = slab_bytes
    try:
        blocks = ds.extract_block(0, ds.shape[2])
        assert ds.digest() == _one_shot_digest(ds)
        assert MeasurementDataset.block_digest(blocks) == ds.digest()
    finally:
        dataset_mod._DIGEST_SLAB_BYTES = saved
