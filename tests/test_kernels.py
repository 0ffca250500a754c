"""Kernel-layer battery: reference semantics and goldens.

Three layers of defense for the ``repro.core.kernels`` contract:

* hypothesis property tests pin each kernel to its naive per-segment
  reference (including 0-row and single-row segments);
* a digest pins every kernel's output bytes and dtypes on one fixed
  payload, so a rewrite that changes a summation order or an index
  dtype fails here before it shifts an engine's output;
* a golden test pins the categorical cutpoint table to the exact
  ``searchsorted(cdf, u, side='left')`` draws it replaces, so a table
  rebuild can never silently shift a sampled index.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, integer_dtypes, unsigned_integer_dtypes

from sampling_reference import sample_n

from repro.core.kernels import (
    CategoricalTable,
    CategoricalTableStack,
    group_slices,
    isin_sorted,
    load_npz_members,
    merge_unique,
    merge_vocabularies,
    pool_map,
    resolve_workers,
    save_npz_payload,
    searchsorted_left,
    segment_ids,
    segmented_arange,
    segmented_cumsum,
    segmented_offsets_base,
    segmented_offsets_scatter,
    setdiff_sorted,
    shard_sizes,
    sorted_lookup,
    spawn_shard_streams,
    unique_first,
    unique_sorted,
)

counts_arrays = st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=12).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


def naive_segmented_arange(counts):
    return np.concatenate([np.arange(c, dtype=np.int64) for c in counts] or [np.zeros(0, np.int64)])


# -- reference semantics (property tests) --------------------------------


@given(counts=counts_arrays)
@settings(max_examples=50)
def test_segmented_arange_matches_naive(counts):
    got = segmented_arange(counts)
    expected = naive_segmented_arange(counts)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@given(counts=counts_arrays, data=st.data())
@settings(max_examples=50)
def test_segmented_cumsum_matches_per_segment(counts, data):
    # Integer-valued floats make every partial sum exact, so the
    # kernel's running-sum-difference evaluation and the naive
    # per-segment cumsum must agree to the bit.  (For arbitrary floats
    # the kernel's documented contract is its own fixed summation
    # order, which the engine goldens pin instead.)
    total = int(counts.sum())
    values = np.asarray(
        data.draw(st.lists(st.integers(-1000, 1000), min_size=total, max_size=total)),
        dtype=np.float64,
    )
    got = segmented_cumsum(values, counts)
    pieces, pos = [], 0
    for c in counts:
        pieces.append(np.cumsum(values[pos:pos + c]))
        pos += int(c)
    expected = np.concatenate(pieces or [np.zeros(0)])
    assert np.array_equal(got, expected)


@given(counts=counts_arrays)
@settings(max_examples=50)
def test_segment_ids_matches_repeat(counts):
    got = segment_ids(counts)
    expected = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    assert np.array_equal(got, expected)


@given(codes=st.lists(st.integers(-5, 5), min_size=0, max_size=40).map(np.asarray))
@settings(max_examples=50)
def test_group_slices_partitions_stably(codes):
    order, keys, bounds = group_slices(codes)
    assert np.array_equal(keys, np.unique(codes))
    assert bounds[0] == 0 and bounds[-1] == codes.size
    seen = []
    for g in range(keys.size):
        idx = order[bounds[g]:bounds[g + 1]]
        # Every slice holds exactly its key's rows, in original order.
        assert np.array_equal(np.sort(idx), idx)
        assert (np.asarray(codes)[idx] == keys[g]).all()
        seen.append(idx)
    if seen:
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(codes.size))


@given(
    counts=st.lists(st.integers(min_value=1, max_value=7), min_size=0, max_size=12).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    data=st.data(),
)
@settings(max_examples=30)
def test_segmented_offsets_forms_match_their_loops(counts, data):
    # One `first` entry per (non-empty) segment -- the engines filter
    # to sessions that emit at least one query before calling these.
    n = counts.size
    total = int(counts.sum())
    n_gaps = int(np.maximum(counts - 1, 0).sum())
    first = np.asarray(
        data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n)), dtype=np.float64
    )
    gaps = np.asarray(
        data.draw(st.lists(st.integers(0, 10), min_size=n_gaps, max_size=n_gaps)),
        dtype=np.float64,
    )
    scatter = segmented_offsets_scatter(first, gaps, counts)
    base = segmented_offsets_base(first, gaps, counts)
    pos = 0
    gpos = 0
    exp_scatter, exp_base = np.empty(total), np.empty(total)
    for i, c in enumerate(counts):
        seg_gaps = gaps[gpos:gpos + max(int(c) - 1, 0)]
        gpos += max(int(c) - 1, 0)
        if c:
            exp_scatter[pos:pos + c] = np.cumsum(np.concatenate([[first[i]], seg_gaps]))
            exp_base[pos:pos + c] = first[i] + np.cumsum(np.concatenate([[0.0], seg_gaps]))
        pos += int(c)
    assert np.array_equal(scatter, exp_scatter)
    assert np.array_equal(base, exp_base)


cdf_arrays = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30
).map(lambda ws: np.cumsum(np.asarray(ws) / np.sum(ws)))


@given(cdf=cdf_arrays, data=st.data())
@settings(max_examples=50)
def test_categorical_table_matches_searchsorted(cdf, data):
    cdf[-1] = 1.0
    n = data.draw(st.integers(0, 64))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n)
    table = CategoricalTable(cdf)
    assert np.array_equal(table.lookup(u), searchsorted_left(cdf, u))


@given(data=st.data())
@settings(max_examples=30)
def test_categorical_stack_matches_broadcast_compare(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows = data.draw(st.integers(1, 5))
    n_cats = data.draw(st.integers(1, 8))
    weights = rng.random((n_rows, n_cats)) + 1e-6
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    stack = CategoricalTableStack(cum)
    n = data.draw(st.integers(0, 64))
    rows = rng.integers(0, n_rows, size=n)
    u = rng.random(n)
    got = stack.lookup(rows, u)
    expected = (u[:, None] > cum[rows]).sum(axis=1)
    assert np.array_equal(got, expected)


# -- sorted-set membership kernels ---------------------------------------


sorted_unique_arrays = st.lists(
    st.integers(-50, 50), min_size=0, max_size=30
).map(lambda xs: np.unique(np.asarray(xs, dtype=np.int64)))

value_arrays = st.lists(st.integers(-60, 60), min_size=0, max_size=40).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


@given(haystack=sorted_unique_arrays, values=value_arrays)
@settings(max_examples=50)
def test_sorted_lookup_matches_python_sets(haystack, values):
    mask, idx = sorted_lookup(haystack, values)
    pool = set(haystack.tolist())
    assert np.array_equal(mask, np.asarray([v in pool for v in values.tolist()], bool))
    assert np.array_equal(isin_sorted(haystack, values), mask)
    # Positions are exact wherever the mask says "present".
    if mask.any():
        assert np.array_equal(haystack[idx[mask]], values[mask])


@given(a=sorted_unique_arrays, b=sorted_unique_arrays)
@settings(max_examples=50)
def test_merge_and_diff_match_python_sets(a, b):
    union = merge_unique(a, b)
    assert np.array_equal(union, np.asarray(sorted(set(a) | set(b)), dtype=np.int64))
    diff = setdiff_sorted(a, b)
    assert np.array_equal(diff, np.asarray(sorted(set(a) - set(b)), dtype=np.int64))
    # Outputs keep the sorted-unique invariant the inputs carried.
    assert (np.diff(union) > 0).all()
    assert (np.diff(diff) > 0).all()


#: Wide mostly-distinct keys, duplicate-heavy narrow keys, and every
#: integer dtype over its full range (spans too wide for unique_first).
key_arrays = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), max_size=40).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    st.lists(st.integers(-3, 3), max_size=60).map(lambda xs: np.asarray(xs, dtype=np.int64)),
    arrays(
        st.one_of(integer_dtypes(endianness="="), unsigned_integer_dtypes(endianness="=")),
        st.integers(0, 40),
    ),
)


def _packs(keys):
    """Whether unique_first can pack ``keys`` with their positions."""
    if keys.size == 0:
        return True
    bits = (keys.size - 1).bit_length()
    return int(keys.max()) - int(keys.min()) < 2 ** (63 - bits)


@given(keys=key_arrays)
@settings(max_examples=100)
def test_unique_sorted_matches_np_unique(keys):
    got, expected = unique_sorted(keys), np.unique(keys)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(keys=key_arrays)
@settings(max_examples=100)
def test_unique_first_matches_np_unique_return_index(keys):
    if not _packs(keys):
        with pytest.raises(ValueError):
            unique_first(keys)
        return
    got, first = unique_first(keys)
    expected, expected_first = np.unique(keys, return_index=True)
    assert got.dtype == expected.dtype and first.dtype == expected_first.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(first, expected_first)


@pytest.mark.parametrize(
    "keys",
    [[], [5], [7] * 9, [3, -1, 3, 3, -1, 0, 0, 3], [2**61 - 1, 0, 2**61 - 1]],
    ids=["empty", "single", "all-equal", "duplicates", "widest-span"],
)
def test_unique_kernels_on_edge_inputs(keys):
    keys = np.asarray(keys, dtype=np.int64)
    assert np.array_equal(unique_sorted(keys), np.unique(keys))
    got, first = unique_first(keys)
    expected, expected_first = np.unique(keys, return_index=True)
    assert np.array_equal(got, expected)
    assert np.array_equal(first, expected_first)


@pytest.mark.parametrize(
    "keys",
    [[0, 2**62], [0, 2**61, 1], [np.iinfo(np.int64).min, np.iinfo(np.int64).max]],
)
def test_unique_first_refuses_keys_that_overflow_the_packing(keys):
    # Two positions take one low bit, three take two: a key span of
    # 2**62 (2**61) no longer fits beside them in an int64.
    with pytest.raises(ValueError, match="too wide"):
        unique_first(np.asarray(keys, dtype=np.int64))


def test_unique_first_refuses_non_integer_keys():
    # Casting floats to int64 for the packing would truncate silently.
    with pytest.raises(TypeError):
        unique_first(np.array([1.5, 0.5]))


vocab_lists = st.lists(
    st.lists(st.text(alphabet="abc ", max_size=4), max_size=6), min_size=1, max_size=4
)


@given(vocabs=vocab_lists, data=st.data())
@settings(max_examples=100)
def test_merge_vocabularies_recodes_to_the_same_strings(vocabs, data):
    # Unsorted, overlapping vocabularies with repeats and unused entries.
    arrays = [np.array(v, dtype=np.str_) if v else np.empty(0, "U1") for v in vocabs]
    codes = [
        np.asarray(
            data.draw(st.lists(st.integers(0, len(v) - 1), max_size=8)) if v else [],
            dtype=np.int32,
        )
        for v in vocabs
    ]
    vocab, recoded = merge_vocabularies(arrays, codes)
    used = sorted({vocabs[i][c] for i, column in enumerate(codes) for c in column.tolist()})
    assert vocab.tolist() == used
    width = max([len(s) for s in used] + [1])
    assert vocab.dtype == np.dtype(f"U{width}")
    for array, column, new in zip(arrays, codes, recoded):
        assert new.dtype == np.int32
        assert vocab[new].tolist() == array[column].tolist()


# -- golden: the table is pinned to exact searchsorted draws -------------


def test_categorical_table_golden_draws():
    cdf = np.array([0.125, 0.25, 0.5, 0.8125, 0.9375, 1.0])
    u = np.array([0.0, 0.1249, 0.125, 0.2501, 0.5, 0.64, 0.8125, 0.99, 0.9375])
    table = CategoricalTable(cdf)
    assert not table.uses_fallback
    expected = np.searchsorted(cdf, u, side="left")
    assert np.array_equal(table.lookup(u), expected)
    assert np.array_equal(table.lookup(u), [0, 0, 0, 2, 2, 3, 3, 5, 4])


def test_categorical_table_dense_cdf_falls_back():
    # Adjacent CDF values closer than the bucket cap cannot be
    # separated; the table must detect this and delegate.
    base = np.linspace(0.0, 1e-7, 64)
    cdf = np.concatenate([base, [1.0]])
    table = CategoricalTable(cdf)
    assert table.uses_fallback
    u = np.random.default_rng(7).random(100)
    assert np.array_equal(table.lookup(u), np.searchsorted(cdf, u, side="left"))


# -- pinned output bytes ---------------------------------------------------


def _kernel_payload():
    rng = np.random.default_rng(20040315)
    counts = rng.integers(1, 6, size=50).astype(np.int64)
    total = int(counts.sum())
    values = rng.random(total)
    first = rng.random(counts.size) * 100
    gaps = rng.random(int(np.maximum(counts - 1, 0).sum()))
    codes = rng.integers(-3, 4, size=80)
    cdf = np.cumsum(rng.random(9))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    u = rng.random(70)
    haystack = np.unique(rng.integers(0, 500, size=60))
    probes = rng.integers(0, 600, size=90)
    return counts, values, first, gaps, codes, cdf, u, haystack, probes


#: SHA-256 over (dtype, bytes) of every kernel output below.
KERNEL_DIGEST = "0b07b563b20981ea70af0e096ee671bfa75d5b4199c5d8605f378a6da7bb63c7"


def test_kernel_outputs_match_pinned_digest():
    counts, values, first, gaps, codes, cdf, u, haystack, probes = _kernel_payload()
    stack = CategoricalTableStack(np.stack([cdf, np.sqrt(cdf)]))
    rows = (np.arange(u.size) % 2).astype(np.intp)
    outputs = [
        segmented_arange(counts), segmented_cumsum(values, counts), segment_ids(counts),
        segmented_offsets_scatter(first, gaps, counts),
        segmented_offsets_base(first, gaps, counts),
        *group_slices(codes), CategoricalTable(cdf).lookup(u), stack.lookup(rows, u),
        *sorted_lookup(haystack, probes), isin_sorted(haystack, probes),
        merge_unique(haystack, np.unique(probes)),
        setdiff_sorted(haystack, np.unique(probes)),
    ]
    digest = hashlib.sha256()
    for arr in outputs:
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == KERNEL_DIGEST


def test_distribution_sample_n_matches_scalar_loop():
    from repro.core.distributions import Lognormal

    dist = Lognormal(mu=1.0, sigma=0.5)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    batch = sample_n(dist, rng_a, 40)
    scalars = np.asarray(dist.sample(rng_b, size=40), dtype=np.float64)
    assert np.array_equal(batch, scalars)


# -- shard planning / pool fan-out ---------------------------------------


def test_shard_sizes_is_a_fixed_near_equal_plan():
    assert shard_sizes(10, 4) == [3, 3, 2, 2]
    assert shard_sizes(8, 4) == [2, 2, 2, 2]
    assert shard_sizes(3, 4) == [1, 1, 1, 0]
    assert sum(shard_sizes(12345, 7)) == 12345


def test_spawn_shard_streams_is_layout_stable():
    a = spawn_shard_streams(7, 5, 2)
    b = spawn_shard_streams(7, 5, 2)
    ra = [np.random.default_rng(s).random(4) for s in (a if isinstance(a, list) else [a])]
    rb = [np.random.default_rng(s).random(4) for s in (b if isinstance(b, list) else [b])]
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)
    # A different shard index yields an independent stream.
    other = spawn_shard_streams(7, 5, 3)
    ro = [np.random.default_rng(s).random(4) for s in (other if isinstance(other, list) else [other])]
    assert not np.array_equal(ra[0], ro[0])


def _square(x):
    return x * x


def test_pool_map_is_worker_count_invariant():
    items = list(range(20))
    expected = [x * x for x in items]
    assert pool_map(_square, items, 1) == expected
    assert pool_map(_square, items, 2) == expected


def test_resolve_workers_clamps_to_tasks_and_cpus():
    assert resolve_workers(8, 3) <= 3
    assert resolve_workers(1, 100) == 1
    assert resolve_workers(4, 0) == 0


# -- npz round trip ------------------------------------------------------


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_npz_round_trip_preserves_bytes(tmp_path, mmap_mode):
    payload = {
        "ints": np.arange(10, dtype=np.int64),
        "floats": np.linspace(0, 1, 7),
        "strings": np.array(["alpha", "beta", ""], dtype="U5"),
        "empty": np.zeros(0, dtype=np.float64),
    }
    path = tmp_path / "roundtrip.npz"
    save_npz_payload(path, payload)
    members = load_npz_members(path, mmap_mode)
    assert set(members) == set(payload)
    for name, arr in payload.items():
        got = members[name]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.asarray(got).tobytes() == arr.tobytes()
