"""repro.core.kernels: the shared array-engine layer.

Every columnar engine in this repository -- trace synthesis
(:mod:`repro.synthesis.columnar_engine`), the Figure 12 workload
generator (:mod:`repro.core.generator_columnar`), and the vectorized
filter rules (:mod:`repro.filtering.columnar`) -- is built from the
same handful of array idioms: segmented (ragged/CSR) arithmetic,
batched categorical draws against cumulative tables, batch distribution
sampling, fixed shard planning with ``SeedSequence``-spawned RNG
streams, worker-pool fan-out, and ``.npz`` round trips.  This package
is the single home for those kernels; the engines import from here and
the KER601 lint rule forbids re-implementing the raw idioms in engine
modules.

The kernels are plain NumPy functions.  Byte-identical output across
shard counts and worker counts is part of the contract -- the property
tests and goldens in ``tests/test_kernels.py`` enforce it.

See ``docs/KERNELS.md`` for the kernel inventory.
"""

from ..._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "segmented": (
        "group_slices", "segment_ids", "segmented_arange", "segmented_cumsum",
        "segmented_offsets_base", "segmented_offsets_scatter",
    ),
    "sampling": ("CategoricalTable", "CategoricalTableStack", "searchsorted_left"),
    "setops": (
        "isin_sorted", "merge_unique", "merge_vocabularies", "setdiff_sorted",
        "sorted_lookup", "unique_first", "unique_sorted",
    ),
    "sharding": (
        "pool_map", "pool_map_windowed", "resolve_workers", "shard_sizes",
        "spawn_shard_streams", "time_windows",
    ),
    "npz": ("load_npz_members", "save_npz_payload"),
})
