"""End-to-end experiment drivers, one per paper table/figure."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "base": ("ExperimentContext", "ExperimentResult", "format_rows"),
    "registry": ("ALL_EXPERIMENTS", "run_all", "run_experiment", "run_many"),
})
