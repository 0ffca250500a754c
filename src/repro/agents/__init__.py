"""Ground-truth peer behaviour used to synthesize the measured trace."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "diurnal": ("ArrivalProcess", "intensity_table", "relative_intensity"),
    "population": (
        "ULTRAPEER_FRACTION", "PeerIdentity", "PeerPopulation",
        "sample_shared_files", "sample_shared_files_batch",
    ),
    "user_model": ("SessionPlan", "UserBehavior"),
})
