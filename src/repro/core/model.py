"""The workload model: a bundle of the paper's conditional distributions.

:class:`WorkloadModel` groups every distribution the Figure 12 generator
needs, keyed exactly the way the paper conditions them:

====================  =====================================================
measure               conditioned on
====================  =====================================================
region mix            time of day (Fig. 1)
passive probability   region (Fig. 4)
passive duration      region, peak/non-peak (Table A.1, Fig. 5)
queries per session   region (Table A.2, Fig. 6)
time to first query   region, peak/non-peak, #queries (Table A.3, Fig. 7)
interarrival time     region, peak/non-peak, #queries for EU only
                      (Table A.4, Fig. 8)
time after last query region, peak/non-peak, #queries (Table A.5, Fig. 9)
====================  =====================================================

``WorkloadModel.paper()`` returns the model with the published (and
derived, see :mod:`repro.core.parameters`) values.  A model can also be
constructed from distributions *fitted to a trace*, which is how the
closed-loop validation benchmark works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from . import parameters
from .distributions import Distribution, Lognormal
from .regions import MAJOR_REGIONS, Region

__all__ = [
    "WorkloadModel",
    "first_query_class_codes",
    "interarrival_class_codes",
    "last_query_class_codes",
]

#: Representative query counts, one per conditioning class, used to
#: materialize the finitely many distinct conditional distributions the
#: factories can return (Tables A.3-A.5 condition on *classes* of
#: ``n_queries``, not on the exact count).  Index ``i`` of each tuple is
#: the class code the matching ``*_class_codes`` helper assigns.
_FIRST_QUERY_CLASS_REPS = (1, 3, 4)    # "<3", "=3", ">3"
_INTERARRIVAL_CLASS_REPS = (2, 5, 8)   # "=2", "3-7", ">7"
_LAST_QUERY_CLASS_REPS = (1, 5, 8)     # "1", "2-7", ">7"


def first_query_class_codes(n_queries: np.ndarray) -> np.ndarray:
    """Vectorized Table A.3 class code (0: <3, 1: =3, 2: >3) per session."""
    n_queries = np.asarray(n_queries)
    return np.where(n_queries < 3, 0, np.where(n_queries == 3, 1, 2)).astype(np.int8)


def interarrival_class_codes(n_queries: np.ndarray) -> np.ndarray:
    """Vectorized Fig. 8b class code (0: =2, 1: 3-7, 2: >7) per session."""
    n_queries = np.asarray(n_queries)
    return np.where(n_queries <= 2, 0, np.where(n_queries <= 7, 1, 2)).astype(np.int8)


def last_query_class_codes(n_queries: np.ndarray) -> np.ndarray:
    """Vectorized Table A.5 class code (0: 1, 1: 2-7, 2: >7) per session."""
    n_queries = np.asarray(n_queries)
    return np.where(n_queries <= 1, 0, np.where(n_queries <= 7, 1, 2)).astype(np.int8)

#: (region, peak, n_queries) -> Distribution
ConditionalFactory = Callable[[Region, bool, int], Distribution]


@dataclass
class WorkloadModel:
    """All conditional distributions needed by the Fig. 12 generator."""

    geographic_mix: Callable[[int], Dict[Region, float]]
    passive_fraction: Callable[[Region, int], float]
    passive_duration: Callable[[Region, bool], Distribution]
    queries_per_session: Callable[[Region], Distribution]
    first_query: ConditionalFactory
    interarrival: ConditionalFactory
    last_query: ConditionalFactory
    name: str = "custom"

    @classmethod
    def paper(cls) -> "WorkloadModel":
        """The model published in the paper (Tables A.1-A.5, Figs. 1 and 4)."""
        return cls(
            geographic_mix=parameters.geographic_mix,
            passive_fraction=parameters.passive_fraction,
            passive_duration=parameters.passive_duration_model,
            queries_per_session=parameters.queries_per_session_model,
            first_query=parameters.first_query_model,
            interarrival=parameters.interarrival_model,
            last_query=parameters.last_query_model,
            name="paper",
        )

    def conditional_grid(self) -> Dict[str, dict]:
        """Materialize every conditional distribution as a picklable grid.

        The factory callables condition ``first_query``/``interarrival``/
        ``last_query`` on *classes* of the query count (the paper's
        Tables A.3-A.5 bins), so the whole model collapses to a finite
        grid of distribution objects.  The grid is what the columnar
        generator ships to shard workers: the distributions themselves
        pickle cleanly even when the factories are closures (fitted
        models).  Keys use integer codes -- major-region index
        (:data:`~repro.core.regions.MAJOR_REGIONS` order), a peak flag,
        and the class code assigned by the ``*_class_codes`` helpers:

        * ``queries_per_session[region]``
        * ``passive_duration[region, peak]``
        * ``first_query`` / ``interarrival`` / ``last_query``
          ``[region, peak, class_code]``

        Custom models whose factories vary *within* a class are sampled
        at the class representative.
        """
        grid: Dict[str, dict] = {
            "queries_per_session": {},
            "passive_duration": {},
            "first_query": {},
            "interarrival": {},
            "last_query": {},
        }
        for code, region in enumerate(MAJOR_REGIONS):
            grid["queries_per_session"][code] = self.queries_per_session(region)
            for peak in (False, True):
                grid["passive_duration"][code, peak] = self.passive_duration(region, peak)
                for ci, n in enumerate(_FIRST_QUERY_CLASS_REPS):
                    grid["first_query"][code, peak, ci] = self.first_query(region, peak, n)
                for ci, n in enumerate(_INTERARRIVAL_CLASS_REPS):
                    grid["interarrival"][code, peak, ci] = self.interarrival(region, peak, n)
                for ci, n in enumerate(_LAST_QUERY_CLASS_REPS):
                    grid["last_query"][code, peak, ci] = self.last_query(region, peak, n)
        return grid

    @classmethod
    def from_fits(
        cls,
        passive_duration: Dict[tuple, Distribution],
        queries_per_session: Dict[Region, Distribution],
        first_query: Dict[tuple, Distribution],
        interarrival: Dict[tuple, Distribution],
        last_query: Dict[tuple, Distribution],
        name: str = "fitted",
    ) -> "WorkloadModel":
        """Build a model from fitted conditional distributions.

        Dictionary keys follow the conditioning of the paper:
        ``passive_duration[(region, peak)]``,
        ``first_query[(region, peak, class_label)]`` with class labels
        from :func:`repro.core.parameters.first_query_class`, etc.
        Missing keys fall back to the paper model, so partial fits remain
        usable.
        """
        paper = cls.paper()

        def _passive(region: Region, peak: bool) -> Distribution:
            return passive_duration.get((region, peak)) or paper.passive_duration(region, peak)

        def _qps(region: Region) -> Distribution:
            return queries_per_session.get(region) or paper.queries_per_session(region)

        def _first(region: Region, peak: bool, n: int) -> Distribution:
            key = (region, peak, parameters.first_query_class(n))
            return first_query.get(key) or paper.first_query(region, peak, n)

        def _inter(region: Region, peak: bool, n: int) -> Distribution:
            key = (region, peak, parameters.interarrival_query_class(n))
            return interarrival.get(key) or interarrival.get((region, peak, None)) or paper.interarrival(region, peak, n)

        def _last(region: Region, peak: bool, n: int) -> Distribution:
            key = (region, peak, parameters.last_query_class(n))
            return last_query.get(key) or paper.last_query(region, peak, n)

        return cls(
            geographic_mix=paper.geographic_mix,
            passive_fraction=paper.passive_fraction,
            passive_duration=_passive,
            queries_per_session=_qps,
            first_query=_first,
            interarrival=_inter,
            last_query=_last,
            name=name,
        )
