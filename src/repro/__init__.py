"""repro -- reproduction of Klemm et al., "Characterizing the Query
Behavior in Peer-to-Peer File Sharing Systems" (IMC 2004).

The package is organized bottom-up:

* :mod:`repro.core` -- the paper's contribution: model distributions,
  published parameters, the query popularity model, and the Figure 12
  synthetic workload generator.
* :mod:`repro.geoip` -- synthetic GeoIP database (substitute for MaxMind).
* :mod:`repro.gnutella` -- Gnutella 0.6 protocol substrate: handshake,
  client-implementation profiles, the columnar overlay simulator.
* :mod:`repro.agents` -- ground-truth user behaviour used to synthesize
  the trace the paper measured.
* :mod:`repro.measurement` -- the passive measurement ultrapeer and trace
  record schema.
* :mod:`repro.synthesis` -- drives agents + clients against the
  measurement node to produce a 40-day style trace at configurable scale.
* :mod:`repro.filtering` -- Section 3.3 filter rules 1-5.
* :mod:`repro.analysis` -- per-figure/table characterizations.
* :mod:`repro.experiments` -- end-to-end experiment drivers.
* :mod:`repro.viz` -- dependency-free SVG figures.
* :mod:`repro.transfers` -- file-transfer extension (bandwidth classes,
  downloads).
* :mod:`repro.service` -- the Figure 12 workload streamed over TCP.
* :mod:`repro.lint` -- the determinism / parallel-safety linter.

Every package ``__init__`` but :mod:`repro.lint`'s resolves its public
names on first use (:mod:`repro._lazy`): ``import repro`` loads no
subpackage, and importing one module of a package does not execute its
siblings.

Quickstart::

    from repro.core import SyntheticWorkloadGenerator
    gen = SyntheticWorkloadGenerator(n_peers=100, seed=1)
    sessions = gen.generate(duration_seconds=3600)
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "core.regions": ("Region",),
    "core.generator": ("SyntheticWorkloadGenerator",),
    "core.model": ("WorkloadModel",),
})
__all__ += ["__version__"]
