"""Kernel-layer discipline rules (KER6xx).

The columnar engines (synthesis shard engine, generator wave engine,
filtering/measurement column path, batched overlay engine) draw
categorical samples, plan shards, and fan work out to process pools
exclusively through ``repro.core.kernels``.  That single-funnel discipline is what makes
the kernel layer's guarantees hold: one property battery pins every
kernel to its reference semantics, one optimization pass (categorical
cutpoint tables, fused offset assembly) speeds up all three engines,
and one module owns the shard-stream spawning that defines trace
identity.  A raw ``np.searchsorted`` draw or ad-hoc
``ProcessPoolExecutor`` reintroduced inside an engine silently forks
the idiom back out of the funnel -- correct today, unmaintained and
unaccelerated tomorrow.  This rule keeps the funnel machine-checkable.

Flagged inside the engine modules (and only there):

* ``numpy.searchsorted(...)`` calls (and ``.searchsorted`` method
  calls) -- inverse-CDF draws belong behind
  ``repro.core.kernels.CategoricalTable`` / ``searchsorted_left``;
* ``numpy.random.SeedSequence(...)`` -- shard stream spawning belongs
  behind ``repro.core.kernels.spawn_shard_streams``;
* ``concurrent.futures.ProcessPoolExecutor(...)`` -- worker fan-out
  belongs behind ``repro.core.kernels.pool_map`` /
  ``pool_map_windowed``.

The kernels package itself is exempt (it *implements* the idioms), as
is everything outside the engine modules: analysis code comparing CDFs
with ``searchsorted`` is statistics, not a sampling hot path.
Deliberate exceptions carry ``# repro: noqa[KER601] -- justification``.
"""

from __future__ import annotations

import ast

from .framework import LintRule, register

__all__ = ["RawKernelIdiom", "DeprecatedShimImport"]

#: Path fragments identifying the kernel-backed engine modules; matched
#: against the posix form of the reported path.
ENGINE_PATHS = (
    "repro/synthesis/columnar_engine",
    "repro/synthesis/synthesizer",
    "repro/core/generator_columnar",
    "repro/measurement/columnar",
    "repro/measurement/shards",
    "repro/filtering/columnar",
    "repro/filtering/streaming",
    "repro/agents/user_model",
    "repro/gnutella/columnar_overlay",
    "repro/gnutella/topology",
    "repro/gnutella/qrp",
)

#: Fully qualified callables that must stay behind the kernel layer.
_FUNNELED_CALLS = {
    "numpy.searchsorted": (
        "raw searchsorted draw in a kernel-backed engine; use "
        "repro.core.kernels.CategoricalTable/searchsorted_left so every "
        "engine shares one sampling idiom"
    ),
    "numpy.random.SeedSequence": (
        "ad-hoc SeedSequence in a kernel-backed engine; shard streams "
        "come from repro.core.kernels.spawn_shard_streams, which owns "
        "the spawn layout that defines trace identity"
    ),
    "concurrent.futures.ProcessPoolExecutor": (
        "ad-hoc process pool in a kernel-backed engine; fan out through "
        "repro.core.kernels.pool_map/pool_map_windowed so worker policy "
        "stays in one place"
    ),
}


@register
class RawKernelIdiom(LintRule):
    """Raw draw/shard/pool idiom bypassing ``repro.core.kernels``."""

    code = "KER601"
    name = "raw-kernel-idiom"
    rationale = (
        "the engines' one-battery-checks-all and one-pass-optimizes-all "
        "claims hold only while categorical draws, shard-stream "
        "spawning, and pool fan-out go through repro.core.kernels; a "
        "raw idiom inside an engine forks the hot path back out of the "
        "funnel where no equivalence battery covers it"
    )

    def _in_engine_module(self) -> bool:
        path = self.ctx.path.replace("\\", "/")
        return any(fragment in path for fragment in ENGINE_PATHS)

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_engine_module():
            qualified = self.ctx.qualified(node.func)
            message = _FUNNELED_CALLS.get(qualified)
            if message is not None:
                self.report(node, message)
            elif (
                qualified is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "searchsorted"
            ):
                # cum.searchsorted(u) method form -- same idiom, not
                # import-anchored, so match on the attribute name.
                self.report(node, _FUNNELED_CALLS["numpy.searchsorted"])
        self.generic_visit(node)


#: Modules that were deleted after a deprecation window; importing them
#: anywhere is an error, so the shim cannot quietly come back.
_REMOVED_MODULES = {
    "repro.core.arrays": (
        "repro.core.arrays was a deprecated re-export shim, removed; "
        "import segmented_arange/segmented_cumsum from repro.core.kernels"
    ),
}


@register
class DeprecatedShimImport(LintRule):
    """Import of a removed compatibility shim (``repro.core.arrays``)."""

    code = "KER602"
    name = "deprecated-shim-import"
    rationale = (
        "removed compatibility shims must stay removed: an import of "
        "repro.core.arrays would only work by resurrecting the shim "
        "module, forking the kernel funnel back into two entry points"
    )

    def _check(self, node: ast.AST, module: str) -> None:
        message = _REMOVED_MODULES.get(module)
        if message is not None:
            self.report(node, message)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            self._check(node, node.module)
            # ``from repro.core import arrays`` names the shim too.
            for alias in node.names:
                self._check(node, f"{node.module}.{alias.name}")
        self.generic_visit(node)
