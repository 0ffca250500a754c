"""Wall-clock and ambient-entropy rules (DET2xx).

Trace synthesis models its own clock (simulated seconds from the
config's start); reading the host's clock or entropy pool anywhere in
the measurement pipeline makes output depend on *when* or *where* the
run happened.  Entry points that legitimately time things -- the CLI,
the service's clocks, the benchmarks -- are granted these codes via the
pyproject ``per-path-allow`` table rather than inline noqa, so the
grant is visible in one place.
"""

from __future__ import annotations

import ast

from .framework import LintRule, register

__all__ = ["WallClockCall", "DatetimeNow", "UuidEntropy"]

_TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}

_DATETIME_CALLS = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_UUID_CALLS = {
    "uuid.uuid1",  # embeds MAC address + wall clock
    "uuid.uuid4",  # OS entropy
}


@register
class WallClockCall(LintRule):
    """``time.time()`` and friends outside entry points."""

    code = "DET201"
    name = "wall-clock-call"
    rationale = (
        "host clock reads make results depend on when the run happened; "
        "simulation code must use the trace's own clock. Timing harnesses "
        "(cli/bench) are granted this code in pyproject per-path-allow."
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.ctx.qualified(node.func)
        if qualified in _TIME_CALLS:
            self.report(node, f"{qualified}() reads the host clock; use the "
                              "simulated clock (or move timing to a "
                              "cli/bench entry point)")
        self.generic_visit(node)


@register
class DatetimeNow(LintRule):
    """``datetime.now()`` / ``date.today()`` in reproducible code."""

    code = "DET202"
    name = "datetime-now"
    rationale = (
        "datetime.now()/today() bake the run's date into output, breaking "
        "byte-identical re-runs; derive timestamps from the config instead."
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.ctx.qualified(node.func)
        if qualified in _DATETIME_CALLS:
            self.report(node, f"{qualified}() reads the host calendar; "
                              "derive timestamps from the trace config")
        self.generic_visit(node)


@register
class UuidEntropy(LintRule):
    """``uuid4()``/``uuid1()`` draw ambient entropy/host identity."""

    code = "DET203"
    name = "uuid-entropy"
    rationale = (
        "uuid4 draws OS entropy and uuid1 embeds host MAC + clock: ids in "
        "traces/caches/reports then differ across identical runs. Derive "
        "ids from a seeded rng (e.g. rng.bytes(16))."
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.ctx.qualified(node.func)
        if qualified in _UUID_CALLS:
            self.report(node, f"{qualified}() is nondeterministic; derive "
                              "ids from a seeded rng (rng.bytes(16))")
        self.generic_visit(node)
