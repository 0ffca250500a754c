"""Dtype/reduction-order contract rules (DTY8xx).

The equivalence batteries prove engines byte-identical *given* that
every reduction runs at a pinned dtype and every ordering step is
stable.  These rules make the two preconditions machine-checked, using
the :mod:`.dtypes` inference over def-use chains:

* ``DTY801`` -- one variable whose reaching definitions pin
  *different* dtypes on different branches.  The downstream reduction
  then accumulates at float32 on one path and float64 on the other,
  and "same config, same bytes" quietly becomes "same config, same
  bytes on the branch we happened to test".
* ``DTY802`` -- ``sum``/``cumsum`` (and nan-variants) over a provably
  floating array without an explicit ``dtype=``/``out=`` in an engine
  module.  NumPy's accumulator default depends on the input dtype and
  platform; pinning ``dtype=`` is the contract the batteries test.
* ``DTY803`` -- ``argsort``/``sort`` without ``kind="stable"`` in an
  engine module.  Introsort's tie order is an implementation detail;
  any merge path fed by a non-stable sort can reorder equal keys
  between numpy builds.

DTY801 runs everywhere (branch-divergent dtype is a bug wherever it
lives); DTY802/DTY803 are scoped to the kernel-backed engine modules
(:data:`~.rules_kernels.ENGINE_PATHS`) where reduction order is part
of the byte-identity claim -- plotting code summing a histogram is not
a hot path.
"""

from __future__ import annotations

import ast
from typing import Optional, Set, Tuple

from .dtypes import argument_dtype, infer_dtype, is_float_dtype
from .framework import LintRule, register
from .rules_kernels import ENGINE_PATHS

__all__ = ["BranchDivergentDtype", "ImplicitAccumulatorDtype",
           "UnstableSortInMergePath"]

#: Reductions whose accumulator dtype must be pinned in engine code.
_ACCUMULATING_REDUCERS = frozenset({"sum", "nansum", "cumsum", "nancumsum"})

#: kind= values that are stable sorts.
_STABLE_KINDS = frozenset({"stable", "mergesort"})


def _in_engine_module(path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(fragment in posix for fragment in ENGINE_PATHS)


def _call_leaf(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _has_kw(call: ast.Call, *names: str) -> bool:
    return any(kw.arg in names for kw in call.keywords)


@register
class BranchDivergentDtype(LintRule):
    """A variable's reaching definitions pin different dtypes per branch."""

    code = "DTY801"
    name = "branch-divergent-dtype"
    rationale = (
        "when one branch binds float32 and the other float64, every "
        "reduction downstream accumulates at a precision chosen by the "
        "branch taken, and byte-identity across configs silently breaks. "
        "Widen (or pin dtype=) on both branches."
    )

    def run(self):
        for _, fn in self.ctx.functions():
            self._check_function(fn)
        return self.findings

    def _check_function(self, fn) -> None:
        if not self._worth_analyzing(fn):
            return
        df = self.ctx.dataflow(fn)
        flagged: Set[str] = set()
        for load in df.loads():
            if load.id in flagged:
                continue
            reaching = df.reaching(load)
            if len(reaching) < 2:
                continue
            dtypes: Set[str] = set()
            decidable = True
            for definition in reaching:
                value = definition.value
                # Only array-producing calls make a credible dtype claim;
                # scalar constants (`total = 0`) and loop targets are the
                # classic accumulator idiom, not a divergence.
                if definition.is_param or definition.is_loop_target or \
                        not isinstance(value, ast.Call):
                    decidable = False
                    break
                inferred = infer_dtype(value, df)
                if inferred is None:
                    decidable = False
                    break
                dtypes.add(inferred)
            if decidable and len(dtypes) > 1:
                flagged.add(load.id)
                self.report(load, f"{load.id!r} reaches this use with "
                                  f"dtype {' vs '.join(sorted(dtypes))} "
                                  "depending on the branch taken; pin one "
                                  "dtype on every definition")

    @staticmethod
    def _worth_analyzing(fn) -> bool:
        """Cheap pre-scan: divergence needs one name Call-assigned twice.

        Skipping the CFG build for the (vast) majority of functions
        that cannot trip the rule keeps the strict run in budget.
        """
        call_assigned: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if target.id in call_assigned:
                            return True
                        call_assigned.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.value, ast.Call) and \
                    isinstance(node.target, ast.Name):
                if node.target.id in call_assigned:
                    return True
                call_assigned.add(node.target.id)
        return False


@register
class ImplicitAccumulatorDtype(LintRule):
    """Float sum/cumsum without dtype=/out= in an engine module."""

    code = "DTY802"
    name = "implicit-accumulator-dtype"
    rationale = (
        "numpy chooses the accumulator dtype from the input dtype and "
        "platform; a float reduction without dtype= is a byte-identity "
        "contract left to the build. Engine reductions pin dtype= "
        "explicitly so the equivalence batteries test the precision that "
        "actually ships."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _in_engine_module(self.ctx.path):
            leaf = _call_leaf(node)
            if leaf in _ACCUMULATING_REDUCERS and \
                    not _has_kw(node, "dtype", "out"):
                df = self._enclosing_dataflow(node)
                if is_float_dtype(argument_dtype(node, df)):
                    self.report(node, f"float {leaf}() without dtype= in an "
                                      "engine module; pin the accumulator "
                                      "(e.g. dtype=np.float64) so reduction "
                                      "precision is part of the contract, "
                                      "not the build")
        self.generic_visit(node)

    def _enclosing_dataflow(self, node: ast.AST):
        enclosing = getattr(self, "_enclosing", None)
        if enclosing is None:
            # One pass: nested functions appear after their parents in
            # functions(), so later writes leave the innermost owner.
            enclosing = {}
            for _, fn in self.ctx.functions():
                for descendant in ast.walk(fn):
                    enclosing[id(descendant)] = fn
            self._enclosing = enclosing
        fn = enclosing.get(id(node))
        return self.ctx.dataflow(fn) if fn is not None else None


@register
class UnstableSortInMergePath(LintRule):
    """argsort/sort without kind="stable" in an engine module."""

    code = "DTY803"
    name = "unstable-sort-in-merge-path"
    rationale = (
        "introsort's tie order is an implementation detail of the numpy "
        "build; engine merge paths that feed equal keys through a "
        "non-stable sort can reorder rows between platforms. "
        'kind="stable" costs one keyword and makes tie order part of the '
        "contract."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _in_engine_module(self.ctx.path):
            leaf = _call_leaf(node)
            # argsort in any spelling; plain sort only as numpy.sort
            # (list.sort is timsort -- already stable; lexsort too).
            sortish = leaf == "argsort" or (
                leaf == "sort"
                and self.ctx.qualified(node.func) == "numpy.sort")
            if sortish:
                kind = self._kind_kw(node)
                if kind is None:
                    self.report(node, f"{leaf}() without kind=\"stable\" in "
                                      "an engine module; non-stable tie "
                                      "order varies across numpy builds")
                elif kind not in _STABLE_KINDS:
                    self.report(node, f"{leaf}(kind={kind!r}) is not a "
                                      "stable sort; engine merge paths "
                                      "need kind=\"stable\"")
        self.generic_visit(node)

    def _kind_kw(self, call: ast.Call) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg == "kind":
                if isinstance(kw.value, ast.Constant) and \
                        isinstance(kw.value.value, str):
                    return kw.value.value
                return "stable"  # non-literal kind=: trust it
        return None