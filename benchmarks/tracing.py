"""Outside-in tracing of ghzcert's public functions for the benchmark.

Traced runs replace each function in TRACED with a wrapper that records a
span (name, start, end, parent span, op id, raised).  The package binds
names with ``from .x import f``, so a function is looked up through the
namespace of each module that imports it; the wrapper therefore replaces
every module attribute that refers to the function, not only the one in
its defining module.  ``root2`` is not wrapped: it is reached only through
``verifier.catalog_constants`` and counted in that function's self time.

Untraced runs never call ``install``, so they run the package unchanged.
"""
from __future__ import annotations

import functools
import importlib
import time
from types import ModuleType
from typing import Callable, Dict, List, Tuple

# Wrapped functions, by the module that defines them.
TRACED: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "verifier": ("min_eig_over_grid", "closed_form_crosscheck", "build_T",
                 "block_decompose", "catalog_constants"),
    "bell": ("build_operator", "local_bound", "quantum_bound",
             "validate_state"),
    "states": ("ghz_state", "apply_channel"),
    "linalg": ("kron_all", "hermitian_eigenvalues"),
    "simulate": ("certify", "estimate_violation", "noisy_state",
                 "born_probabilities", "sample_outcomes"),
    "tradeoff": ("emit_curve",),
}
TRACED_NAMES = [f"{layer}.{name}" for layer, names in TRACED.items()
                for name in names]
ROOT_SPAN = "cli.main"
_MODULES = ("cli", "verifier", "bell", "states", "linalg", "simulate",
            "tradeoff", "root2")

# A span is [name, start, end, parent index or -1, op id, raised].
Span = list


class Tracer:
    """Holds the spans of one traced run in memory."""

    def __init__(self, package: ModuleType) -> None:
        self.spans: List[Span] = []
        self.op_id = -1
        self._stack: List[int] = []
        self._modules = [package] + [
            importlib.import_module(f"{package.__name__}.{name}")
            for name in _MODULES]
        self._originals = [
            (f"{layer}.{name}",
             getattr(importlib.import_module(f"{package.__name__}.{layer}"),
                     name))
            for layer, names in TRACED.items() for name in names]
        self._installed: List[Tuple[ModuleType, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                    False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every lookup site of every traced function."""
        for name, original in self._originals:
            wrapper = self._wrap(name, original)
            for module in self._modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, total time, self time and raised count per function.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans under a root sum to the root's
    duration.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
              for name in TRACED_NAMES}
    for index, (name, start, end, _, _, raised) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children[index]
        entry["errors"] += int(raised)
    return totals

