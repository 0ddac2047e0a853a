"""In-memory spans around the public functions of each webworlds layer.

A Tracer replaces each listed function with a wrapper in every
``webworlds`` module namespace that binds it, so calls made through the
CLI's imports and calls made inside a module are both recorded.  Spans
are kept in a list as (name, start, end, parent) and turned into self
times (duration minus the time covered by child spans) after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module -> {public function: span name}; several functions may share a
# span name, which then reports their combined self time
SPANS = {
    "cli": {"main": "cli.main"},
    "diagram": {"web_world": "diagram.web_world"},
    "matrices": {
        "world_matrices": "matrices.world_matrices",
        "row_sums": "matrices.row_sums",
        "is_idempotent": "matrices.is_idempotent",
        "rank": "matrices.rank",
        "trace": "matrices.trace",
        "matrix_to_json": "matrices.export",
        "matrix_to_csv": "matrices.export",
    },
    "posets": {
        "decomposition_poset": "posets.decomposition_poset",
        "diagonal_colouring_polynomial": "posets.diagonals",
        "diagonal_mixing_value": "posets.diagonals",
        "traces_via_posets": "posets.traces_via_posets",
    },
    "enumeration": {
        "count_worlds_series": "enumeration.counts",
        "count_worlds_no_isolated": "enumeration.counts",
        "count_proper_worlds": "enumeration.counts",
        "is_proper": "enumeration.is_proper",
    },
    "cases": {
        "fan_matrices": "cases.matrices",
        "chain_matrices": "cases.matrices",
        "cycle_matrices": "cases.matrices",
    },
    "transitive": {"count_transitive": "transitive.count_transitive"},
}
LAYER_SPANS = tuple(dict.fromkeys(n for names in SPANS.values() for n in names.values()))

# spans the tracer opens for its own bookkeeping; they are excluded from
# the layer totals so that counting work is not charged to a caller
HOOK_SPAN = "bench.hooks"


def _count_nonzero(tracer: "Tracer", args, result) -> None:
    colouring = result[0]
    tracer.counts["matrices.nonzero"] += sum(1 for row in colouring.entries for e in row if e)
    tracer.counts["matrices.returned_entries"] += colouring.size * colouring.size


def _count_extensions(tracer: "Tracer", args, result) -> None:
    tracer.counts["posets.linear_extensions"] += len(result)


HOOKS = {("matrices", "world_matrices"): _count_nonzero}
# wrapped for counting only: no span, so their time stays with the caller
COUNT_ONLY = {("posets", "linear_extensions"): _count_extensions}


def library_modules() -> list:
    """Every imported webworlds module, the package itself included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "webworlds" or name.startswith("webworlds."))
    ]


class Tracer:
    """Records spans while installed; call uninstall() to restore the library."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock  # the pass's clock, so span times match item times
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][2] = self.clock()

    def _span_wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hid = self._open(HOOK_SPAN)
                try:
                    hook(self, args, result)
                finally:
                    self._close(hid)
            return result

        return wrapper

    def _count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        replacements = {}
        for module_name, names in SPANS.items():
            module = sys.modules[f"webworlds.{module_name}"]
            for attr, span in names.items():
                fn = getattr(module, attr)
                replacements[id(fn)] = self._span_wrapper(
                    span, fn, HOOKS.get((module_name, attr))
                )
        for (module_name, attr), hook in COUNT_ONLY.items():
            fn = getattr(sys.modules[f"webworlds.{module_name}"], attr)
            replacements[id(fn)] = self._count_wrapper(fn, hook)
        for module in library_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> Counter:
        """Self seconds per span name: duration minus child span durations."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, parent), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out
