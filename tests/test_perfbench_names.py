"""The benchmark's tracer names library functions; they must all exist.

perfbench/tracer.py wraps `(module, attr)` pairs of `webworlds` by name
under `--trace 1`, so deleting or renaming one of them would break the
benchmark without failing any library test. The tracer imports only the
standard library, so it is run here from its source, which leaves no
bytecode cache beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = load_tracer()
NAMES = sorted(
    {(module, attr) for module, names in tracer.SPANS.items() for attr in names}
    | set(tracer.HOOKS)
    | set(tracer.COUNT_ONLY)
)


def test_tracer_lists_names():
    assert ("matrices", "world_matrices") in NAMES
    assert len(NAMES) >= 20


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"webworlds.{module}"), attr))
