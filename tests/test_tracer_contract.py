"""The benchmark's tracer must find every function it wraps.

`perfbench/tracer.py` wraps public functions where their callers look them up
(its `WRAPPED` table) and reports a missing one as absent, which silently drops
that per-layer metric from a traced benchmark run. This test turns a renamed or
removed wrap target into a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _wrapped_table()
    assert wrapped
    missing = []
    for owner_spec, attr, span in wrapped:
        module_name, _, class_name = owner_spec.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_spec}.{attr} ({span})")
    assert not missing, f"tracer wrap targets not found: {missing}"
