"""The benchmark's tracer must find every function it wraps, and each must run.

`perfbench/tracer.py` wraps public functions where their callers look them up
(its `WRAPPED` table) and reports a missing one as absent, which silently drops
that per-layer metric from a traced benchmark run. These tests turn a renamed
or removed wrap target, or one the CLI no longer calls, into a test failure,
and check that the harness calls each metric once per (system, query) cell.
"""

import functools
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from noveval.cli import main
from noveval.corpus_io import load_runs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def _owner(owner_spec: str):
    module_name, _, class_name = owner_spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name, None) if class_name else owner


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _wrapped_table()
    assert wrapped
    missing = []
    for owner_spec, attr, span in wrapped:
        if not callable(getattr(_owner(owner_spec), attr, None)):
            missing.append(f"{owner_spec}.{attr} ({span})")
    assert not missing, f"tracer wrap targets not found: {missing}"


def test_every_wrapped_span_is_recorded_by_synth_and_eval(tmp_path, monkeypatch, capsys):
    recorded = Counter()

    def wrap(fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorded[span] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrapped = _wrapped_table()
    for owner_spec, attr, span in wrapped:
        owner = _owner(owner_spec)
        monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr), span))
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus)]) == 0
    assert main(["--runs", str(corpus / "runs.txt"), "--qrels", str(corpus / "qrels.txt"),
                 "--depth", "50", "--format", "json", "--per-query",
                 "--out", str(tmp_path / "report.json")]) == 0
    spans = [span for _, _, span in wrapped]
    assert len(spans) == 14
    assert [span for span in spans if span not in recorded] == []
    # One call per (system, query) cell, so a traced run reports
    # metrics.total_utility.calls equal to harness.cells.
    runs = load_runs(corpus / "runs.txt")
    cells = len(runs.systems()) * len(runs.queries())
    assert cells == 12
    assert recorded["metrics.total_utility"] == recorded["metrics.average_precision"] == cells
