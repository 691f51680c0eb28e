"""Run one noveval CLI command in this process, optionally traced.

    python3 perfbench/tracer.py --record FILE [--no-trace] -- <noveval arguments>

With tracing on, public functions are wrapped where their caller looks them
up (for example `noveval.cli.run_leave_one_out`, `noveval.harness.total_utility`)
and every call records a span: name, start, end, parent span, and the growth
of this process's peak RSS while it ran. Spans stay in memory and are written
to FILE as JSON when the command ends. With --no-trace only the wall time of
`noveval.cli.main` is recorded, which gives the tracing overhead.

A function that no longer exists is listed as absent instead of failing, so
the benchmark keeps running after a refactor renames or removes it.
`pooled_probability` is deliberately not wrapped: it runs millions of times
per evaluation and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import time

# (module or "module:Class", attribute, span name)
WRAPPED = [
    ("noveval.corpus_io", "load_runs", "corpus_io.load_runs"),
    ("noveval.corpus_io", "load_judgments", "corpus_io.load_judgments"),
    ("noveval.corpus_io:JudgmentSet", "relevant_docs", "corpus_io.relevant_docs"),
    ("noveval.corpus_io:RunSet", "ranking", "corpus_io.ranking"),
    ("noveval.corpus_io", "write_run_file", "corpus_io.write_run_file"),
    ("noveval.corpus_io", "write_judgments", "corpus_io.write_judgments"),
    ("noveval.cli", "run_leave_one_out", "harness.run_leave_one_out"),
    ("noveval.cli", "aggregate", "harness.aggregate"),
    ("noveval.cli", "per_query_diffs", "harness.per_query_diffs"),
    ("noveval.harness", "total_utility", "metrics.total_utility"),
    ("noveval.harness", "average_precision", "metrics.average_precision"),
    ("noveval.cli", "render_ranking", "cli.render_ranking"),
    ("noveval.cli", "render_per_query", "cli.render_per_query"),
    ("noveval.cli", "generate", "synth.generate"),
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, peak RSS growth KiB]
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span = self.spans[idx]
            span[2] = time.perf_counter()
            span[4] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(owner, attr, wrapper)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--record", required=True)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import noveval.cli

    rec = Recorder()
    absent = []
    if not args.no_trace:
        for spec, attr, name in WRAPPED:
            owner = _owner(spec)
            if owner is None or not callable(getattr(owner, attr, None)):
                absent.append(name)
            else:
                rec.wrap(owner, attr, name)
    t0 = time.perf_counter()
    code = rec.call("cli.main", noveval.cli.main, argv)
    main_s = time.perf_counter() - t0
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "main_s": main_s, "absent": absent, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
