#!/usr/bin/env python3
"""The noveval benchmark (stdlib only).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. It generates the workload's inputs
from the seed, runs the `noveval` CLI from `src/` on them, one fresh process
per command, for S seconds, checks every output against a reference computed
from the generated files (see reference.py), and prints one metric per line
with its unit. The last line of stdout is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Load model: one client, closed loop; the next command starts after the
previous one exits. The benchmark and every command it starts run pinned to
one CPU, and a fixed calibration workload (calibrate.py) is timed between
commands, so that each command's time can be taken relative to the host's
speed at that moment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
each command twice, once traced by tracer.py and once untraced, and reports the
per-layer metrics; see README.md for what each one should move, and where.

Each run also writes perfbench/out/results/<workload>-seed<N>-trace<T>.json
with every metric, the SHA-256 and line count of every generated file, and the
git rev, dirty-tree flag, Python version, CPU count and pinned CPU it ran with.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import reference
from calibrate import REFERENCE_S, calibrate, calibrate_for
from inputs import Corpus, Shape, write_corpus
from reference import Options

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 15
IMPORT_PAIRS = 7
CHILD_TIMEOUT_S = 60.0
MAX_ERRORS_KEPT = 20
CLI = "import sys; from noveval.cli import main; sys.exit(main())"
# After each command, calibrate for about this share of its wall time (at
# least one round). The calibration samples a host whose speed changes within
# a second; one 50 ms round next to a 1.5 s evaluation samples it poorly.
CAL_SHARE = 0.15

# Workload shapes. The ROADMAP's S/M/L sizes vary every dimension at once;
# these vary the one property that decides which layer dominates. Each
# evaluation takes 1-3 s, so a run holds a dozen or more of them and the
# calibration just before and after each one sees the same phase of the host.
POOL_WIDE = Shape(systems=60, queries=3, depth=100, relevant=30, partial=5,
                  irrelevant=40, split=False)
# Few queries, but as many judgments as 25 queries with 490 irrelevant each
# would give, so the qrels scans (one per system and query) keep their weight.
DEEP_RUNS = Shape(systems=20, queries=5, depth=1000, relevant=10, partial=8,
                  irrelevant=2500, split=True)
# cli-sweep's corpora have fixed shapes, so the seed changes their content but
# not their cost, and every run evaluates each of them equally often.
SWEEP_SHAPES = [
    Shape(systems, queries, depth, relevant, partial, irrelevant=depth // 4, split=i % 2 == 1)
    for i, (systems, queries, depth, relevant, partial) in enumerate([
        (5, 3, 50, 3, 0), (6, 8, 120, 10, 2), (7, 5, 300, 20, 5), (8, 4, 80, 6, 1),
        (9, 7, 200, 15, 3), (10, 3, 150, 12, 0), (11, 6, 60, 8, 4), (12, 4, 250, 18, 2),
        (5, 8, 180, 5, 5), (8, 6, 300, 14, 1), (12, 3, 100, 20, 3), (10, 8, 220, 9, 0),
    ])
]
# Likewise for `noveval synth`: (systems, queries, depth, relevant), in turn.
# The largest comes first, so every run's peak RSS includes it.
SYNTH_SHAPES = [(12, 8, 1000, 30), (5, 3, 50, 5), (9, 6, 400, 12), (7, 4, 700, 20),
                (11, 5, 150, 8), (6, 8, 900, 25), (10, 7, 250, 15), (8, 3, 600, 10)]


@dataclass(frozen=True)
class Command:
    kind: str  # "eval" or "synth"
    args: list[str]
    check: Callable[[str], list[str]]  # stdout -> mismatches
    lines: int  # run lines read (eval) or written (synth)
    pool_terms: int = 0
    cells: int = 0


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = OUT / "work" / workload
        # Children see none of the caller's PYTHON* settings, so bytecode
        # caching and buffering are the same wherever the benchmark runs.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONNOUSERSITE="1")
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=self.env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.corpora: list[Corpus] = []
        self.inputs_s = 0.0
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        # "eval"/"synth" -> [wall s, CPU s, peak RSS MB] per child
        self.samples: dict[str, list[list[float]]] = {}

    # -- child processes ---------------------------------------------------

    def run(self, argv: list[str]) -> Child:
        """Run `python3 argv...` to completion through the spawner (see spawner.py)."""
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        req = {"argv": [sys.executable, *argv], "stdout": str(out), "stderr": str(err),
               "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        res = json.loads(self.spawner.stdout.readline())
        if res["code"] != 0:
            self.note(f"exit {res['code']}: {' '.join(argv[-12:])}: {err.read_text()[-300:]}")
        return Child(res["code"], res["wall_s"], res["cpu_s"], res["rss_mb"],
                     out.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def note(self, msg: str) -> None:
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(msg)

    def attempt(self, cmd: Command, child: Child) -> bool:
        """Count one command toward `attempted`; check its output."""
        self.attempted += 1
        errors = cmd.check(child.stdout) if child.code == 0 else ["non-zero exit"]
        for e in errors[:3]:
            self.note(f"{cmd.kind} {' '.join(cmd.args)}: {e}")
        self.failed += bool(errors)
        return not errors

    # -- inputs ------------------------------------------------------------

    def setup(self) -> list[list[float]]:
        """Generate the inputs, then warm up; returns [wall s, calibration s] per warm-up.

        Only the warm-ups are the program's set-up: each is a fresh process
        that imports noveval.cli (the first one also compiles and caches its
        bytecode). Generating the inputs is the benchmark's own work, so it is
        kept in `inputs_s` and left out of `setup_s`. Warm-ups are calibrated
        like the commands of measure().
        """
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        t0 = time.perf_counter()
        if self.workload == "pool-wide":
            self.corpora = [write_corpus(POOL_WIDE, f"pool-wide/{self.seed}", self.work / "c")]
        elif self.workload == "deep-runs":
            self.corpora = [write_corpus(DEEP_RUNS, f"deep-runs/{self.seed}", self.work / "c")]
        else:
            self.corpora = [
                write_corpus(shape, f"cli-sweep/{self.seed}/{i}", self.work / f"c{i:02d}")
                for i, shape in enumerate(SWEEP_SHAPES)
            ]
        self.inputs_s = time.perf_counter() - t0
        warmups = []
        cal = calibrate()
        for _ in range(SETUP_REPEATS):
            child = self.run(["-c", "import noveval.cli; print(noveval.cli.__file__)"])
            # Prove the child imports the package from this checkout.
            where = Path(child.stdout.strip() or ".").resolve()
            if child.code != 0 or ROOT / "src" not in where.parents:
                raise SystemExit(f"warm-up failed: noveval.cli not importable from {ROOT / 'src'}")
            cal_after = calibrate()
            warmups.append([child.wall_s, (cal + cal_after) / 2])
            cal = cal_after
        return warmups

    def commands(self) -> Iterator[Command]:
        if self.workload != "cli-sweep":
            corpus = self.corpora[0]
            fmt = "csv" if self.workload == "pool-wide" else "json"
            judged = reference.read_judged_ranks(corpus.run_paths(), corpus.qrels)
            cmd = self.eval_command(corpus, judged, Options(depth=corpus.shape.depth),
                                    fmt, per_query=True, strict=False)
            return itertools.repeat(cmd)
        return self.sweep()

    def sweep(self) -> Iterator[Command]:
        """Small commands; one in four is `noveval synth`, so writes run beside reads."""
        rng = random.Random(f"cli-sweep/{self.seed}/commands")
        judged = [reference.read_judged_ranks(c.run_paths(), c.qrels) for c in self.corpora]
        for i in itertools.count():
            if i % 4 == 3:
                yield self.synth_command(rng, *SYNTH_SHAPES[i // 4 % len(SYNTH_SHAPES)])
                continue
            k = (i - i // 4) % len(self.corpora)
            corpus = self.corpora[k]
            depth = corpus.shape.depth
            opt = Options(
                depth=depth if rng.random() < 0.85 else depth // 2,
                include_partial=rng.random() < 0.5,
                log_base=rng.choice(["e", "2", "10"]),
                epsilon=None if rng.random() < 0.7 else rng.choice([1e-4, 0.001, 0.01]),
                agg="sum" if rng.random() < 0.8 else "mean",
            )
            yield self.eval_command(corpus, judged[k], opt, rng.choice(["text", "csv", "json"]),
                                    per_query=rng.random() < 0.5, strict=rng.random() < 0.3)

    @staticmethod
    def eval_command(corpus: Corpus, jr: reference.JudgedRanks, opt: Options, fmt: str,
                     per_query: bool, strict: bool) -> Command:
        args = ["--runs", str(corpus.runs), "--qrels", str(corpus.qrels),
                "--depth", str(opt.depth), "--format", fmt]
        if per_query:
            args.append("--per-query")
        if opt.include_partial:
            args += ["--partial-relevant", "include"]
        if opt.log_base != "e":
            args += ["--log-base", opt.log_base]
        if opt.epsilon is not None:
            args += ["--epsilon-policy", f"custom:{opt.epsilon!r}"]
        if opt.agg != "sum":
            args += ["--agg", opt.agg]
        if strict:
            args.append("--strict-scores")
        exp = reference.expected(jr, opt)
        runs_digest = ({f.name: f.sha256 for f in corpus.run_files} if corpus.shape.split
                       else corpus.run_files[0].sha256)
        digests = {"runs": runs_digest, "qrels": corpus.qrels_file.sha256}
        return Command(
            "eval", args,
            lambda text: reference.check_eval_output(text, fmt, per_query, exp, opt, digests),
            lines=corpus.run_lines, pool_terms=exp.pool_terms,
            cells=len(jr.systems) * len(jr.queries),
        )

    def synth_command(self, rng: random.Random, systems: int, queries: int, depth: int,
                      relevant: int) -> Command:
        shared = rng.choice([0.2, 0.4, 0.6])
        designated = rng.randrange(systems) if rng.random() < 0.5 else None
        holders = 1 if designated is not None else systems
        unique = min(rng.randint(0, 2), (relevant - round(shared * relevant)) // holders)
        out_dir = self.work / "synth"
        args = ["synth", "--out-dir", str(out_dir), "--systems", str(systems),
                "--queries", str(queries), "--depth", str(depth),
                "--relevant-per-query", str(relevant), "--shared-fraction", str(shared),
                "--unique-per-system", str(unique), "--seed", str(rng.randrange(10**6))]
        if designated is not None:
            args += ["--designated-system", str(designated)]
            if rng.random() < 0.5:
                args.append("--ap-handicap")
        return Command(
            "synth", args,
            lambda _: reference.check_synth_output(out_dir, systems, queries, depth, relevant),
            lines=systems * queries * depth,
        )

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, tuple[float | None, str, str]]:
        """Untraced run: the end-to-end metrics as name -> (value, unit, note).

        The calibration workload runs just before and just after every command
        (each calibration serving two commands); the mean of the two is the
        command's calibration time, and `eval_cal` is the evaluations' summed
        wall time over their summed calibration time; see calibrate.py. A sum,
        not a median of per-command ratios: cli-sweep's commands differ in
        cost, and a median would jump between them from run to run.
        """
        evals: list[tuple[Child, float]] = []  # (child, calibration s)
        synths: list[tuple[Child, float]] = []
        commands = self.commands()
        cal = calibrate()
        deadline = time.perf_counter() + seconds
        for cmd in commands:
            if time.perf_counter() >= deadline and evals:
                break
            child = self.run(["-c", CLI, *cmd.args])
            cal_after = calibrate_for(CAL_SHARE * child.wall_s)
            self.attempt(cmd, child)
            (evals if cmd.kind == "eval" else synths).append((child, (cal + cal_after) / 2))
            cal = cal_after
        walls = [c.wall_s for c, _ in evals]
        self.samples = {kind: [[c.wall_s, c.cpu_s, c.rss_mb, cal_s] for c, cal_s in children]
                        for kind, children in (("eval", evals), ("synth", synths))}
        m: dict[str, tuple[float | None, str, str]] = {
            "eval_cal": (ratio_of_sums(evals), "ratio",
                         f"{len(evals)} commands: summed wall time / summed calibration time"),
            "eval_s": (statistics.median(walls), "s", f"median of {len(walls)}; not gated"),
            "eval_cpu_s": (statistics.median(c.cpu_s for c, _ in evals), "s",
                           f"median user+sys of {len(evals)}; not gated"),
            # Synth children count here too, so cli-sweep gates their memory.
            "peak_rss_mb": (max(c.rss_mb for c, _ in evals + synths), "MB",
                            f"max of {len(evals) + len(synths)} commands"),
            "eval_cmd_p50_ms": (1000 * statistics.median(walls), "ms", f"n={len(walls)}"),
        }
        # A tail percentile needs at least ten samples beyond it.
        m["eval_cmd_p90_ms"] = (
            (1000 * statistics.quantiles(walls, n=10)[-1], "ms", f"n={len(walls)}")
            if len(walls) >= 100 else (None, "ms", f"not reported: n={len(walls)} < 100")
        )
        m["synth_cmd_p50_ms"] = (
            (1000 * statistics.median(c.wall_s for c, _ in synths), "ms", f"n={len(synths)}")
            if synths else (None, "ms", "no synth commands in this workload")
        )
        m["synth_cal"] = (
            (ratio_of_sums(synths), "ratio", f"{len(synths)} commands; not gated")
            if synths else (None, "ratio", "no synth commands in this workload")
        )
        return m

    def measure_traced(self, seconds: float) -> tuple[dict[str, tuple[float | None, str, str]], list]:
        """Traced run: the per-layer metrics, plus every span recorded."""
        records: list[dict] = []
        traced_cmds: list[Command] = []
        untraced_main = 0.0
        commands = self.commands()
        deadline = time.perf_counter() + seconds
        for i, cmd in enumerate(commands):
            if time.perf_counter() >= deadline and records:
                break
            # Alternate which side runs first so warm caches favour neither.
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                path = self.work / "record.json"
                flags = [] if traced else ["--no-trace"]
                child = self.run([str(HERE / "tracer.py"), "--record", str(path), *flags,
                                  "--", *cmd.args])
                if not self.attempt(cmd, child):
                    continue
                rec = json.loads(path.read_text())
                if traced:
                    rec["command"] = i
                    records.append(rec)
                    traced_cmds.append(cmd)
                else:
                    untraced_main += rec["main_s"]
        return self.layer_metrics(records, traced_cmds, untraced_main), records

    def layer_metrics(self, records: list[dict], cmds: list[Command], untraced_main: float):
        """Per-layer metrics from the spans; times and counts are per traced command."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        rss_kb: dict[str, int] = {}
        absent: set[str] = set()
        for rec in records:
            absent.update(rec["absent"])
            spans = rec["spans"]
            covered = [0.0] * len(spans)
            for _, start, end, parent, _ in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _, grow), cov in zip(spans, covered):
                total[name] = total.get(name, 0.0) + end - start
                self_s[name] = self_s.get(name, 0.0) + end - start - cov
                calls[name] = calls.get(name, 0) + 1
                rss_kb[name] = max(rss_kb.get(name, 0), grow)
        n = max(1, len(cmds))
        read_lines = sum(c.lines for c in cmds if c.kind == "eval")
        synth_lines = sum(c.lines for c in cmds if c.kind == "synth")
        terms = sum(c.pool_terms for c in cmds)

        def present(fn):
            return lambda name, *a: None if name in absent else fn(name, *a)

        per_cmd = present(lambda name: total.get(name, 0.0) / n)
        self_per_cmd = present(lambda name: self_s.get(name, 0.0) / n)
        calls_per_cmd = present(lambda name: calls.get(name, 0) / n)
        per_second = present(lambda name, amount: amount / total[name] if total.get(name) else 0.0)
        ns_per = present(lambda name, amount: 1e9 * total.get(name, 0.0) / amount if amount else 0.0)
        m = {
            "corpus_io.load_runs.s": (per_cmd("corpus_io.load_runs"), "s", ""),
            "corpus_io.load_runs.lines": (read_lines / n, "count", "run lines read per command"),
            "corpus_io.load_runs.lines_per_s": (per_second("corpus_io.load_runs", read_lines), "1/s", ""),
            "corpus_io.load_runs.rss_mb": (
                present(lambda name: rss_kb.get(name, 0) / 1024)("corpus_io.load_runs"), "MB",
                "largest peak-RSS growth while loading"),
            "corpus_io.load_judgments.s": (per_cmd("corpus_io.load_judgments"), "s", ""),
            "corpus_io.relevant_docs.s": (per_cmd("corpus_io.relevant_docs"), "s", ""),
            "corpus_io.relevant_docs.calls": (calls_per_cmd("corpus_io.relevant_docs"), "count", ""),
            "corpus_io.ranking.s": (per_cmd("corpus_io.ranking"), "s", ""),
            "metrics.total_utility.s": (per_cmd("metrics.total_utility"), "s", ""),
            "metrics.total_utility.calls": (calls_per_cmd("metrics.total_utility"), "count", ""),
            "metrics.pool_terms": (terms / n, "count", "M(M-1) * sum_q R_q per command"),
            "metrics.ns_per_pool_term": (ns_per("metrics.total_utility", terms), "ns",
                                         "total_utility time / pool_terms"),
            "harness.run_leave_one_out.s": (per_cmd("harness.run_leave_one_out"), "s", ""),
            "harness.run_leave_one_out.self_s": (self_per_cmd("harness.run_leave_one_out"), "s", ""),
            "harness.cells": (sum(c.cells for c in cmds) / n, "count",
                              "system x query cells per command"),
            "metrics.average_precision.s": (per_cmd("metrics.average_precision"), "s", ""),
            "harness.aggregate.s": (per_cmd("harness.aggregate"), "s", ""),
            "harness.per_query_diffs.s": (per_cmd("harness.per_query_diffs"), "s", ""),
            "cli.main.s": (per_cmd("cli.main"), "s", ""),
            "cli.self_s": (self_per_cmd("cli.main"), "s", "main minus its child spans"),
            "cli.render_ranking.s": (per_cmd("cli.render_ranking"), "s", ""),
            "cli.render_per_query.s": (per_cmd("cli.render_per_query"), "s", ""),
            "cli.import_s": (self.import_cost(), "s",
                             f"median of {IMPORT_PAIRS}: import noveval.cli minus bare interpreter"),
            "synth.generate.s": (per_cmd("synth.generate"), "s", ""),
            "synth.generate.lines_per_s": (per_second("synth.generate", synth_lines), "1/s", ""),
            "corpus_io.write_run_file.s": (per_cmd("corpus_io.write_run_file"), "s", ""),
            "corpus_io.write_judgments.s": (per_cmd("corpus_io.write_judgments"), "s", ""),
            "trace.overhead_frac": (
                total.get("cli.main", 0.0) / untraced_main - 1 if untraced_main else None,
                "ratio", "traced cli.main vs untraced"),
        }
        note = f"per traced command, {len(cmds)} commands"
        return {k: (v, u, extra or note) for k, (v, u, extra) in m.items()}

    def import_cost(self) -> float:
        bare, imported = [], []
        for _ in range(IMPORT_PAIRS):
            bare.append(self.run(["-c", "pass"]).wall_s)
            imported.append(self.run(["-c", "import noveval.cli"]).wall_s)
        return statistics.median(imported) - statistics.median(bare)


def ratio_of_sums(samples: list[tuple[Child, float]]) -> float:
    """Summed wall time of the children over their summed calibration time."""
    return sum(c.wall_s for c, _ in samples) / sum(cal_s for _, cal_s in samples)


def stamp(nproc: int) -> dict:
    rev, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
            dirty = bool(subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_rev": rev, "dirty": dirty, "python": sys.version.split()[0],
            "nproc": nproc, "pinned_cpu": sorted(os.sched_getaffinity(0))}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "noveval" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a noveval source checkout ({ROOT} lacks src/noveval "
              "or BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # Everything, the commands and the calibration included, runs on one CPU:
    # the two vCPUs of a shared host slow down at different times, so a
    # calibration on the other one would not track the command's speed.
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(usable)})
    bench = Bench(args.workload, args.seed)
    try:
        setups = bench.setup()
        if args.trace:
            metrics, records = bench.measure_traced(seconds)
            wanted = spec["per_layer"]
        else:
            metrics, records = bench.measure(seconds), []
            metrics["setup_s"] = (
                REFERENCE_S * statistics.median(wall / cal for wall, cal in setups), "s",
                f"median of {SETUP_REPEATS} warm-up imports, at the reference speed")
            metrics["setup_raw_s"] = (statistics.median(wall for wall, _ in setups), "s",
                                      f"median of {SETUP_REPEATS} warm-up imports; not gated")
            metrics["inputs_s"] = (bench.inputs_s, "s", "generating the inputs; not gated")
            wanted = spec["end_to_end"]
    finally:
        bench.close()
    error_rate = bench.failed / max(1, bench.attempted)
    metrics["error_rate"] = (error_rate, "ratio", f"{bench.failed} of {bench.attempted} commands")

    info = stamp(len(usable))
    inputs = [{"file": str(path.relative_to(bench.work)), "sha256": f.sha256, "lines": f.lines}
              for c in bench.corpora for path, f in c.files()]
    print(f"# noveval benchmark: workload={args.workload} seed={args.seed} seconds={seconds} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for i in inputs[:6]:
        print(f"# input {i['file']} lines={i['lines']} sha256={i['sha256']}")
    if len(inputs) > 6:
        print(f"# ... {len(inputs) - 6} more input files, listed in the results file")
    for name, (value, unit, note) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit}  ({note})")
    for e in bench.errors:
        print(f"# mismatch: {e}")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted if metrics[m["name"]][0] is not None
        },
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "stamp": info, "inputs": inputs, "setup_s_samples": setups,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "errors": bench.errors, "samples": bench.samples, "traced_commands": records,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
