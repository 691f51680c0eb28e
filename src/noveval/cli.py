"""Command-line entry point: evaluate a corpus or generate a synthetic one.

Evaluation:
    noveval --runs RUNS --qrels QRELS [options]
Synthetic corpus generation:
    noveval synth --out-dir DIR [options]

Exit codes: 0 success, 1 validation/configuration error, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import corpus_io
from .corpus_io import Relevance
from .errors import NovevalError, ValidationError
from .harness import (
    LeaveOneOutPlan,
    PerQueryDiffMatrix,
    RankingTable,
    aggregate,
    per_query_diffs,
    run_leave_one_out,
)
from .metrics import EvalConfig
from .synth import SyntheticSpec, generate

_LOG_BASES = {"e": math.e, "2": 2.0, "10": 10.0}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for I/O failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _signed(diff: int) -> str:
    return f"+{diff}" if diff > 0 else str(diff)


def _columnize(rows: list[list[str]]) -> str:
    """Left-align the first column and right-align the rest."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        cells = [
            cell.rjust(w) if i else cell.ljust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        ]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def abbreviate_queries(queries: list[str]) -> list[str]:
    """Strip a shared query-id prefix for display, keeping at least two characters.

    Applied only when the shortened ids stay non-empty and unambiguous.
    """
    prefix = os.path.commonprefix(queries)
    if not prefix or len(queries) < 2:
        return list(queries)
    short = [q[-max(2, len(q) - len(prefix)):] for q in queries]
    if len(set(short)) != len(queries):
        return list(queries)
    return short


def render_ranking(
    table: RankingTable,
    fmt: str,
    metadata: dict | None = None,
    per_query: PerQueryDiffMatrix | None = None,
) -> str:
    """Utility-ranked table, then any `per_query` matrix; text aligns, CSV/JSON keep precision."""
    if len(table.rows) < 2:
        raise ValidationError("ranking table requires at least 2 systems")
    rows = table.by_utility_rank()
    if fmt == "json":
        payload: dict = {"metadata": metadata} if metadata else {}
        payload["ranking"] = [
            {
                "system": r.system,
                "ap_rank": r.ap_rank,
                "utility_rank": r.utility_rank,
                "difference": r.difference,
                "ap_score": r.ap_score,
                "utility_score": r.utility_score,
            }
            for r in rows
        ]
        if per_query is not None:
            return render_per_query(per_query, fmt, report=payload)
        return json.dumps(payload, indent=2) + "\n"
    tail = "" if per_query is None else "\n" + render_per_query(per_query, fmt)
    meta_lines = _metadata_comments(metadata)
    if fmt == "csv":
        body = "system,ap_rank,utility_rank,difference,ap_score,utility_score\n"
        for r in rows:
            body += (
                f"{r.system},{r.ap_rank},{r.utility_rank},{r.difference},"
                f"{r.ap_score!r},{r.utility_score!r}\n"
            )
        return meta_lines + body + tail
    cells = [["system", "ap_rank", "utility_rank", "difference", "ap_score", "utility_score"]]
    for r in rows:
        cells.append(
            [
                r.system,
                str(r.ap_rank),
                str(r.utility_rank),
                _signed(r.difference),
                f"{r.ap_score:.4f}",
                f"{r.utility_score:.4f}",
            ]
        )
    return meta_lines + _columnize(cells) + tail


def render_per_query(matrix: PerQueryDiffMatrix, fmt: str, report: dict | None = None) -> str:
    """Rank-difference matrix (rows systems, columns queries); JSON nests it in a `report`."""
    if fmt == "json":
        payload = {
            "queries": list(matrix.queries),
            "rows": [
                {
                    "system": s,
                    "diffs": [matrix.diffs[(s, q)] for q in matrix.queries],
                }
                for s in matrix.systems
            ],
        }
        if report is not None:
            payload = report | {"per_query": payload}
        return json.dumps(payload, indent=2) + "\n"
    headers = abbreviate_queries(list(matrix.queries))
    if fmt == "csv":
        body = "system," + ",".join(headers) + "\n"
        for s in matrix.systems:
            body += s + "," + ",".join(
                str(matrix.diffs[(s, q)]) for q in matrix.queries
            ) + "\n"
        return body
    cells = [["system"] + headers]
    for s in matrix.systems:
        cells.append([s] + [str(matrix.diffs[(s, q)]) for q in matrix.queries])
    return _columnize(cells)


def _metadata_comments(metadata: dict | None) -> str:
    if not metadata:
        return ""
    out = ""
    for key, value in metadata.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                out += f"# {key}.{k2} = {v2}\n"
        else:
            out += f"# {key} = {value}\n"
    return out


def _digest(path: Path) -> str | dict[str, str]:
    if path.is_dir():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())
            if p.is_file()
        }
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_grade_map(spec: str) -> dict[int, Relevance]:
    """Parse "r=2,p=1,i=0" into an integer -> grade mapping."""
    letters = {
        "r": Relevance.RELEVANT,
        "p": Relevance.PARTIALLY_RELEVANT,
        "i": Relevance.IRRELEVANT,
    }
    mapping: dict[int, Relevance] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise NovevalError(f"bad grade-map entry {part!r}; expected letter=int")
        letter, _, value = part.partition("=")
        letter = letter.strip().lower()
        if letter not in letters:
            raise NovevalError(f"unknown grade letter {letter!r}; expected r, p or i")
        try:
            grade = int(value)
        except ValueError:
            raise NovevalError(f"grade value is not an integer: {value!r}") from None
        if grade in mapping:
            raise NovevalError(f"grade value {grade} is mapped twice in grade map {spec!r}")
        mapping[grade] = letters[letter]
    return mapping


def _parse_epsilon(spec: str) -> float | None:
    if spec == "default":
        return None
    if spec.startswith("custom:"):
        try:
            return float(spec.partition(":")[2])
        except ValueError:
            raise NovevalError(f"bad epsilon policy value: {spec!r}") from None
    raise NovevalError(f"epsilon policy must be 'default' or 'custom:<float>': {spec!r}")


def _eval_parser() -> _Parser:
    p = _Parser(prog="noveval", description="Leave-one-out novelty-utility evaluation")
    p.add_argument("--runs", required=True, help="run file or directory of run files")
    p.add_argument("--qrels", required=True, help="relevance judgment file")
    p.add_argument("--depth", type=int, default=300, help="evaluation depth N")
    p.add_argument(
        "--partial-relevant", choices=["exclude", "include"], default="exclude",
        help="whether partially relevant documents count as relevant",
    )
    p.add_argument("--agg", choices=["sum", "mean"], default="sum",
                   help="cross-query aggregation of utility")
    p.add_argument("--log-base", choices=sorted(_LOG_BASES), default="e")
    p.add_argument("--epsilon-policy", default="default",
                   help="'default' or 'custom:<float>' zero-probability floor")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--per-query", action="store_true",
                   help="also emit the per-query rank-difference matrix")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--grade-map", default="r=2,p=1,i=0",
                   help="grade mapping, e.g. r=2,p=1,i=0")
    p.add_argument("--strict-scores", action="store_true",
                   help="reject runs whose scores increase with rank")
    return p


def _synth_parser() -> _Parser:
    p = _Parser(prog="noveval synth", description="Generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--systems", type=int, default=4)
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--relevant-per-query", type=int, default=10)
    p.add_argument("--shared-fraction", type=float, default=0.5)
    p.add_argument("--unique-per-system", type=int, default=1)
    p.add_argument("--designated-system", type=int, default=None,
                   help="index of the only system that receives unique documents")
    p.add_argument("--ap-handicap", action="store_true",
                   help="depress the designated system's average precision")
    p.add_argument("--seed", type=int, default=0)
    return p


def _run_eval(argv: list[str]) -> int:
    args = _eval_parser().parse_args(argv)
    config = EvalConfig(
        depth_n=args.depth,
        partial_relevant_counts=(args.partial_relevant == "include"),
        log_base=_LOG_BASES[args.log_base],
        epsilon_custom=_parse_epsilon(args.epsilon_policy),
    )
    grade_map = _parse_grade_map(args.grade_map)
    runs = corpus_io.load_runs(args.runs, strict_scores=args.strict_scores)
    judgments = corpus_io.load_judgments(args.qrels, grade_map)
    plan = LeaveOneOutPlan(
        systems=tuple(runs.systems()), queries=tuple(runs.queries()), config=config
    )
    results = run_leave_one_out(runs, judgments, plan)
    table = aggregate(results, scheme=args.agg)
    metadata = {
        "config": config.to_dict() | {"agg": args.agg},
        "inputs": {
            "runs": _digest(Path(args.runs)),
            "qrels": _digest(Path(args.qrels)),
        },
    }
    matrix = per_query_diffs(results) if args.per_query else None
    _write_output(render_ranking(table, args.format, metadata, matrix), args.out)
    return 0


def _run_synth(argv: list[str]) -> int:
    args = _synth_parser().parse_args(argv)
    spec = SyntheticSpec(
        num_systems=args.systems,
        num_queries=args.queries,
        depth_n=args.depth,
        relevant_per_query=args.relevant_per_query,
        shared_fraction=args.shared_fraction,
        unique_per_system=args.unique_per_system,
        seed=args.seed,
        designated_system=args.designated_system,
        ap_handicap=args.ap_handicap,
    )
    runs, judgments = generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "runs.txt", "w", encoding="utf-8") as fh:
        corpus_io.write_run_file(runs, fh)
    with open(out_dir / "qrels.txt", "w", encoding="utf-8") as fh:
        corpus_io.write_judgments(judgments, fh)
    print(f"wrote {out_dir / 'runs.txt'} and {out_dir / 'qrels.txt'}")
    return 0


def _write_output(content: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(content)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "synth":
            return _run_synth(argv[1:])
        return _run_eval(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NovevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
