"""Reference results computed from the generated files, and output checks.

The reference uses the closed form directly: a system that ranks document d
at rank r <= N holds the integer c = N - r + 1 (0 if it missed d), the column
total is T = sum of c over all M systems, and system x's pool numerator is
T - c_x. Then P(x) = c_x / N and P(pool) = (T - c_x) / (N (M - 1)), with the
same floors as the model. This costs O(M * R) per query, independent of how
the package pools, so it is an honest referee for any kernel.

Utility and AP must agree within 1e-9 relative to the magnitude of the
summed terms. A rank is checked against the range of ranks that the reference
scores allow: systems whose scores lie within that tolerance may appear in
either order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REL_TOL = 1e-9
TEXT_DECIMALS_TOL = 5e-5  # the text table prints scores with 4 decimals
LOG_BASES = {"e": math.e, "2": 2.0, "10": 10.0}


@dataclass(frozen=True)
class JudgedRanks:
    """Ranks of every judged grade-1/grade-2 document, read from the files."""

    systems: list[str]
    queries: list[str]  # queries present in the runs
    grades: dict[str, dict[str, int]]  # query -> doc -> grade (1 or 2)
    ranks: dict[tuple[str, str], dict[str, int]]  # (system, query) -> doc -> rank


def read_judged_ranks(run_paths: list[Path], qrels: Path) -> JudgedRanks:
    grades: dict[str, dict[str, int]] = {}
    with open(qrels, encoding="utf-8") as fh:
        for line in fh:
            q, _, doc, g = line.split()
            if int(g) > 0:
                grades.setdefault(q, {})[doc] = int(g)
    ranks: dict[tuple[str, str], dict[str, int]] = {}
    systems: set[str] = set()
    queries: set[str] = set()
    for path in run_paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                q, _, doc, rank, _, s = line.split()
                if (s, q) not in ranks:
                    ranks[(s, q)] = {}
                    systems.add(s)
                    queries.add(q)
                if doc in grades.get(q, ()):
                    ranks[(s, q)][doc] = int(rank)
    return JudgedRanks(sorted(systems), sorted(queries), grades, ranks)


@dataclass(frozen=True)
class Options:
    depth: int
    include_partial: bool = False
    log_base: str = "e"
    epsilon: float | None = None
    agg: str = "sum"


@dataclass
class Expected:
    systems: list[str]
    kept_queries: list[str]  # queries with a defined AP
    utility: dict[str, float]
    utility_mag: dict[str, float]  # sum of |per-document terms|, the tolerance scale
    ap: dict[str, float]
    q_utility: dict[tuple[str, str], float]
    q_utility_mag: dict[tuple[str, str], float]
    q_ap: dict[tuple[str, str], float]
    pool_terms: int  # M (M - 1) sum_q R_q: pool lookups a naive leave-one-out makes


def expected(jr: JudgedRanks, opt: Options) -> Expected:
    systems, queries = jr.systems, jr.queries
    m, n = len(systems), opt.depth
    base = LOG_BASES[opt.log_base]

    def log(x: float) -> float:
        return math.log(x) if base == math.e else math.log(x) / math.log(base)

    if opt.epsilon is not None:
        sys_floor = pool_floor = Fraction(opt.epsilon)
    else:
        sys_floor, pool_floor = Fraction(1, 2 * n), Fraction(1, 2 * n * (m - 1))
    wanted = (1, 2) if opt.include_partial else (2,)
    q_util: dict[tuple[str, str], float] = {}
    q_mag: dict[tuple[str, str], float] = {}
    q_ap: dict[tuple[str, str], float] = {}
    kept: list[str] = []
    pool_terms = 0
    for q in queries:
        rel = sorted(d for d, g in jr.grades.get(q, {}).items() if g in wanted)
        pool_terms += m * (m - 1) * len(rel)
        c = {}
        for s in systems:
            ranks = jr.ranks.get((s, q), {})
            c[s] = [n - ranks[d] + 1 if ranks.get(d, n + 1) <= n else 0 for d in rel]
        totals = [sum(col) for col in zip(*c.values())] if rel else []
        for s in systems:
            u = mag = 0.0
            for cx, t in zip(c[s], totals):
                p_sys = Fraction(cx, n) if cx else sys_floor
                p_pool = Fraction(t - cx, n * (m - 1)) if t - cx else pool_floor
                term = log(float(p_sys / p_pool))
                u += term
                mag += abs(term)
            q_util[(s, q)], q_mag[(s, q)] = u, mag
            if rel:
                hits, acc = 0, Fraction(0)
                for r in sorted(n - cx + 1 for cx in c[s] if cx):
                    hits += 1
                    acc += Fraction(hits, r)
                q_ap[(s, q)] = float(acc / len(rel))
        if rel:
            kept.append(q)
    utility, mag, ap = {}, {}, {}
    for s in systems:
        total = sum(q_util[(s, q)] for q in queries)
        utility[s] = total / len(queries) if opt.agg == "mean" else total
        mag[s] = sum(q_mag[(s, q)] for q in queries)
        ap[s] = sum(q_ap[(s, q)] for q in kept) / len(kept) if kept else 0.0
    return Expected(systems, kept, utility, mag, ap, q_util, q_mag, q_ap, pool_terms)


def rank_range(scores: dict[str, float], scale: dict[str, float]) -> dict[str, tuple[int, int]]:
    """Lowest and highest rank each system may take, given near-ties."""
    tol = REL_TOL * max([1e-300, *(max(abs(scores[s]), scale[s]) for s in scores)])
    out = {}
    for s, v in scores.items():
        better = sum(1 for t, w in scores.items() if t != s and w > v + tol)
        not_worse = sum(1 for t, w in scores.items() if t != s and w >= v - tol)
        out[s] = (better + 1, not_worse + 1)
    return out


def _close(got: float, want: float, scale: float, fmt: str) -> bool:
    tol = REL_TOL * max(abs(want), scale)
    if fmt == "text":
        tol += TEXT_DECIMALS_TOL
    return abs(got - want) <= tol


def _parse_table(text: str, fmt: str) -> tuple[list[str], list[tuple], list[list[str]]]:
    """Split a text/csv report into metadata comments, ranking rows, per-query rows."""
    comments, blocks, cur = [], [], []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif not line.strip():
            if cur:
                blocks.append(cur)
            cur = []
        else:
            cur.append(line.split(",") if fmt == "csv" else line.split())
    if cur:
        blocks.append(cur)
    header = ["system", "ap_rank", "utility_rank", "difference", "ap_score", "utility_score"]
    if not blocks or blocks[0][0] != header:
        raise ValueError("ranking header missing")
    rows = [
        (r[0], int(r[1]), int(r[2]), int(r[3]), float(r[4]), float(r[5])) for r in blocks[0][1:]
    ]
    return comments, rows, blocks[1] if len(blocks) > 1 else []


def check_eval_output(
    text: str, fmt: str, per_query: bool, exp: Expected, opt: Options, digests: dict
) -> list[str]:
    """Compare a report with the reference; returns the mismatches found."""
    try:
        if fmt == "json":
            doc = json.loads(text)
            rows = [
                (r["system"], r["ap_rank"], r["utility_rank"], r["difference"],
                 r["ap_score"], r["utility_score"])
                for r in doc["ranking"]
            ]
            pq = doc.get("per_query")
            errors = _check_json_metadata(doc["metadata"], opt, digests)
            if per_query != (pq is not None):
                errors.append("per-query section presence does not match --per-query")
            pq_queries = pq["queries"] if pq else []
            pq_rows = [(r["system"], r["diffs"]) for r in pq["rows"]] if pq else []
        else:
            comments, rows, block = _parse_table(text, fmt)
            errors = [
                f"metadata lacks digest line {want!r}"
                for want in (f"# inputs.runs = {digests['runs']}", f"# inputs.qrels = {digests['qrels']}")
                if want not in comments
            ]
            if per_query != bool(block):
                errors.append("per-query section presence does not match --per-query")
            pq_queries = block[0][1:] if block else []
            pq_rows = [(r[0], [int(v) for v in r[1:]]) for r in block[1:]]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {fmt} report: {exc!r}"]

    errors += _check_ranking(rows, fmt, exp)
    if per_query:
        errors += _check_per_query(pq_queries, pq_rows, fmt, exp)
    return errors


def _check_json_metadata(meta: dict, opt: Options, digests: dict) -> list[str]:
    base = LOG_BASES[opt.log_base]
    want_config = {
        "depth_n": opt.depth,
        "partial_relevant_counts": opt.include_partial,
        "log_base": "e" if base == math.e else base,
        "epsilon_custom": opt.epsilon,
        "agg": opt.agg,
    }
    errors = []
    if meta.get("config") != want_config:
        errors.append(f"metadata config {meta.get('config')} != {want_config}")
    if meta.get("inputs") != digests:
        errors.append("metadata input digests do not match the generated files")
    return errors


def _check_ranking(rows: list[tuple], fmt: str, exp: Expected) -> list[str]:
    errors = []
    systems = [r[0] for r in rows]
    if sorted(systems) != exp.systems:
        return [f"ranking lists {len(systems)} systems, expected {len(exp.systems)}"]
    if [r[2] for r in rows] != list(range(1, len(rows) + 1)):
        errors.append("rows are not ordered by utility rank 1..M")
    if sorted(r[1] for r in rows) != list(range(1, len(rows) + 1)):
        errors.append("ap_rank is not a permutation of 1..M")
    ap_range = rank_range(exp.ap, {s: 1.0 for s in exp.systems})
    ut_range = rank_range(exp.utility, exp.utility_mag)
    for s, ap_rank, ut_rank, diff, ap, ut in rows:
        if diff != ap_rank - ut_rank:
            errors.append(f"{s}: difference {diff} != {ap_rank} - {ut_rank}")
        if not _close(ap, exp.ap[s], 1.0, fmt):
            errors.append(f"{s}: ap {ap!r} != reference {exp.ap[s]!r}")
        if not _close(ut, exp.utility[s], exp.utility_mag[s], fmt):
            errors.append(f"{s}: utility {ut!r} != reference {exp.utility[s]!r}")
        lo, hi = ap_range[s]
        if not lo <= ap_rank <= hi:
            errors.append(f"{s}: ap_rank {ap_rank} outside reference range {lo}..{hi}")
        lo, hi = ut_range[s]
        if not lo <= ut_rank <= hi:
            errors.append(f"{s}: utility_rank {ut_rank} outside reference range {lo}..{hi}")
    return errors


def _check_per_query(
    queries: list[str], rows: list[tuple[str, list[int]]], fmt: str, exp: Expected
) -> list[str]:
    kept = exp.kept_queries
    if len(queries) != len(kept) or not all(
        want == got if fmt == "json" else want.endswith(got) for want, got in zip(kept, queries)
    ):
        return [f"per-query columns {queries[:5]}... do not match {kept[:5]}..."]
    if [s for s, _ in rows] != exp.systems:
        return ["per-query rows are not the systems in sorted order"]
    errors = []
    for q_i, q in enumerate(kept):
        ap_range = rank_range(
            {s: exp.q_ap[(s, q)] for s in exp.systems}, {s: 1.0 for s in exp.systems}
        )
        ut_range = rank_range(
            {s: exp.q_utility[(s, q)] for s in exp.systems},
            {s: exp.q_utility_mag[(s, q)] for s in exp.systems},
        )
        for s, diffs in rows:
            (a_lo, a_hi), (u_lo, u_hi) = ap_range[s], ut_range[s]
            if len(diffs) != len(kept) or not a_lo - u_hi <= diffs[q_i] <= a_hi - u_lo:
                errors.append(f"{s}/{q}: per-query difference outside reference range")
    return errors


def check_synth_output(out_dir: Path, systems: int, queries: int, depth: int, relevant: int) -> list[str]:
    """The files `noveval synth` wrote must parse and hold the expected line counts."""
    errors = []
    try:
        groups: dict[tuple[str, str], set[int]] = {}
        docs: dict[tuple[str, str], set[str]] = {}
        lines = 0
        with open(out_dir / "runs.txt", encoding="utf-8") as fh:
            for line in fh:
                q, _, doc, rank, score, s = line.split()
                float(score)
                groups.setdefault((s, q), set()).add(int(rank))
                docs.setdefault((s, q), set()).add(doc)
                lines += 1
        if lines != systems * queries * depth:
            errors.append(f"runs.txt has {lines} lines, expected {systems * queries * depth}")
        if len(groups) != systems * queries:
            errors.append(f"runs.txt has {len(groups)} (system, query) groups")
        if any(r != set(range(1, depth + 1)) for r in groups.values()):
            errors.append("runs.txt ranks are not 1..N in every group")
        if any(len(d) != depth for d in docs.values()):
            errors.append("runs.txt repeats a document within a group")
        grade2 = 0
        with open(out_dir / "qrels.txt", encoding="utf-8") as fh:
            for line in fh:
                _, _, _, g = line.split()
                if int(g) not in (0, 2):
                    errors.append(f"qrels.txt has grade {g}")
                grade2 += int(g) == 2
        if grade2 != queries * relevant:
            errors.append(f"qrels.txt has {grade2} relevant lines, expected {queries * relevant}")
    except (OSError, ValueError) as exc:
        errors.append(f"synth output unreadable: {exc!r}")
    return errors
