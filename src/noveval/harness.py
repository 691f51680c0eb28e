"""Leave-one-out evaluation over all systems and queries.

Each system takes a turn as the system under evaluation while the remaining
systems form the pool of "existing systems". `run_leave_one_out` evaluates
every system of the runs on every query of the runs into one `LeaveOneOut`
table: per query, the utility and AP of each system. The ranking table
(utility vs. average precision, with rank differences) and the optional
per-query rank-difference matrix are read from its columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus_io import JudgmentSet, RunSet
from .errors import ConfigError, ValidationError, validated
from .metrics import EvalConfig, QueryTable, average_precision, total_utility


@validated
class LeaveOneOut(NamedTuple):
    """Per-query leave-one-out scores of every system.

    utility[q][i] and ap[q][i] belong to systems[i] on query q; AP is None on
    a query with no relevant document.
    """

    systems: tuple[str, ...]
    queries: tuple[str, ...]
    utility: dict[str, tuple[float, ...]]
    ap: dict[str, tuple[float | None, ...]]

    def _check(self):
        m = len(self.systems)
        cells = {(len(self.utility.get(q, ())), len(self.ap.get(q, ()))) for q in self.queries}
        if cells != {(m, m)}:  # also when there is no query
            raise ValidationError(f"leave-one-out table of {m} systems is incomplete")

    def ap_defined(self) -> list[str]:
        """The queries where AP is defined for every system."""
        return [q for q in self.queries if None not in self.ap[q]]


def run_leave_one_out(runs: RunSet, judgments: JudgmentSet, config: EvalConfig) -> LeaveOneOut:
    """Evaluate every system of `runs` on every query of `runs`.

    Each cell reads the pool of the other systems from its query's `QueryTable`.
    """
    systems = tuple(runs.systems())
    if len(systems) < 2:
        raise ConfigError("leave-one-out requires >= 2 systems")
    utility, ap = {}, {}
    for query in runs.queries():
        relevant = judgments.relevant_docs(query, config.partial_relevant_counts)
        rankings = (runs.ranking(s, query, config.depth_n, among=relevant) for s in systems)
        table = QueryTable(rankings, relevant, config)
        utility[query] = tuple(total_utility(x, table.pool_without(i), relevant, config).total
                               for i, x in enumerate(table))
        ap[query] = tuple(average_precision(x, relevant) for x in table)
    return LeaveOneOut(systems, tuple(utility), utility, ap)


def tie_break(scores: list[tuple[str, float]]) -> dict[str, int]:
    """Ranks 1..M by descending score; exact ties broken by ascending system id."""
    ordered = sorted(scores, key=lambda sv: (-sv[1], sv[0]))
    return {system: rank for rank, (system, _) in enumerate(ordered, start=1)}


class RankingRow(NamedTuple):
    system: str
    ap_score: float
    utility_score: float
    ap_rank: int
    utility_rank: int

    @property
    def difference(self) -> int:
        """Positive when the utility measure ranks the system higher than AP does."""
        return self.ap_rank - self.utility_rank


@validated
class RankingTable(NamedTuple):
    rows: tuple[RankingRow, ...]

    def _check(self):
        m = len(self.rows)
        for column in ("ap_rank", "utility_rank"):
            ranks = sorted(getattr(row, column) for row in self.rows)
            if ranks != list(range(1, m + 1)):
                raise ValidationError(f"{column} column is not a permutation of 1..{m}")

    def by_utility_rank(self) -> list[RankingRow]:
        return sorted(self.rows, key=lambda row: row.utility_rank)


def aggregate(scores: LeaveOneOut, scheme: str = "sum") -> RankingTable:
    """Aggregate per-query scores across queries and assign both rankings.

    Utility uses `scheme` (sum by default; mean yields the same ordering when
    every query is defined). AP is the mean over the queries where it is
    defined (mean average precision); queries with no relevant documents are
    excluded from it for every system symmetrically. Each sum is rounded once
    (`math.fsum`), so no score depends on the order of the queries.
    """
    if scheme not in ("sum", "mean"):
        raise ConfigError(f"unknown aggregation scheme: {scheme!r}")
    systems, queries, defined = scores.systems, scores.queries, scores.ap_defined()
    utility_scores = [
        math.fsum(scores.utility[q][i] for q in queries) for i in range(len(systems))
    ]
    if scheme == "mean":
        utility_scores = [u / len(queries) for u in utility_scores]
    ap_scores = [
        math.fsum(scores.ap[q][i] for q in defined) / len(defined) if defined else 0.0
        for i in range(len(systems))
    ]
    utility_ranks = tie_break(list(zip(systems, utility_scores)))
    ap_ranks = tie_break(list(zip(systems, ap_scores)))
    rows = tuple(
        RankingRow(
            system=s,
            ap_score=ap,
            utility_score=utility,
            ap_rank=ap_ranks[s],
            utility_rank=utility_ranks[s],
        )
        for s, ap, utility in zip(systems, ap_scores, utility_scores)
    )
    return RankingTable(rows=rows)


class PerQueryDiffMatrix(NamedTuple):
    """Rank difference (AP rank - utility rank) per (system, query).

    Queries where AP is undefined (no relevant documents) are omitted.
    """

    systems: tuple[str, ...]
    queries: tuple[str, ...]
    diffs: dict[tuple[str, str], int]


def per_query_diffs(scores: LeaveOneOut) -> PerQueryDiffMatrix:
    """Rank systems per query by AP and by utility independently; cell = rank gap."""
    systems, defined = scores.systems, scores.ap_defined()
    diffs: dict[tuple[str, str], int] = {}
    for q in defined:
        ap_ranks = tie_break(list(zip(systems, scores.ap[q])))
        utility_ranks = tie_break(list(zip(systems, scores.utility[q])))
        for s in systems:
            diffs[(s, q)] = ap_ranks[s] - utility_ranks[s]
    return PerQueryDiffMatrix(systems=systems, queries=tuple(defined), diffs=diffs)
