"""Leave-one-out evaluation over all systems and queries.

Each system takes a turn as the system under evaluation while the remaining
systems form the pool of "existing systems". Results are aggregated into a
ranking table (utility vs. average precision, with rank differences) and an
optional per-query rank-difference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus_io import JudgmentSet, RunSet
from .errors import ConfigError, ValidationError
from .metrics import EvalConfig, QueryTable, UtilityScore, average_precision, total_utility


@dataclass(frozen=True)
class LeaveOneOutPlan:
    """Which systems and queries to evaluate, and with what configuration."""

    systems: tuple[str, ...]
    queries: tuple[str, ...]
    config: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if len(self.systems) < 2:
            raise ConfigError("leave-one-out requires >= 2 systems")
        if len(set(self.systems)) != len(self.systems):
            raise ConfigError("system list contains duplicates")
        if len(self.queries) < 1:
            raise ConfigError("at least one query is required")
        if len(set(self.queries)) != len(self.queries):
            raise ConfigError("query list contains duplicates")


@dataclass(frozen=True)
class SystemQueryResult:
    """One leave-one-out trial: system x on one query against the pool of the rest."""

    system: str
    query: str
    utility: UtilityScore
    ap: float | None


def run_leave_one_out(
    runs: RunSet, judgments: JudgmentSet, plan: LeaveOneOutPlan
) -> list[SystemQueryResult]:
    """Evaluate every (system, query) cell; output ordered by system then query.

    Each cell reads the pool of the other systems from its query's `QueryTable`.
    """
    cfg = plan.config
    present = set(runs.systems())
    for system in plan.systems:
        if system not in present:
            raise ConfigError(f"system {system!r} is not present in the runs")
    systems = sorted(plan.systems)
    tables: dict[str, QueryTable] = {}
    relevant: dict[str, set[str]] = {}
    for query in sorted(plan.queries):
        relevant[query] = judgments.relevant_docs(query, cfg.partial_relevant_counts)
        rankings = [runs.ranking(s, query, cfg.depth_n, among=relevant[query]) for s in systems]
        tables[query] = QueryTable(rankings, relevant[query], cfg.depth_n)
    results: list[SystemQueryResult] = []
    for i, system in enumerate(systems):
        for query, table in tables.items():
            utility = total_utility(table[i], table.pool_without(i), relevant[query], cfg)
            ap = average_precision(table[i], relevant[query])
            results.append(SystemQueryResult(system=system, query=query, utility=utility, ap=ap))
    return results


def tie_break(scores: list[tuple[str, float]]) -> dict[str, int]:
    """Ranks 1..M by descending score; exact ties broken by ascending system id."""
    ordered = sorted(scores, key=lambda sv: (-sv[1], sv[0]))
    return {system: rank for rank, (system, _) in enumerate(ordered, start=1)}


@dataclass(frozen=True)
class RankingRow:
    system: str
    ap_score: float
    utility_score: float
    ap_rank: int
    utility_rank: int

    @property
    def difference(self) -> int:
        """Positive when the utility measure ranks the system higher than AP does."""
        return self.ap_rank - self.utility_rank


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankingRow, ...]

    def __post_init__(self):
        m = len(self.rows)
        for column in ("ap_rank", "utility_rank"):
            ranks = sorted(getattr(row, column) for row in self.rows)
            if ranks != list(range(1, m + 1)):
                raise ValidationError(f"{column} column is not a permutation of 1..{m}")

    def by_utility_rank(self) -> list[RankingRow]:
        return sorted(self.rows, key=lambda row: row.utility_rank)


def _grid(
    results: list[SystemQueryResult],
) -> tuple[list[str], list[str], dict[tuple[str, str], SystemQueryResult], list[str]]:
    """Check that `results` fill the (system, query) grid exactly once.

    Returns the sorted systems and queries, the results by (system, query),
    and the queries where AP is defined for every system.
    """
    systems = sorted({r.system for r in results})
    queries = sorted({r.query for r in results})
    by_cell = {(r.system, r.query): r for r in results}
    missing = [(s, q) for s in systems for q in queries if (s, q) not in by_cell]
    if missing or len(results) != len(systems) * len(queries):
        raise ValidationError(f"result grid is incomplete; missing cells: {missing[:10]}")
    defined = [q for q in queries if all(by_cell[(s, q)].ap is not None for s in systems)]
    return systems, queries, by_cell, defined


def aggregate(results: list[SystemQueryResult], scheme: str = "sum") -> RankingTable:
    """Aggregate per-query scores across queries and assign both rankings.

    Utility uses `scheme` (sum by default; mean yields the same ordering when
    every query is defined). AP is the mean over the queries where it is
    defined (mean average precision); queries with no relevant documents are
    excluded from it for every system symmetrically.
    """
    if scheme not in ("sum", "mean"):
        raise ConfigError(f"unknown aggregation scheme: {scheme!r}")
    systems, queries, by_cell, defined = _grid(results)
    utility_scores = {s: sum(by_cell[(s, q)].utility.total for q in queries) for s in systems}
    if scheme == "mean":
        utility_scores = {s: u / len(queries) for s, u in utility_scores.items()}
    ap_scores = {
        s: sum(by_cell[(s, q)].ap for q in defined) / len(defined) if defined else 0.0
        for s in systems
    }
    utility_ranks = tie_break(sorted(utility_scores.items()))
    ap_ranks = tie_break(sorted(ap_scores.items()))
    rows = tuple(
        RankingRow(
            system=s,
            ap_score=ap_scores[s],
            utility_score=utility_scores[s],
            ap_rank=ap_ranks[s],
            utility_rank=utility_ranks[s],
        )
        for s in systems
    )
    return RankingTable(rows=rows)


@dataclass(frozen=True)
class PerQueryDiffMatrix:
    """Rank difference (AP rank - utility rank) per (system, query).

    Queries where AP is undefined (no relevant documents) are omitted.
    """

    systems: tuple[str, ...]
    queries: tuple[str, ...]
    diffs: dict[tuple[str, str], int]


def per_query_diffs(results: list[SystemQueryResult]) -> PerQueryDiffMatrix:
    """Rank systems per query by AP and by utility independently; cell = rank gap."""
    systems, _, by_cell, defined = _grid(results)
    diffs: dict[tuple[str, str], int] = {}
    for q in defined:
        ap_ranks = tie_break([(s, by_cell[(s, q)].ap) for s in systems])
        utility_ranks = tie_break([(s, by_cell[(s, q)].utility.total) for s in systems])
        for s in systems:
            diffs[(s, q)] = ap_ranks[s] - utility_ranks[s]
    return PerQueryDiffMatrix(systems=tuple(systems), queries=tuple(defined), diffs=diffs)
