"""Seeded synthetic corpora with controlled inter-system overlap, plus the
brute-force oracle used to cross-check the metrics and the harness.

Generation is a pure function of the spec (which includes the seed). The
generator is Python's Mersenne Twister (`random.Random`), whose output for a
given seed is stable across platforms and versions, so golden fixtures are
reproducible anywhere.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from .corpus_io import JudgmentSet, Relevance, RunSet, _RunColumns
from .errors import ConfigError, OracleScaleError, ValidationError, validated
from .metrics import EvalConfig, UtilityScore

if TYPE_CHECKING:
    from fractions import Fraction

#: The oracle refuses larger depths so its quadratic naivety stays honest.
ORACLE_MAX_DEPTH = 50


@validated
class SyntheticSpec(NamedTuple):
    """Parameters controlling overlap and novelty in a generated corpus.

    shared_fraction of each query's relevant documents is retrieved by every
    system at identical ranks; unique_per_system relevant documents are
    retrieved by exactly one system. When designated_system is set, only that
    system (by index) receives unique documents; otherwise every system does.
    Relevant documents not covered by either group are assigned to a random
    non-empty subset of systems, so every relevant document is retrieved by
    at least one system (as pooled assessment guarantees).

    ap_handicap prefixes the designated system's runs with one irrelevant
    document and sinks its unique documents to the bottom ranks, depressing
    its average precision without touching what it uniquely retrieves.
    """

    num_systems: int
    num_queries: int
    depth_n: int
    relevant_per_query: int
    shared_fraction: float
    unique_per_system: int
    seed: int
    designated_system: int | None = None
    ap_handicap: bool = False

    def _check(self):
        if self.num_systems < 2:
            raise ConfigError("num_systems must be >= 2")
        if self.num_queries < 1:
            raise ConfigError("num_queries must be >= 1")
        if self.depth_n < 1:
            raise ConfigError("depth_n must be >= 1")
        if self.relevant_per_query < 0:
            raise ConfigError("relevant_per_query must be >= 0")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigError("shared_fraction must be in [0, 1]")
        if self.unique_per_system < 0:
            raise ConfigError("unique_per_system must be >= 0")
        if self.designated_system is not None and not (
            0 <= self.designated_system < self.num_systems
        ):
            raise ConfigError("designated_system index out of range")
        if self.ap_handicap and self.designated_system is None:
            raise ConfigError("ap_handicap requires a designated system")
        holders = 1 if self.designated_system is not None else self.num_systems
        if self.num_shared + holders * self.unique_per_system > self.relevant_per_query:
            raise ConfigError(
                "infeasible spec: shared + unique documents exceed relevant_per_query"
            )
        budget = self.relevant_per_query + (1 if self.ap_handicap else 0)
        if budget > self.depth_n:
            raise ConfigError("infeasible spec: a run cannot hold all relevant documents")

    @property
    def num_shared(self) -> int:
        return round(self.shared_fraction * self.relevant_per_query)

    @property
    def system_ids(self) -> list[str]:
        return [f"sys{i:02d}" for i in range(self.num_systems)]

    @property
    def query_ids(self) -> list[str]:
        return [f"q{i:02d}" for i in range(self.num_queries)]


def _score(rank: int, depth_n: int) -> float:
    # 6-decimal rounding keeps write/parse round trips exact.
    return round((depth_n - rank + 1) / depth_n, 6)


def generate(spec: SyntheticSpec) -> tuple[RunSet, JudgmentSet]:
    """Generate (runs, judgments); deterministic for a fixed spec."""
    rng = random.Random(spec.seed)
    systems = spec.system_ids
    designated = (
        systems[spec.designated_system] if spec.designated_system is not None else None
    )
    holders = [designated] if designated is not None else systems

    scores = tuple(_score(rank, spec.depth_n) for rank in range(1, spec.depth_n + 1))
    columns: _RunColumns = {}
    grades: dict[tuple[str, str], Relevance] = {}
    relevant, irrelevant = Relevance.RELEVANT, Relevance.IRRELEVANT  # one lookup each

    for query in spec.query_ids:
        rel_docs = [f"{query}-rel{i:03d}" for i in range(spec.relevant_per_query)]
        for doc in rel_docs:
            grades[(query, doc)] = relevant
        shared = rel_docs[: spec.num_shared]
        cursor = spec.num_shared
        unique: dict[str, list[str]] = {s: [] for s in systems}
        for holder in holders:
            unique[holder] = rel_docs[cursor : cursor + spec.unique_per_system]
            cursor += spec.unique_per_system
        leftovers = rel_docs[cursor:]
        leftover_holders: dict[str, list[str]] = {s: [] for s in systems}
        for doc in leftovers:
            subset = [s for s in systems if rng.random() < 0.5]
            if not subset:
                subset = [rng.choice(systems)]
            for s in subset:
                leftover_holders[s].append(doc)

        filler_pool = [f"{query}-fill{i:04d}" for i in range(spec.depth_n + 1)]
        for doc in filler_pool:
            if rng.random() < 0.5:
                grades[(query, doc)] = irrelevant

        for s in systems:
            sink_uniques = spec.ap_handicap and s == designated
            head: list[str] = []
            if spec.ap_handicap and s == designated:
                head.append(filler_pool[-1])
            head.extend(shared)
            if not sink_uniques:
                head.extend(unique[s])
            mids = list(leftover_holders[s])
            rng.shuffle(mids)
            head.extend(mids)
            tail = list(unique[s]) if sink_uniques else []
            n_fill = spec.depth_n - len(head) - len(tail)
            taken = set(head)
            fillers = [d for d in filler_pool[:-1] if d not in taken][:n_fill]
            docs = tuple(head + fillers + tail)
            if len(set(docs)) != len(docs):
                raise ValidationError(f"duplicate document for system {s!r}, query {query!r}")
            columns[(s, query)] = (docs, range(1, len(docs) + 1), scores[: len(docs)])

    return RunSet._from_columns(columns), JudgmentSet(grades)


def _read_probability_enumerated(rank: int | None, depth_n: int) -> Fraction:
    """Literal threshold enumeration: sum of 1/N over thresholds i = rank..N."""
    from fractions import Fraction
    if rank is None:
        return Fraction(0)
    total = Fraction(0)
    for _ in range(rank, depth_n + 1):
        total += Fraction(1, depth_n)
    return total


def oracle_utility(
    runs: RunSet, judgments: JudgmentSet, x: str, config: EvalConfig
) -> UtilityScore:
    """Independent recomputation of system x's total utility over all queries.

    Every probability is rebuilt from first principles: read probabilities by
    explicit threshold enumeration (never the closed form) and pooling by an
    explicit mean over the other systems. Intended for small instances only.
    """
    from fractions import Fraction
    if config.depth_n > ORACLE_MAX_DEPTH:
        raise OracleScaleError(
            f"oracle depth limit is {ORACLE_MAX_DEPTH}, got {config.depth_n}"
        )
    pool_systems = [s for s in runs.systems() if s != x]
    if not pool_systems:
        raise ConfigError("oracle needs at least one pool system besides x")
    per_doc: dict[str, float] = {}
    total = 0.0
    for query in runs.queries():
        x_ranks = runs.ranking(x, query, config.depth_n)
        pool_ranks = [runs.ranking(y, query, config.depth_n) for y in pool_systems]
        relevant = judgments.relevant_docs(query, config.partial_relevant_counts)
        for doc in sorted(relevant):
            p_sys = _read_probability_enumerated(x_ranks.get(doc), config.depth_n)
            pooled = Fraction(0)
            for ranks in pool_ranks:
                pooled += _read_probability_enumerated(ranks.get(doc), config.depth_n)
            pooled /= len(pool_ranks)
            if pooled == 0:
                pooled = config.pool_floor(len(pool_ranks))
            if p_sys == 0:
                p_sys = config.system_floor()
            u = config.log(float(p_sys / pooled))
            per_doc[f"{query}/{doc}"] = u
            total += u
    return UtilityScore(per_doc=per_doc, total=total)
