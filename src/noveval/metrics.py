"""Read-probability model, leave-one-out utility and the AP baseline.

The user model: given a ranking of N documents, the reader picks a cutoff
threshold uniformly from the N choices and reads everything at or above it,
so the probability of reading the document at rank r is (N - r + 1) / N.
A system's utility on a relevant document is the log-ratio of its own read
probability to the pooled read probability over the other systems.

Per query, a `QueryTable` is built once: c = N - r + 1 for each system and
relevant document (0 if missed), the column totals T, and the term of a
system that misses a document, which depends on T alone. The cell of system
x reads x's row and T - c[x], the pool's numerator over N(M - 1), and takes a
logarithm only where x retrieves. Each term is one correctly rounded int/int
division, then the logarithm; a zero numerator takes its floor's integer
ratio. AP sums hits/rank exactly over the lcm of the hit ranks and divides
once.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, NamedTuple

from .errors import ConfigError, validated

if TYPE_CHECKING:
    from fractions import Fraction

#: Document -> 1-based rank for one (system, query); missing key = not retrieved.
RankAssignment = Mapping[str, int]


@validated
class EvalConfig(NamedTuple):
    """Evaluation parameters shared by the metrics and the harness.

    depth_n: ranking cutoff N defining the threshold space.
    partial_relevant_counts: whether partially relevant documents count as relevant.
    log_base: base of the utility logarithm; rescales values, never reorders systems.
    epsilon_custom: overrides both zero-probability floors when set; by default
        a missed document is floored at 1/(2N) and an empty pool at 1/(2N|E|),
        half the smallest nonzero mass in each case.
    """

    depth_n: int = 300
    partial_relevant_counts: bool = False
    log_base: float = math.e
    epsilon_custom: float | None = None

    def _check(self):
        if self.depth_n < 1:
            raise ConfigError(f"depth_n must be >= 1, got {self.depth_n}")
        if not (self.log_base > 0) or self.log_base == 1:
            raise ConfigError(f"log_base must be positive and != 1, got {self.log_base}")
        if self.epsilon_custom is not None and not (0 < self.epsilon_custom <= 1):
            raise ConfigError(f"epsilon floor must be in (0, 1], got {self.epsilon_custom}")

    def system_floor(self) -> Fraction:
        from fractions import Fraction
        if self.epsilon_custom is not None:
            return Fraction(self.epsilon_custom)
        return Fraction(1, 2 * self.depth_n)

    def pool_floor(self, pool_size: int) -> Fraction:
        from fractions import Fraction
        if self.epsilon_custom is not None:
            return Fraction(self.epsilon_custom)
        return Fraction(1, 2 * self.depth_n * pool_size)

    def log(self, x: float) -> float:
        if self.log_base == math.e:
            return math.log(x)
        return math.log(x) / math.log(self.log_base)

    def to_dict(self) -> dict:
        return self._asdict() | ({"log_base": "e"} if self.log_base == math.e else {})


def read_probability(rank: int | None, depth_n: int) -> Fraction:
    """Probability the user reads the document at `rank` in a depth-`depth_n` list.

    Closed form (N - r + 1) / N; absent documents (rank None) have probability 0.
    """
    from fractions import Fraction
    if depth_n < 1:
        raise ConfigError(f"depth_n must be >= 1, got {depth_n}")
    if rank is None:
        return Fraction(0)
    if not 1 <= rank <= depth_n:
        raise ConfigError(f"rank must be in [1, {depth_n}], got {rank}")
    return Fraction(depth_n - rank + 1, depth_n)


class UtilityScore(NamedTuple):
    """Per-document utilities and their sum for one (system, query); none by default."""

    per_doc: Mapping[str, float] = MappingProxyType({})
    total: float = 0.0


class QueryTable(tuple):
    """One query's rank dicts of M >= 2 systems, with their integer table under `config`.

    rows[s][i] is c of system s for docs[i], the relevant documents in sorted order;
    `totals` holds T, and `missed[doc]` the term of a system that misses doc.
    `total_utility` reads the cell (table[s], pool_without(s)) from the table when
    given the very set and an equal config that the table was built from.
    """

    def __new__(cls, rankings: Iterable[RankAssignment], relevant_docs: set[str],
                config: EvalConfig):
        table = super().__new__(cls, rankings)
        n, table.relevant, table.config = config.depth_n, relevant_docs, config
        table.docs = sorted(relevant_docs)
        col_of = dict(zip(table.docs, count()))
        table.rows = [[0] * len(col_of) for _ in table]
        for x, row in zip(table, table.rows):
            for doc, r in x.items():
                if doc in col_of:
                    if not 0 < r <= n:
                        raise ConfigError(f"rank must be in [1, {n}], got {r}")
                    row[col_of[doc]] = n + 1 - r
        table.totals = [sum(column) for column in zip(*table.rows)]
        n_pool = n * (len(table) - 1)
        if config.epsilon_custom is None:
            (sys_num, sys_den), table.floor = (1, 2 * n), (1, 2 * n_pool)
        else:
            (sys_num, sys_den) = table.floor = config.epsilon_custom.as_integer_ratio()
        # As `EvalConfig.log`, with log(base) taken once; x / 1.0 is x.
        table.base = 1.0 if config.log_base == math.e else math.log(config.log_base)
        table.missed = {}
        for doc, t in zip(table.docs, table.totals):
            pool_num, pool_den = (t, n_pool) if t else table.floor
            table.missed[doc] = math.log(sys_num * pool_den / (sys_den * pool_num)) / table.base
        return table

    def pool_without(self, i: int) -> _Pool:
        return _Pool(self, i)


class _Pool:
    """The rank dicts of every system of a `QueryTable` but the i-th."""

    __slots__ = ("table", "i")

    def __init__(self, table: QueryTable, i: int):
        self.table, self.i = table, i

    def __len__(self) -> int:
        return len(self.table) - 1

    def __iter__(self) -> Iterator[RankAssignment]:
        return chain(self.table[: self.i], self.table[self.i + 1 :])


def total_utility(
    assignment_x: RankAssignment,
    pool: Collection[RankAssignment],
    relevant_docs: set[str],
    config: EvalConfig,
) -> UtilityScore:
    """Sum of per-document utilities over the relevant set, rounded once (`math.fsum`).

    Per document, x holds c = N - r + 1 (0 if missed) and the pool holds
    t = sum of N - r_y + 1, so p_sys = c/N and p_pool = t/(N|pool|), each
    replaced by its floor when zero; their ratio is one int/int division.
    A `QueryTable` cell reads c, t = T - c and the missed documents' terms from
    the table; any other pool is put in a table with x first.
    """
    if not relevant_docs:
        return UtilityScore()
    if not pool:
        raise ConfigError("pooled probability requires a non-empty pool")
    if not (type(pool) is _Pool and pool.table[pool.i] is assignment_x
            and pool.table.relevant is relevant_docs and pool.table.config == config):
        pool = QueryTable(chain([assignment_x], pool), relevant_docs, config).pool_without(0)
    table, row = pool.table, pool.table.rows[pool.i]
    n, (floor_num, floor_den), base = config.depth_n, table.floor, table.base
    n_pool, log, per_doc = n * len(pool), math.log, table.missed.copy()
    for doc, c, t in zip(compress(table.docs, row), compress(row, row),
                         compress(table.totals, row)):  # the documents x retrieves
        t -= c  # the pool's numerator is T - c
        per_doc[doc] = log(c * n_pool / (n * t) if t else c * floor_den / (n * floor_num)) / base
    return UtilityScore(per_doc, math.fsum(per_doc.values()))


def average_precision(assignment_x: RankAssignment, relevant_docs: set[str]) -> float | None:
    """Non-interpolated average precision; None when there is nothing to find (R = 0).

    Sums hits/rank exactly over the lcm L of the hit ranks; divides once by L * R.
    """
    r = len(relevant_docs)
    if r == 0:
        return None
    hit_ranks = sorted(compress(assignment_x.values(),
                                map(relevant_docs.__contains__, assignment_x)))
    lcm = math.lcm(*hit_ranks)
    num = sum(hits * (lcm // rank) for hits, rank in enumerate(hit_ranks, start=1))
    return num / (lcm * r)
