"""Read-probability model, leave-one-out utility and the AP baseline.

The user model: given a ranking of N documents, the reader picks a cutoff
threshold uniformly from the N choices and reads everything at or above it,
so the probability of reading the document at rank r is (N - r + 1) / N.
A system's utility on a relevant document is the log-ratio of its own read
probability to the pooled read probability over the other systems.

A read probability is c = N - r + 1 over N. A `QueryTable` holds c[s][i]
for each system s and relevant document i of one query (0 where s missed
it) and the column totals T[i], so the pool of every system but x has the
numerator T - c[x] over N(M - 1). Each utility term is one int/int true
division, which Python rounds correctly, then the logarithm; a zero
numerator takes its floor's integer ratio. AP sums hits/rank exactly over
the lcm of the hit ranks and divides once, rounding as exact rational
arithmetic does.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

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


def _numerators(ranks: RankAssignment, docs: Sequence[str], depth_n: int) -> list[int]:
    """N - r + 1 for each of `docs` that `ranks` places at r, 0 for the others."""
    row = []
    for r in map(ranks.get, docs):
        if r is None:
            row.append(0)
        elif 0 < r <= depth_n:
            row.append(depth_n + 1 - r)
        else:
            raise ConfigError(f"rank must be in [1, {depth_n}], got {r}")
    return row


class QueryTable(tuple):
    """One query's rank dicts of M systems, with their integer table.

    `docs` are the relevant documents in sorted order; rows[s][i] is
    N - r + 1 where system s ranks docs[i] at r, 0 where s missed it; and
    `totals` holds the column sums T[i].
    """

    def __new__(
        cls, rankings: Iterable[RankAssignment], relevant_docs: Iterable[str], depth_n: int
    ):
        table = super().__new__(cls, rankings)
        table.docs, table.depth_n = sorted(relevant_docs), depth_n
        table.rows = [_numerators(ranks, table.docs, depth_n) for ranks in table]
        table.totals = [sum(column) for column in zip(*table.rows)] or [0] * len(table.docs)
        return table

    def pool_without(self, i: int) -> QueryTable:
        """The table of every system but i; its totals T - c[i] take R subtractions."""
        pool = tuple.__new__(QueryTable, self[:i] + self[i + 1 :])
        pool.docs, pool.depth_n = self.docs, self.depth_n
        pool.rows = self.rows[:i] + self.rows[i + 1 :]
        pool.totals = list(map(operator.sub, self.totals, self.rows[i]))
        return pool


def total_utility(
    assignment_x: RankAssignment,
    pool: Sequence[RankAssignment],
    relevant_docs: set[str],
    config: EvalConfig,
) -> UtilityScore:
    """Sum of per-document utilities over the relevant set, rounded once (`math.fsum`).

    Per document, x holds c = N - r + 1 (0 if missed) and the pool holds
    t = sum of N - r_y + 1, so p_sys = c/N and p_pool = t/(N|pool|), each
    replaced by its floor when zero; their ratio is one int/int division.
    A `QueryTable` pool holds t already; any other pool is scanned once.
    """
    if not relevant_docs:
        return UtilityScore()
    if not pool:
        raise ConfigError("pooled probability requires a non-empty pool")
    n = config.depth_n
    docs = sorted(relevant_docs)
    if not (isinstance(pool, QueryTable) and pool.depth_n == n and pool.docs == docs):
        pool = QueryTable(pool, docs, n)
    n_pool = n * len(pool)
    if config.epsilon_custom is None:
        sys_floor, pool_floor = (1, 2 * n), (1, 2 * n_pool)
    else:
        sys_floor = pool_floor = config.epsilon_custom.as_integer_ratio()
    log = config.log
    per_doc: dict[str, float] = {}
    for doc, c, t in zip(docs, _numerators(assignment_x, docs, n), pool.totals):
        sys_num, sys_den = (c, n) if c else sys_floor
        pool_num, pool_den = (t, n_pool) if t else pool_floor
        per_doc[doc] = log(sys_num * pool_den / (sys_den * pool_num))
    return UtilityScore(per_doc=per_doc, total=math.fsum(per_doc.values()))


def average_precision(assignment_x: RankAssignment, relevant_docs: set[str]) -> float | None:
    """Non-interpolated average precision; None when there is nothing to find (R = 0).

    Sums hits/rank exactly over the lcm L of the hit ranks; divides once by L * R.
    """
    r = len(relevant_docs)
    if r == 0:
        return None
    hit_ranks = sorted(assignment_x[d] for d in relevant_docs if d in assignment_x)
    lcm = math.lcm(*hit_ranks)
    num = sum(hits * (lcm // rank) for hits, rank in enumerate(hit_ranks, start=1))
    return num / (lcm * r)
