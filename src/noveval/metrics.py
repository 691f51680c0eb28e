"""Read-probability model, per-document and total utility, and the AP baseline.

The user model: given a ranking of N documents, the reader picks a cutoff
threshold uniformly from the N choices and reads everything at or above it,
so the probability of reading the document at rank r is (N - r + 1) / N.
A system's utility on a relevant document is the log-ratio of its own read
probability to the pooled read probability over the other systems.

A read probability is the integer numerator N - r + 1 over N, and the pooled
one is the sum of those numerators over N times the pool size, so each
utility term is a single int/int true division, which Python rounds
correctly, followed by the logarithm. The `Fraction` helpers
(`read_probability`, `pooled_probability`, `document_utility`) give the
same floats and serve as the reference in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ConfigError

#: Document -> 1-based rank for one (system, query); missing key = not retrieved.
RankAssignment = Mapping[str, int]


@dataclass(frozen=True)
class EvalConfig:
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

    def __post_init__(self):
        if self.depth_n < 1:
            raise ConfigError(f"depth_n must be >= 1, got {self.depth_n}")
        if not (self.log_base > 0) or self.log_base == 1:
            raise ConfigError(f"log_base must be positive and != 1, got {self.log_base}")
        if self.epsilon_custom is not None and not (0 < self.epsilon_custom <= 1):
            raise ConfigError(f"epsilon floor must be in (0, 1], got {self.epsilon_custom}")

    def system_floor(self) -> Fraction:
        if self.epsilon_custom is not None:
            return Fraction(self.epsilon_custom)
        return Fraction(1, 2 * self.depth_n)

    def pool_floor(self, pool_size: int) -> Fraction:
        if self.epsilon_custom is not None:
            return Fraction(self.epsilon_custom)
        return Fraction(1, 2 * self.depth_n * pool_size)

    def log(self, x: float) -> float:
        if self.log_base == math.e:
            return math.log(x)
        return math.log(x) / math.log(self.log_base)

    def to_dict(self) -> dict:
        return {
            "depth_n": self.depth_n,
            "partial_relevant_counts": self.partial_relevant_counts,
            "log_base": "e" if self.log_base == math.e else self.log_base,
            "epsilon_custom": self.epsilon_custom,
        }


def read_probability(rank: int | None, depth_n: int) -> Fraction:
    """Probability the user reads the document at `rank` in a depth-`depth_n` list.

    Closed form (N - r + 1) / N; absent documents (rank None) have probability 0.
    """
    if depth_n < 1:
        raise ConfigError(f"depth_n must be >= 1, got {depth_n}")
    if rank is None:
        return Fraction(0)
    if not 1 <= rank <= depth_n:
        raise ConfigError(f"rank must be in [1, {depth_n}], got {rank}")
    return Fraction(depth_n - rank + 1, depth_n)


def pooled_probability(
    doc: str, pool_ranks: Sequence[RankAssignment], config: EvalConfig
) -> Fraction:
    """Mean read probability of `doc` over the pool, floored if nowhere retrieved."""
    if not pool_ranks:
        raise ConfigError("pooled probability requires a non-empty pool")
    total = sum(
        (read_probability(ranks.get(doc), config.depth_n) for ranks in pool_ranks),
        start=Fraction(0),
    )
    p = total / len(pool_ranks)
    if p == 0:
        return config.pool_floor(len(pool_ranks))
    return p


def document_utility(
    p_system: Fraction | float, p_pool: Fraction | float, config: EvalConfig
) -> float:
    """Log-ratio utility of one relevant document; the zero floor keeps it finite."""
    if p_pool <= 0:
        raise ConfigError("p_pool must be positive after flooring")
    if p_system == 0:
        p_system = config.system_floor()
    if isinstance(p_system, Fraction) and isinstance(p_pool, Fraction):
        ratio = float(p_system / p_pool)
    else:
        ratio = float(p_system) / float(p_pool)
    return config.log(ratio)


@dataclass(frozen=True)
class UtilityScore:
    """Per-document utilities and their sum for one (system, query)."""

    per_doc: dict[str, float] = field(default_factory=dict)
    total: float = 0.0


def total_utility(
    assignment_x: RankAssignment,
    pool: Sequence[RankAssignment],
    relevant_docs: set[str],
    config: EvalConfig,
) -> UtilityScore:
    """Sum of per-document utilities over the relevant set (docs in sorted order).

    Per document, x holds c = N - r + 1 (0 if missed) and the pool holds
    t = sum of N - r_y + 1, so p_sys = c/N and p_pool = t/(N|pool|), each
    replaced by its floor when zero; their ratio is one int/int division.
    """
    if not relevant_docs:
        return UtilityScore()
    if not pool:
        raise ConfigError("pooled probability requires a non-empty pool")
    n = config.depth_n
    n1 = n + 1
    n_pool = n * len(pool)
    sys_floor = config.system_floor().as_integer_ratio()
    pool_floor = config.pool_floor(len(pool)).as_integer_ratio()
    log = config.log
    per_doc: dict[str, float] = {}
    total = 0.0
    for doc in sorted(relevant_docs):
        t = 0
        for ranks in pool:
            r = ranks.get(doc)
            if r is not None:
                if not 0 < r <= n:
                    raise ConfigError(f"rank must be in [1, {n}], got {r}")
                t += n1 - r
        r = assignment_x.get(doc)
        if r is None:
            sys_num, sys_den = sys_floor
        elif 0 < r <= n:
            sys_num, sys_den = n1 - r, n
        else:
            raise ConfigError(f"rank must be in [1, {n}], got {r}")
        pool_num, pool_den = (t, n_pool) if t else pool_floor
        u = log(sys_num * pool_den / (sys_den * pool_num))
        per_doc[doc] = u
        total += u
    return UtilityScore(per_doc=per_doc, total=total)


def average_precision(assignment_x: RankAssignment, relevant_docs: set[str]) -> float | None:
    """Non-interpolated average precision; None when there is nothing to find (R = 0)."""
    r = len(relevant_docs)
    if r == 0:
        return None
    hit_ranks = sorted(assignment_x[d] for d in relevant_docs if d in assignment_x)
    acc = Fraction(0)
    for hits, rank in enumerate(hit_ranks, start=1):
        acc += Fraction(hits, rank)
    return float(acc / r)
