"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import io
import random
import time
from fractions import Fraction

import pytest

from noveval import (
    EvalConfig,
    JudgmentSet,
    RankingRow,
    RankingTable,
    Relevance,
    RunEntry,
    RunSet,
    SyntheticSpec,
    aggregate,
    average_precision,
    generate,
    oracle_utility,
    parse_run_file,
    per_query_diffs,
    read_probability,
    run_leave_one_out,
    tie_break,
    total_utility,
    write_run_file,
)
from noveval.cli import main


def _passed(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


def _evaluate(runs, judgments, depth, log_base=None):
    kwargs = {"depth_n": depth}
    if log_base is not None:
        kwargs["log_base"] = log_base
    return run_leave_one_out(runs, judgments, EvalConfig(**kwargs))


def test_read_probability_exhaustive_oracle_equivalence():
    """Closed form equals threshold enumeration exactly for all N <= 50."""
    start = time.monotonic()
    for n in range(1, 51):
        step = Fraction(1, n)
        for r in range(1, n + 1):
            enumerated = sum(step for _ in range(r, n + 1))
            assert read_probability(r, n) == enumerated
    assert time.monotonic() - start < 1.0
    _passed("Eq.4 exhaustive oracle equivalence (N=1..50, zero tolerance)")


def _random_instance(rng: random.Random):
    depth = rng.randint(2, 10)
    num_systems = rng.randint(2, 4)
    num_queries = rng.randint(1, 3)
    systems = [f"s{i}" for i in range(num_systems)]
    queries = [f"q{i}" for i in range(num_queries)]
    docs = [f"d{i}" for i in range(12)]
    entries = []
    for s in systems:
        for q in queries:
            k = rng.randint(1, depth)
            chosen = rng.sample(docs, k)
            for rank, doc in enumerate(chosen, start=1):
                entries.append(RunEntry(q, doc, rank, round(1 - rank / 100, 6), s))
    grades = {}
    for q in queries:
        for d in docs:
            roll = rng.random()
            if roll < 0.4:
                grades[(q, d)] = Relevance.RELEVANT
            elif roll < 0.6:
                grades[(q, d)] = Relevance.PARTIALLY_RELEVANT
            elif roll < 0.8:
                grades[(q, d)] = Relevance.IRRELEVANT
    return RunSet(entries), JudgmentSet(grades), depth, systems


def test_harness_matches_bruteforce_oracle():
    """Harness utility equals the enumeration-based oracle on 1000 random instances."""
    rng = random.Random(20260826)
    start = time.monotonic()
    for _ in range(1000):
        runs, judgments, depth, systems = _random_instance(rng)
        x = rng.choice(systems)
        scores = _evaluate(runs, judgments, depth)
        i = scores.systems.index(x)
        harness_total = sum(scores.utility[q][i] for q in scores.queries)
        oracle_total = oracle_utility(runs, judgments, x, EvalConfig(depth_n=depth)).total
        assert abs(harness_total - oracle_total) <= 1e-12
    assert time.monotonic() - start < 10.0
    _passed("Eq.1-3 oracle equivalence (1000 random instances, 1e-12)")


def test_self_pool_zero():
    """Full-overlap corpora give every system exactly zero utility on every query."""
    for seed in range(20):
        spec = SyntheticSpec(
            num_systems=2 + seed % 4,
            num_queries=1 + seed % 3,
            depth_n=30,
            relevant_per_query=8,
            shared_fraction=1.0,
            unique_per_system=0,
            seed=seed,
        )
        runs, judgments = generate(spec)
        scores = _evaluate(runs, judgments, spec.depth_n)
        assert all(u == 0.0 for q in scores.queries for u in scores.utility[q])
    _passed("self-pool zero (shared_fraction=1, exact zeros)")


def test_novelty_dominance():
    """The sole system with unique docs is utility rank 1 but not AP rank 1."""
    wins = 0
    for seed in range(100):
        spec = SyntheticSpec(
            num_systems=4,
            num_queries=2,
            depth_n=40,
            relevant_per_query=8,
            shared_fraction=0.75,
            unique_per_system=2,
            seed=seed,
            designated_system=1,
            ap_handicap=True,
        )
        runs, judgments = generate(spec)
        table = aggregate(_evaluate(runs, judgments, spec.depth_n))
        row = next(r for r in table.rows if r.system == "sys01")
        if row.utility_rank == 1 and row.ap_rank > 1:
            wins += 1
    assert wins == 100
    _passed("novelty dominance (100/100 seeded corpora)")


PUBLISHED_RANKS = [
    # (system, ap_rank, utility_rank, difference)
    ("1144b", 2, 1, 1),
    ("1135a", 3, 2, 1),
    ("1144a", 1, 3, -2),
    ("1135b", 4, 4, 0),
    ("1103b", 5, 5, 0),
    ("1106", 17, 6, 11),
    ("1145b", 16, 7, 9),
    ("1122b", 7, 8, -1),
    ("1103a", 10, 9, 1),
    ("1128b", 9, 10, -1),
    ("1142", 6, 11, -5),
    ("1122a", 8, 12, -4),
    ("1110", 11, 13, -2),
    ("1133a", 19, 14, 5),
    ("1133b", 18, 15, 3),
    ("1128a", 12, 16, -4),
    ("1120", 14, 17, -3),
    ("1145a", 13, 18, -5),
    ("1112", 15, 19, -4),
    ("1146", 20, 20, 0),
    ("1132", 22, 21, 1),
    ("1126", 21, 22, -1),
]


def test_published_ranking_fixture():
    """The published 22-system rank pairs reproduce the difference column exactly."""
    rows = tuple(
        RankingRow(system=s, ap_score=0.0, utility_score=0.0, ap_rank=ap, utility_rank=ut)
        for s, ap, ut, _ in PUBLISHED_RANKS
    )
    table = RankingTable(rows=rows)  # also checks both permutations
    for row, (_, _, _, expected) in zip(table.rows, PUBLISHED_RANKS):
        assert row.difference == expected
    assert sum(r.difference for r in table.rows) == 0
    _passed("published ranking fixture (22 differences, zero tolerance)")


def test_permutation_integrity():
    """Rank columns are permutations and per-query diff columns sum to zero."""
    rng = random.Random(7)
    for _ in range(25):
        runs, judgments, depth, _ = _random_instance(rng)
        scores = _evaluate(runs, judgments, depth)
        m = len(runs.systems())
        table = aggregate(scores)
        assert sorted(r.ap_rank for r in table.rows) == list(range(1, m + 1))
        assert sorted(r.utility_rank for r in table.rows) == list(range(1, m + 1))
        matrix = per_query_diffs(scores)
        for q in matrix.queries:
            assert sum(matrix.diffs[(s, q)] for s in matrix.systems) == 0
    _passed("permutation integrity (random corpora)")


AP_CASES = [
    # ({doc: rank}, relevant set, exact expected value)
    ({"a": 1, "x": 2, "b": 3}, {"a", "b"}, Fraction(5, 6)),
    ({"a": 1, "b": 2, "c": 3, "d": 4}, {"a", "b", "c", "d"}, Fraction(1)),
    ({"x": 1, "y": 2}, {"a", "b", "c", "d"}, Fraction(0)),
    ({"x": 1, "a": 2}, {"a"}, Fraction(1, 2)),
    ({"x": 1, "a": 2, "y": 3, "b": 4}, {"a", "b"}, Fraction(1, 2)),
    ({"a": 1, "b": 2, "x": 3, "c": 4}, {"a", "b", "c"}, Fraction(11, 12)),
    ({"x": 1, "y": 2, "z": 3, "w": 4, "a": 5}, {"a", "b"}, Fraction(1, 10)),
    ({"x": 1, "y": 2, "a": 3, "z": 4, "b": 5, "v": 6, "w": 7, "c": 8},
     {"a", "b", "c"}, Fraction(133, 360)),
    ({"a": 1, "b": 2}, {"a", "b", "c", "d", "e"}, Fraction(2, 5)),
    ({f"x{i}": i for i in range(1, 10)} | {"a": 10}, {"a"}, Fraction(1, 10)),
    ({"a": 1, "x": 2, "b": 3, "y": 4, "c": 5}, {"a", "b", "c"}, Fraction(34, 45)),
]


def test_average_precision_reference_values():
    """AP matches hand-derived rational values on crafted rankings."""
    assert len(AP_CASES) >= 10
    for assignment, relevant, expected in AP_CASES:
        assert average_precision(assignment, relevant) == pytest.approx(
            float(expected), abs=1e-12
        )
    _passed("AP reference values (11 crafted rankings, 1e-12)")


def test_roundtrip_and_cli_determinism(tmp_path):
    """write/parse identity on random RunSets; CLI output is byte-identical."""
    rng = random.Random(99)
    for _ in range(25):
        runs, _, _, _ = _random_instance(rng)
        sink = io.StringIO()
        write_run_file(runs, sink)
        assert parse_run_file(io.StringIO(sink.getvalue())) == runs

    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), "--seed", "5"]) == 0
    outputs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code = main([
            "--runs", str(corpus / "runs.txt"), "--qrels", str(corpus / "qrels.txt"),
            "--depth", "50", "--per-query", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _passed("round-trip identity and byte-identical CLI reports")


def test_log_base_ranking_invariance():
    """System ordering by total utility is identical for bases e, 2 and 10."""
    import math

    for seed in range(10):
        spec = SyntheticSpec(
            num_systems=4,
            num_queries=3,
            depth_n=30,
            relevant_per_query=10,
            shared_fraction=0.4,
            unique_per_system=1,
            seed=seed,
        )
        runs, judgments = generate(spec)
        orderings = []
        for base in (math.e, 2.0, 10.0):
            scores = _evaluate(runs, judgments, spec.depth_n, log_base=base)
            totals = {}
            for q in scores.queries:
                for system, u in zip(scores.systems, scores.utility[q]):
                    totals[system] = totals.get(system, 0.0) + u
            ranks = tie_break(sorted(totals.items()))
            orderings.append(tuple(sorted(ranks, key=ranks.get)))
        assert orderings[0] == orderings[1] == orderings[2]
    _passed("log-base ranking invariance (bases e, 2, 10)")
