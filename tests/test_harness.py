import io
import math
import random
from fractions import Fraction

import pytest

from noveval import (
    EvalConfig,
    LeaveOneOutPlan,
    RankingRow,
    RankingTable,
    aggregate,
    parse_judgments,
    parse_run_file,
    per_query_diffs,
    run_leave_one_out,
    tie_break,
    total_utility,
)
from noveval.errors import ConfigError, ValidationError


def _corpus(lines: str, qrels: str):
    return parse_run_file(io.StringIO(lines)), parse_judgments(io.StringIO(qrels))


def _plan(runs, depth=10):
    return LeaveOneOutPlan(
        systems=tuple(runs.systems()),
        queries=tuple(runs.queries()),
        config=EvalConfig(depth_n=depth),
    )


IDENTICAL_TWINS = """\
q1 0 d1 1 0.9 s1
q1 0 d2 2 0.8 s1
q1 0 d1 1 0.9 s2
q1 0 d2 2 0.8 s2
"""


def test_identical_systems_score_zero():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\nq1 0 d2 2\n")
    results = run_leave_one_out(runs, js, _plan(runs))
    assert all(r.utility.total == 0.0 for r in results)


def test_result_grid_shape_and_order():
    lines = "".join(
        f"q{q} 0 d{q}{r} {r} 0.{9 - r} s{s}\n"
        for s in (1, 2, 3)
        for q in (1, 2)
        for r in (1, 2)
    )
    qrels = "q1 0 d11 2\nq2 0 d21 2\n"
    runs, js = _corpus(lines, qrels)
    results = run_leave_one_out(runs, js, _plan(runs))
    assert len(results) == 6
    assert [(r.system, r.query) for r in results] == [
        ("s1", "q1"), ("s1", "q2"), ("s2", "q1"), ("s2", "q2"),
        ("s3", "q1"), ("s3", "q2"),
    ]


def test_missing_system_is_config_error():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\n")
    plan = LeaveOneOutPlan(systems=("s1", "ghost"), queries=("q1",), config=EvalConfig())
    with pytest.raises(ConfigError, match="ghost"):
        run_leave_one_out(runs, js, plan)


def test_zero_relevant_query_flagged():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d9 0\n")
    results = run_leave_one_out(runs, js, _plan(runs))
    assert all(r.ap is None for r in results)
    assert js.relevant_docs("q1") == set()
    assert all(r.utility.total == 0.0 for r in results)


def test_plan_requires_two_systems():
    with pytest.raises(ConfigError, match="2 systems"):
        LeaveOneOutPlan(systems=("only",), queries=("q1",), config=EvalConfig())


def test_plan_rejects_duplicates():
    with pytest.raises(ConfigError):
        LeaveOneOutPlan(systems=("a", "a"), queries=("q",), config=EvalConfig())
    with pytest.raises(ConfigError):
        LeaveOneOutPlan(systems=("a", "b"), queries=("q", "q"), config=EvalConfig())


def test_determinism():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\nq1 0 d2 1\n")
    first = run_leave_one_out(runs, js, _plan(runs))
    second = run_leave_one_out(runs, js, _plan(runs))
    assert first == second


class TestTieBreak:
    def test_lexicographic_on_ties(self):
        assert tie_break([("A", 0.5), ("B", 0.5)]) == {"A": 1, "B": 2}

    def test_descending(self):
        assert tie_break([("A", 0.1), ("B", 0.9)]) == {"B": 1, "A": 2}

    def test_mixed(self):
        assert tie_break([("A", 1.0), ("B", 1.0), ("C", 2.0)]) == {"C": 1, "A": 2, "B": 3}


class TestAggregate:
    def _results(self):
        lines = (
            "q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n"
            "q1 0 d2 1 0.9 s2\nq1 0 d3 2 0.8 s2\n"
        )
        runs, js = _corpus(lines, "q1 0 d1 2\nq1 0 d2 2\n")
        return run_leave_one_out(runs, js, _plan(runs))

    def test_best_system_has_both_top_ranks(self):
        table = aggregate(self._results())
        best = next(r for r in table.rows if r.system == "s1")
        assert best.ap_rank == 1
        assert best.utility_rank == 1
        assert best.difference == 0

    def test_difference_column_sums_to_zero(self):
        table = aggregate(self._results())
        assert sum(r.difference for r in table.rows) == 0

    def test_rank_columns_are_permutations(self):
        table = aggregate(self._results())
        m = len(table.rows)
        assert sorted(r.ap_rank for r in table.rows) == list(range(1, m + 1))
        assert sorted(r.utility_rank for r in table.rows) == list(range(1, m + 1))

    def test_sum_and_mean_schemes_agree_on_ranking(self):
        by_sum = aggregate(self._results(), scheme="sum")
        by_mean = aggregate(self._results(), scheme="mean")
        ranks_sum = {r.system: r.utility_rank for r in by_sum.rows}
        ranks_mean = {r.system: r.utility_rank for r in by_mean.rows}
        assert ranks_sum == ranks_mean

    def test_incomplete_grid_rejected(self):
        lines = (
            "q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\n"
            "q1 0 d1 1 0.9 s2\nq2 0 d1 1 0.9 s2\n"
        )
        runs, js = _corpus(lines, "q1 0 d1 2\nq2 0 d1 2\n")
        results = run_leave_one_out(runs, js, _plan(runs))
        with pytest.raises(ValidationError, match="incomplete"):
            aggregate(results[:-1])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            aggregate(self._results(), scheme="median")


def test_table_fixture_differences():
    # published rank pairs reproduce the difference column, signs included
    pairs = {"1106": (17, 6), "1145b": (16, 7), "1144a": (1, 3), "1135b": (4, 4)}
    rows = []
    for i, (system, (ap_rank, utility_rank)) in enumerate(sorted(pairs.items())):
        rows.append(
            RankingRow(
                system=system, ap_score=0.0, utility_score=0.0,
                ap_rank=ap_rank, utility_rank=utility_rank,
            )
        )
    assert rows[0].system == "1106" and rows[0].difference == 11
    by_system = {r.system: r.difference for r in rows}
    assert by_system == {"1106": 11, "1145b": 9, "1144a": -2, "1135b": 0}


def test_ranking_table_rejects_non_permutation():
    rows = (
        RankingRow("a", 0.0, 0.0, ap_rank=1, utility_rank=1),
        RankingRow("b", 0.0, 0.0, ap_rank=1, utility_rank=2),
    )
    with pytest.raises(ValidationError, match="permutation"):
        RankingTable(rows=rows)


class TestPerQueryDiffs:
    def test_identical_systems_all_zero(self):
        runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\n")
        matrix = per_query_diffs(run_leave_one_out(runs, js, _plan(runs)))
        assert all(v == 0 for v in matrix.diffs.values())

    def test_reversed_orders(self):
        # AP order (A,B,C) vs utility order (C,B,A) -> diffs A:-2 B:0 C:+2
        from noveval import SystemQueryResult, UtilityScore

        ap = {"A": 0.9, "B": 0.5, "C": 0.1}
        utility = {"A": -1.0, "B": 0.0, "C": 1.0}
        results = [
            SystemQueryResult(
                system=s, query="q",
                utility=UtilityScore(per_doc={}, total=utility[s]),
                ap=ap[s],
            )
            for s in ("A", "B", "C")
        ]
        matrix = per_query_diffs(results)
        assert matrix.diffs[("A", "q")] == -2
        assert matrix.diffs[("B", "q")] == 0
        assert matrix.diffs[("C", "q")] == 2

    def test_columns_sum_to_zero(self):
        lines = "".join(
            f"q{q} 0 d{s}{q}{r} {r} 0.{9 - r} s{s}\n"
            for s in (1, 2, 3)
            for q in (1, 2)
            for r in (1, 2, 3)
        )
        qrels = "".join(f"q{q} 0 d{s}{q}1 2\n" for s in (1, 2, 3) for q in (1, 2))
        runs, js = _corpus(lines, qrels)
        matrix = per_query_diffs(run_leave_one_out(runs, js, _plan(runs)))
        for q in matrix.queries:
            assert sum(matrix.diffs[(s, q)] for s in matrix.systems) == 0

    def test_undefined_queries_omitted(self):
        runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d9 0\n")
        matrix = per_query_diffs(run_leave_one_out(runs, js, _plan(runs)))
        assert matrix.queries == ()


def test_monotone_novelty_response():
    # moving a uniquely retrieved relevant doc up a rank never lowers U(x)
    cfg = EvalConfig(depth_n=10)
    from noveval import total_utility

    pool = [{"other": 1}]
    totals = []
    for rank in range(10, 1, -1):
        totals.append(total_utility({"d": rank}, pool, {"d"}, cfg).total)
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def _full_sort_ap(assignment, relevant):
    """AP the long way: sort every ranked document, add one Fraction per hit."""
    if not relevant:
        return None
    hits, acc = 0, Fraction(0)
    for rank, doc in sorted((rank, doc) for doc, rank in assignment.items()):
        if doc in relevant:
            hits += 1
            acc += Fraction(hits, rank)
    return float(acc / len(relevant))


def _random_corpus(rng: random.Random):
    """Runs and graded qrels with clones, systems that miss every judged document,
    unjudged documents and runs longer than the evaluation depth."""
    universe = [f"d{i}" for i in range(rng.randint(1, 14))]
    systems = [f"s{i}" for i in range(rng.randint(2, 7))]
    lines, qrels = [], []
    for q in range(rng.randint(1, 3)):
        query = f"q{q}"
        for doc in rng.sample(universe, rng.randint(0, len(universe))):
            qrels.append(f"{query} 0 {doc} {rng.choice((0, 1, 2, 2))}\n")
        docs = None
        for system in systems:
            kind = rng.random()
            if docs is None or kind >= 0.25:
                if kind < 0.4:
                    docs = [f"u{k}" for k in range(rng.randint(1, 8))]  # misses every judged doc
                else:
                    docs = rng.sample(universe, rng.randint(1, len(universe)))
            # else: a clone of the previous system's run
            lines += [
                f"{query} 0 {doc} {rank} {1 / rank} {system}\n"
                for rank, doc in enumerate(docs, start=1)
            ]
    return _corpus("".join(lines), "".join(qrels))


def test_table_cells_equal_plain_pool_and_full_sort_ap():
    """Every cell read from the per-query table equals a plain-list pool and
    the full-sort AP, with ==; reordering plan.systems changes nothing."""
    rng = random.Random(20260)
    epsilons = [None, None, 0.5, 0.125, 0.1, 1 / 3, 1e-3]
    cases = {(hit, pooled): 0 for hit in (False, True) for pooled in (False, True)}
    seen = set()
    for _ in range(400):
        runs, js = _random_corpus(rng)
        cfg = EvalConfig(
            depth_n=rng.randint(1, 12),
            partial_relevant_counts=rng.random() < 0.5,
            log_base=rng.choice([math.e, 2.0, 10.0]),
            epsilon_custom=rng.choice(epsilons),
        )
        systems = runs.systems()
        plan = LeaveOneOutPlan(tuple(systems), tuple(runs.queries()), cfg)
        results = run_leave_one_out(runs, js, plan)
        for r in results:
            x = runs.ranking(r.system, r.query, cfg.depth_n)
            pool = [runs.ranking(y, r.query, cfg.depth_n) for y in systems if y != r.system]
            relevant = js.relevant_docs(r.query, cfg.partial_relevant_counts)
            expected = total_utility(x, pool, relevant, cfg)
            assert r.utility.per_doc == expected.per_doc
            assert r.utility.total == expected.total
            assert r.ap == _full_sort_ap(x, relevant)
            for doc in relevant:
                cases[(doc in x, any(doc in ranks for ranks in pool))] += 1
        seen.add(cfg.epsilon_custom)
        shuffled = list(systems)
        rng.shuffle(shuffled)
        permuted = LeaveOneOutPlan(tuple(shuffled), plan.queries, cfg)
        assert run_leave_one_out(runs, js, permuted) == results
    assert min(cases.values()) >= 100, cases
    assert seen == set(epsilons)
