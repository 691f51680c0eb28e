import io
import math
import random
from fractions import Fraction

import pytest

from noveval import (
    EvalConfig,
    JudgmentSet,
    LeaveOneOut,
    RankingRow,
    RankingTable,
    RunEntry,
    RunSet,
    aggregate,
    average_precision,
    load_runs,
    parse_judgments,
    parse_run_file,
    per_query_diffs,
    read_probability,
    run_leave_one_out,
    tie_break,
    total_utility,
    write_run_file,
)
from noveval.errors import ConfigError, ValidationError
from noveval.metrics import QueryTable


def _corpus(lines: str, qrels: str):
    return parse_run_file(io.StringIO(lines)), parse_judgments(io.StringIO(qrels))


def _cells(scores, column="utility"):
    """Every (system, query) cell of one column of a `LeaveOneOut` table."""
    return [value for q in scores.queries for value in getattr(scores, column)[q]]


IDENTICAL_TWINS = """\
q1 0 d1 1 0.9 s1
q1 0 d2 2 0.8 s1
q1 0 d1 1 0.9 s2
q1 0 d2 2 0.8 s2
"""


def test_identical_systems_score_zero():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\nq1 0 d2 2\n")
    scores = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
    assert _cells(scores) == [0.0, 0.0]


def test_result_grid_shape_and_order():
    lines = "".join(
        f"q{q} 0 d{q}{r} {r} 0.{9 - r} s{s}\n"
        for s in (1, 2, 3)
        for q in (1, 2)
        for r in (1, 2)
    )
    qrels = "q1 0 d11 2\nq2 0 d21 2\n"
    runs, js = _corpus(lines, qrels)
    scores = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
    assert scores.systems == ("s1", "s2", "s3")
    assert scores.queries == ("q1", "q2")
    for column in (scores.utility, scores.ap):
        assert list(column) == ["q1", "q2"]
        assert all(len(cells) == 3 for cells in column.values())


def test_zero_relevant_query_flagged():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d9 0\n")
    scores = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
    assert _cells(scores, "ap") == [None, None]
    assert js.relevant_docs("q1") == set()
    assert _cells(scores) == [0.0, 0.0]


def test_plan_requires_two_systems():
    runs, js = _corpus("q1 0 d1 1 0.9 only\n", "q1 0 d1 2\n")
    with pytest.raises(ConfigError, match="2 systems"):
        run_leave_one_out(runs, js, EvalConfig())


def test_determinism():
    runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d1 2\nq1 0 d2 1\n")
    first = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
    second = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
    assert first == second


class TestTieBreak:
    def test_lexicographic_on_ties(self):
        assert tie_break([("A", 0.5), ("B", 0.5)]) == {"A": 1, "B": 2}

    def test_descending(self):
        assert tie_break([("A", 0.1), ("B", 0.9)]) == {"B": 1, "A": 2}

    def test_mixed(self):
        assert tie_break([("A", 1.0), ("B", 1.0), ("C", 2.0)]) == {"C": 1, "A": 2, "B": 3}


class TestAggregate:
    def _scores(self):
        lines = (
            "q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n"
            "q1 0 d2 1 0.9 s2\nq1 0 d3 2 0.8 s2\n"
        )
        runs, js = _corpus(lines, "q1 0 d1 2\nq1 0 d2 2\n")
        return run_leave_one_out(runs, js, EvalConfig(depth_n=10))

    def test_best_system_has_both_top_ranks(self):
        table = aggregate(self._scores())
        best = next(r for r in table.rows if r.system == "s1")
        assert best.ap_rank == 1
        assert best.utility_rank == 1
        assert best.difference == 0

    def test_difference_column_sums_to_zero(self):
        table = aggregate(self._scores())
        assert sum(r.difference for r in table.rows) == 0

    def test_rank_columns_are_permutations(self):
        table = aggregate(self._scores())
        m = len(table.rows)
        assert sorted(r.ap_rank for r in table.rows) == list(range(1, m + 1))
        assert sorted(r.utility_rank for r in table.rows) == list(range(1, m + 1))

    def test_sum_and_mean_schemes_agree_on_ranking(self):
        by_sum = aggregate(self._scores(), scheme="sum")
        by_mean = aggregate(self._scores(), scheme="mean")
        ranks_sum = {r.system: r.utility_rank for r in by_sum.rows}
        ranks_mean = {r.system: r.utility_rank for r in by_mean.rows}
        assert ranks_sum == ranks_mean

    def test_incomplete_grid_rejected(self):
        lines = (
            "q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\n"
            "q1 0 d1 1 0.9 s2\nq2 0 d1 1 0.9 s2\n"
        )
        runs, js = _corpus(lines, "q1 0 d1 2\nq2 0 d1 2\n")
        scores = run_leave_one_out(runs, js, EvalConfig(depth_n=10))
        short = dict(scores.utility, q2=scores.utility["q2"][:-1])
        with pytest.raises(ValidationError, match="incomplete"):
            LeaveOneOut(scores.systems, scores.queries, short, scores.ap)
        with pytest.raises(ValidationError, match="incomplete"):
            LeaveOneOut(scores.systems, scores.queries, {"q1": scores.utility["q1"]}, scores.ap)
        with pytest.raises(ValidationError, match="incomplete"):
            LeaveOneOut(scores.systems, (), {}, {})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            aggregate(self._scores(), scheme="median")


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
        matrix = per_query_diffs(run_leave_one_out(runs, js, EvalConfig(depth_n=10)))
        assert all(v == 0 for v in matrix.diffs.values())

    def test_reversed_orders(self):
        # AP order (A,B,C) vs utility order (C,B,A) -> diffs A:-2 B:0 C:+2
        scores = LeaveOneOut(
            systems=("A", "B", "C"),
            queries=("q",),
            utility={"q": (-1.0, 0.0, 1.0)},
            ap={"q": (0.9, 0.5, 0.1)},
        )
        matrix = per_query_diffs(scores)
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
        matrix = per_query_diffs(run_leave_one_out(runs, js, EvalConfig(depth_n=10)))
        for q in matrix.queries:
            assert sum(matrix.diffs[(s, q)] for s in matrix.systems) == 0

    def test_undefined_queries_omitted(self):
        runs, js = _corpus(IDENTICAL_TWINS, "q1 0 d9 0\n")
        matrix = per_query_diffs(run_leave_one_out(runs, js, EvalConfig(depth_n=10)))
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


def _random_corpus(rng: random.Random, num_systems: int | None = None):
    """Runs and graded qrels with clones, systems that miss every judged document,
    unjudged documents and runs longer than the evaluation depth."""
    universe = [f"d{i}" for i in range(rng.randint(1, 14))]
    systems = [f"s{i}" for i in range(num_systems or rng.randint(2, 7))]
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


EPSILONS = [None, None, 0.5, 0.125, 0.1, 1 / 3, 1e-3]


def _random_config(rng: random.Random) -> EvalConfig:
    return EvalConfig(
        depth_n=rng.randint(1, 12),
        partial_relevant_counts=rng.random() < 0.5,
        log_base=rng.choice([math.e, 2.0, 10.0]),
        epsilon_custom=rng.choice(EPSILONS),
    )


def test_table_cells_equal_plain_pool_and_full_sort_ap():
    """Every cell read from the per-query table equals a plain-list pool and
    the full-sort AP, with ==."""
    rng = random.Random(20260)
    cases = {(hit, pooled): 0 for hit in (False, True) for pooled in (False, True)}
    seen = set()
    for _ in range(400):
        runs, js = _random_corpus(rng)
        cfg = _random_config(rng)
        systems = runs.systems()
        scores = run_leave_one_out(runs, js, cfg)
        assert scores.systems == tuple(systems)
        assert scores.queries == tuple(runs.queries())
        for query in scores.queries:
            relevant = js.relevant_docs(query, cfg.partial_relevant_counts)
            for i, system in enumerate(systems):
                x = runs.ranking(system, query, cfg.depth_n)
                pool = [runs.ranking(y, query, cfg.depth_n) for y in systems if y != system]
                assert scores.utility[query][i] == total_utility(x, pool, relevant, cfg).total
                assert scores.ap[query][i] == _full_sort_ap(x, relevant)
                for doc in relevant:
                    cases[(doc in x, any(doc in ranks for ranks in pool))] += 1
        seen.add(cfg.epsilon_custom)
    assert min(cases.values()) >= 100, cases
    assert seen == set(EPSILONS)


def test_public_wrappers_equal_the_table_cells_on_zero_numerators():
    """`total_utility` with a plain list pool and `average_precision` of a plain dict equal
    (==) the harness's cells, the `QueryTable` cells they read and the exact Fraction ratios,
    on documents that x misses (c = 0), that only x retrieves (T - c = 0) and that no system
    retrieves (T = 0), under the default floors, every custom epsilon and bases e, 2 and 10."""
    runs, js = _corpus(
        "q1 0 only 1 0.9 s0\nq1 0 shared 2 0.8 s0\nq1 0 some 3 0.7 s0\n"
        "q1 0 shared 1 0.9 s1\nq1 0 some 2 0.8 s1\nq1 0 junk 3 0.7 s1\n"
        "q1 0 junk 1 0.9 s2\nq1 0 other 2 0.8 s2\nq1 0 shared 3 0.7 s2\n",
        "q1 0 only 2\nq1 0 shared 2\nq1 0 some 1\nq1 0 none 2\nq1 0 junk 0\n")
    systems = runs.systems()
    for epsilon in EPSILONS:
        for base in (math.e, 2.0, 10.0):
            for depth, partial in ((3, True), (2, False)):
                cfg = EvalConfig(depth, partial, base, epsilon)
                scores = run_leave_one_out(runs, js, cfg)
                relevant = js.relevant_docs("q1", partial)
                table = QueryTable([runs.ranking(s, "q1", depth, among=relevant)
                                    for s in systems], relevant, cfg)
                cases = set()
                for i, system in enumerate(systems):
                    x = runs.ranking(system, "q1", depth)
                    pool = [runs.ranking(y, "q1", depth) for y in systems if y != system]
                    plain = total_utility(x, pool, relevant, cfg)
                    assert plain.per_doc == {  # the log of each exact ratio p_sys / p_pool
                        doc: cfg.log(float((read_probability(x.get(doc), depth)
                                            or cfg.system_floor())
                                           / (sum(read_probability(y.get(doc), depth)
                                                  for y in pool) / len(pool)
                                              or cfg.pool_floor(len(pool)))))
                        for doc in relevant}
                    assert scores.utility["q1"][i] == plain.total
                    assert total_utility(table[i], table.pool_without(i), relevant, cfg) == plain
                    assert scores.ap["q1"][i] == average_precision(x, relevant)
                    assert average_precision(table[i], relevant) == average_precision(x, relevant)
                    cases |= {("missed" if not c else "alone" if c == t else "pooled", t > 0)
                              for c, t in zip(table.rows[i], table.totals)}
                assert {("missed", True), ("alone", True), ("missed", False)} <= cases, cases


def test_judged_rows_move_no_score(tmp_path):
    """The leave-one-out table over the runs that `load_runs(..., judged=)` keeps equals (==)
    the table over the whole runs, under partial relevance, depth cuts, custom epsilons and
    log bases e, 2 and 10."""
    rng = random.Random(4242)
    seen, dropped = set(), 0
    for case in range(300):
        runs, js = _random_corpus(rng)
        cfg = _random_config(rng)
        path = tmp_path / f"runs{case}.txt"
        with path.open("w") as sink:
            write_run_file(runs, sink)
        whole, judged = load_runs(path), load_runs(path, judged=js)
        dropped += len(judged) < len(whole)
        assert run_leave_one_out(judged, js, cfg) == run_leave_one_out(whole, js, cfg)
        depth = max(len(docs) for docs, _, _ in whole._groups.values())
        seen |= {("partial", cfg.partial_relevant_counts), ("base", cfg.log_base),
                 ("epsilon", cfg.epsilon_custom), ("cut", cfg.depth_n < depth)}
    assert seen == ({("partial", False), ("partial", True), ("cut", False), ("cut", True)}
                    | {("base", b) for b in (math.e, 2.0, 10.0)}
                    | {("epsilon", e) for e in EPSILONS})
    assert dropped >= 200, dropped  # the judged runs hold fewer rows in most cases


def _renamed(runs: RunSet, js: JudgmentSet, docs: dict, queries: dict):
    entries = [RunEntry(queries[e.query], docs[e.doc], e.rank, e.score, e.system)
               for e in runs.entries()]
    return RunSet(entries), JudgmentSet({(queries[q], docs[d]): g for q, d, g in js.items()})


def _reversing(ids) -> dict[str, str]:
    """New names for `ids` whose sort order is the reverse of theirs."""
    ordered = sorted(ids)
    return {old: f"z{len(ordered) - i:03d}" for i, old in enumerate(ordered)}


def test_sums_do_not_depend_on_id_order():
    """Renaming documents and queries so that their sort order reverses leaves
    every leave-one-out total and every ranking-table score identical (==)."""
    rng = random.Random(1616)
    for _ in range(300):
        runs, js = _random_corpus(rng)
        cfg = _random_config(rng)
        docs = _reversing({e.doc for e in runs.entries()} | {d for _, d, _ in js.items()})
        queries = _reversing(set(runs.queries()) | set(js.queries()))
        scores = run_leave_one_out(runs, js, cfg)
        renamed = run_leave_one_out(*_renamed(runs, js, docs, queries), cfg)
        assert renamed.systems == scores.systems
        for q in scores.queries:
            assert renamed.utility[queries[q]] == scores.utility[q]
            assert renamed.ap[queries[q]] == scores.ap[q]
        for scheme in ("sum", "mean"):
            assert set(aggregate(renamed, scheme).rows) == set(aggregate(scores, scheme).rows)


def test_renaming_systems_moves_only_tie_breaks():
    """Renaming the systems so that their sort order reverses leaves each system's
    utility and AP identical (==), per query and in the ranking table; a rank may
    move only among systems tied on that score."""
    rng = random.Random(1717)
    moved = 0
    for _ in range(300):
        runs, js = _random_corpus(rng)
        cfg = _random_config(rng)
        names = _reversing(runs.systems())
        renamed_runs = RunSet(RunEntry(e.query, e.doc, e.rank, e.score, names[e.system])
                              for e in runs.entries())
        scores = run_leave_one_out(runs, js, cfg)
        renamed = run_leave_one_out(renamed_runs, js, cfg)
        assert renamed.queries == scores.queries
        at = {s: renamed.systems.index(names[s]) for s in scores.systems}
        for q in scores.queries:
            for i, s in enumerate(scores.systems):
                assert renamed.utility[q][at[s]] == scores.utility[q][i]
                assert renamed.ap[q][at[s]] == scores.ap[q][i]
        for scheme in ("sum", "mean"):
            rows = aggregate(scores, scheme).rows
            new = {row.system: row for row in aggregate(renamed, scheme).rows}
            for row in rows:
                twin = new[names[row.system]]
                assert (twin.ap_score, twin.utility_score) == (row.ap_score, row.utility_score)
                for score, rank in (("ap_score", "ap_rank"), ("utility_score", "utility_rank")):
                    value = getattr(row, score)
                    tied = {getattr(r, rank) for r in rows if getattr(r, score) == value}
                    assert getattr(twin, rank) in tied
                    moved += getattr(twin, rank) != getattr(row, rank)
    assert moved >= 100, moved


def test_two_systems_have_opposite_utilities():
    """With M = 2 each system's pool is the other one, so u(x) = -u(y)."""
    rng = random.Random(2)
    for _ in range(300):
        runs, js = _random_corpus(rng, num_systems=2)
        for epsilon in (None, rng.choice(EPSILONS[2:])):
            cfg = _random_config(rng)._replace(epsilon_custom=epsilon)
            scores = run_leave_one_out(runs, js, cfg)
            for q in scores.queries:
                x, y = scores.utility[q]
                assert abs(x + y) <= 1e-12


def test_clone_pools_give_zero():
    """Systems with identical runs score exactly 0. Under the default floors a
    relevant document no clone retrieves scores log(M - 1), so there every
    relevant document is retrieved within the depth."""
    rng = random.Random(3)
    universe = [f"d{i}" for i in range(14)]
    for _ in range(300):
        cfg = _random_config(rng)
        systems = range(rng.randint(2, 6))
        lines, qrels = [], []
        for q in range(rng.randint(1, 3)):
            docs = rng.sample(universe, rng.randint(1, len(universe)))
            judged = docs[: cfg.depth_n] if cfg.epsilon_custom is None else universe
            qrels += [f"q{q} 0 {d} {rng.choice((0, 1, 2))}\n"
                      for d in rng.sample(judged, rng.randint(0, len(judged)))]
            lines += [f"q{q} 0 {d} {r} {1 / r} s{s}\n"
                      for s in systems for r, d in enumerate(docs, start=1)]
        scores = run_leave_one_out(*_corpus("".join(lines), "".join(qrels)), cfg)
        assert set(_cells(scores)) <= {0.0}


def test_adding_a_system_leaves_other_ap_unchanged():
    rng = random.Random(4)
    universe = [f"d{i}" for i in range(14)] + [f"n{i}" for i in range(6)]
    for _ in range(300):
        runs, js = _random_corpus(rng)
        cfg = _random_config(rng)
        added = [RunEntry(q, doc, rank, 1 / rank, "added")  # "q3" is a new query
                 for q in ("q0", "q1", "q3")
                 for rank, doc in enumerate(rng.sample(universe, rng.randint(1, 12)), start=1)]
        before = run_leave_one_out(runs, js, cfg)
        after = run_leave_one_out(RunSet([*runs.entries(), *added]), js, cfg)
        assert after.systems == ("added", *before.systems)
        for q in before.queries:
            assert after.ap[q][1:] == before.ap[q]
