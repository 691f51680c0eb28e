import pytest

from noveval import (
    EvalConfig,
    RunEntry,
    RunSet,
    JudgmentSet,
    Relevance,
    SyntheticSpec,
    generate,
    oracle_utility,
    run_leave_one_out,
)
from noveval.errors import ConfigError, OracleScaleError


def _spec(**overrides) -> SyntheticSpec:
    base = dict(
        num_systems=3,
        num_queries=2,
        depth_n=20,
        relevant_per_query=6,
        shared_fraction=0.5,
        unique_per_system=1,
        seed=17,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def test_same_seed_same_output():
    a = generate(_spec())
    b = generate(_spec())
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_different_seed_differs():
    # leftover relevant docs are assigned to random system subsets
    a_runs, _ = generate(_spec(seed=1, unique_per_system=0))
    b_runs, _ = generate(_spec(seed=2, unique_per_system=0))
    assert a_runs != b_runs


def test_runs_satisfy_invariants_and_depth():
    runs, _ = generate(_spec())
    for system in runs.systems():
        for query in runs.queries():
            ranking = runs.ranking(system, query)
            assert sorted(ranking.values()) == list(range(1, 21))


def test_every_relevant_doc_is_retrieved_somewhere():
    spec = _spec(shared_fraction=0.0, unique_per_system=0)
    runs, judgments = generate(spec)
    for query in runs.queries():
        relevant = judgments.relevant_docs(query)
        retrieved = set()
        for system in runs.systems():
            retrieved |= set(runs.ranking(system, query))
        assert relevant <= retrieved


def test_full_overlap_yields_zero_utilities():
    spec = _spec(shared_fraction=1.0, unique_per_system=0)
    runs, judgments = generate(spec)
    scores = run_leave_one_out(runs, judgments, EvalConfig(depth_n=spec.depth_n))
    assert all(u == 0.0 for q in scores.queries for u in scores.utility[q])


def test_designated_system_dominates():
    spec = _spec(
        num_systems=4,
        relevant_per_query=8,
        shared_fraction=0.75,
        unique_per_system=2,
        designated_system=1,
    )
    runs, judgments = generate(spec)
    scores = run_leave_one_out(runs, judgments, EvalConfig(depth_n=spec.depth_n))
    for query in runs.queries():
        per_query = dict(zip(scores.systems, scores.utility[query]))
        designated = per_query.pop("sys01")
        assert all(designated > v for v in per_query.values())


def test_infeasible_spec_rejected():
    with pytest.raises(ConfigError, match="infeasible"):
        _spec(relevant_per_query=2, shared_fraction=1.0, unique_per_system=1)
    with pytest.raises(ConfigError, match="infeasible"):
        _spec(depth_n=3, relevant_per_query=6, shared_fraction=0.0, unique_per_system=0)


def test_spec_field_validation():
    with pytest.raises(ConfigError):
        _spec(num_systems=1)
    for field, value in (("num_queries", 0), ("depth_n", 0), ("relevant_per_query", -1),
                         ("unique_per_system", -1)):
        with pytest.raises(ConfigError, match=f"^{field} must be >= "):
            _spec(**{field: value})
    with pytest.raises(ConfigError):
        _spec(shared_fraction=1.5)
    with pytest.raises(ConfigError):
        _spec(designated_system=99)
    with pytest.raises(ConfigError):
        _spec(ap_handicap=True)  # needs a designated system


def test_filler_exercises_unjudged_path():
    runs, judgments = generate(_spec(seed=5))
    grades = set()
    for system in runs.systems():
        for query in runs.queries():
            for doc in runs.ranking(system, query):
                grades.add(judgments.grade(query, doc))
    assert None in grades  # unjudged filler
    assert Relevance.IRRELEVANT in grades  # judged-irrelevant filler


class TestOracle:
    def test_matches_hand_value(self):
        # pool system y ranks doc a at 10 and never retrieves b
        entries = [
            RunEntry("q", "a", 1, 1.0, "x"),
            RunEntry("q", "b", 2, 0.9, "x"),
        ] + [RunEntry("q", f"y{i}", i, 1.0 - i / 100, "y") for i in range(1, 10)] + [
            RunEntry("q", "a", 10, 0.5, "y")
        ]
        runs = RunSet(entries)
        judgments = JudgmentSet({("q", "a"): Relevance.RELEVANT, ("q", "b"): Relevance.RELEVANT})
        score = oracle_utility(runs, judgments, "x", EvalConfig(depth_n=10))
        import math

        assert score.total == pytest.approx(math.log(10) + math.log(18), abs=1e-12)

    def test_empty_relevant_set(self):
        runs, _ = generate(_spec())
        score = oracle_utility(runs, JudgmentSet({}), "sys00", EvalConfig(depth_n=20))
        assert score.total == 0.0

    def test_clone_pool_is_zero(self):
        entries = [
            RunEntry("q", "d", 1, 1.0, "x"),
            RunEntry("q", "d", 1, 1.0, "y"),
        ]
        runs = RunSet(entries)
        judgments = JudgmentSet({("q", "d"): Relevance.RELEVANT})
        score = oracle_utility(runs, judgments, "x", EvalConfig(depth_n=5))
        assert score.total == 0.0

    def test_scale_limit(self):
        runs, judgments = generate(_spec())
        with pytest.raises(OracleScaleError):
            oracle_utility(runs, judgments, "sys00", EvalConfig(depth_n=51))
        alone = RunSet([RunEntry("q", "d", 1, 1.0, "x")])  # no pool system besides x
        with pytest.raises(ConfigError, match="^oracle needs at least one pool system"):
            oracle_utility(alone, judgments, "x", EvalConfig(depth_n=5))

    def test_agreement_exhaustive_one_doc(self):
        # exhaustive over N <= 10, |E| <= 3, all rank placements of one document
        from noveval import total_utility

        for n in range(1, 11):
            for pool_size in (1, 2, 3):
                for x_rank in list(range(1, n + 1)) + [None]:
                    for pool_rank in list(range(1, n + 1)) + [None]:
                        cfg = EvalConfig(depth_n=n)
                        entries = []
                        if x_rank is not None:
                            entries.append(RunEntry("q", "d", 1, 1.0, "x"))
                        else:
                            entries.append(RunEntry("q", "z", 1, 1.0, "x"))
                        for j in range(pool_size):
                            sysid = f"p{j}"
                            if pool_rank is None:
                                entries.append(RunEntry("q", f"z{j}", 1, 1.0, sysid))
                            else:
                                for r in range(1, pool_rank):
                                    entries.append(
                                        RunEntry("q", f"f{j}_{r}", r, 1.0, sysid)
                                    )
                                entries.append(RunEntry("q", "d", pool_rank, 0.5, sysid))
                        if x_rank is not None and x_rank > 1:
                            entries = [e for e in entries if e.system != "x"]
                            for r in range(1, x_rank):
                                entries.append(RunEntry("q", f"xf{r}", r, 1.0, "x"))
                            entries.append(RunEntry("q", "d", x_rank, 0.5, "x"))
                        runs = RunSet(entries)
                        judgments = JudgmentSet({("q", "d"): Relevance.RELEVANT})
                        expected = oracle_utility(runs, judgments, "x", cfg)
                        got = total_utility(
                            runs.ranking("x", "q", n),
                            [runs.ranking(s, "q", n) for s in runs.systems() if s != "x"],
                            {"d"},
                            cfg,
                        )
                        assert abs(got.total - expected.total) <= 1e-12
