import math
import random
from fractions import Fraction

import pytest

from noveval import (
    EvalConfig,
    average_precision,
    read_probability,
    total_utility,
)
from noveval.errors import ConfigError
from noveval.metrics import QueryTable


class TestReadProbability:
    def test_top_rank_is_certain(self):
        assert read_probability(1, 300) == 1

    def test_bottom_rank(self):
        assert read_probability(300, 300) == Fraction(1, 300)

    def test_mid_rank(self):
        # thresholds 5..8 out of 8, each with mass 1/8
        assert read_probability(5, 8) == Fraction(1, 2)

    def test_absent_is_zero(self):
        assert read_probability(None, 300) == 0

    @pytest.mark.parametrize("rank,depth", [(0, 300), (-1, 300), (301, 300), (None, 0)],
                             ids=["0", "-1", "301", "depth_0"])
    def test_out_of_range_rank(self, rank, depth):
        with pytest.raises(ConfigError):
            read_probability(rank, depth)

    def test_matches_threshold_enumeration(self):
        for n in range(1, 51):
            for r in range(1, n + 1):
                enumerated = sum(Fraction(1, n) for _ in range(r, n + 1))
                assert read_probability(r, n) == enumerated

    def test_strictly_decreasing_in_rank(self):
        for n in (2, 7, 50):
            probs = [read_probability(r, n) for r in range(1, n + 1)]
            assert all(a > b for a, b in zip(probs, probs[1:]))


class TestPooledProbability:
    """The pool's mean read probability, read through total_utility.

    x ranks the document first (p_sys = 1), so its utility is -log p_pool.
    """

    def test_mean_of_two_ones(self):
        cfg = EvalConfig(depth_n=300)
        assert total_utility({"d": 1}, [{"d": 1}, {"d": 1}], {"d"}, cfg).total == 0.0

    def test_half_when_one_system_misses(self):
        cfg = EvalConfig(depth_n=300)
        assert total_utility({"d": 1}, [{"d": 1}, {}], {"d"}, cfg).total == math.log(2)

    def test_floor_when_absent_everywhere(self):
        cfg = EvalConfig(depth_n=10)
        assert total_utility({"d": 1}, [{}, {}, {}], {"d"}, cfg).total == math.log(60)
        # any retrieved doc exceeds the floor 1/60
        assert total_utility({"d": 10}, [{}, {}, {}], {"d"}, cfg).total == math.log(6)
        assert read_probability(10, 10) > Fraction(1, 60)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            total_utility({"d": 1}, [], {"d"}, EvalConfig(depth_n=10))


class TestDocumentUtility:
    """One document's log-ratio utility, read through total_utility's per_doc."""

    def test_equal_probabilities_zero(self):
        # p_sys = p_pool = 2/5 at rank 7 of 10
        cfg = EvalConfig(depth_n=10)
        assert total_utility({"d": 7}, [{"d": 7}], {"d"}, cfg).per_doc["d"] == 0.0

    def test_log_two(self):
        cfg = EvalConfig(depth_n=10)
        u = total_utility({"d": 1}, [{"d": 1}, {}], {"d"}, cfg).per_doc["d"]
        assert u == pytest.approx(math.log(2), abs=1e-12)

    def test_missed_doc_floored(self):
        cfg = EvalConfig(depth_n=10)
        u = total_utility({}, [{"d": 1}], {"d"}, cfg).per_doc["d"]
        assert u == pytest.approx(math.log(1 / 20), abs=1e-12)

    def test_finite_and_bounded(self):
        cfg = EvalConfig(depth_n=10)
        bound = math.log(2 * 10 * 3)
        # p_sys 0, 1/10 and 1
        for x in ({}, {"d": 10}, {"d": 1}):
            for pool in ([{}, {}, {}], [{"d": 1}, {}, {}], [{"d": 1}] * 3):
                u = total_utility(x, pool, {"d"}, cfg).per_doc["d"]
                assert math.isfinite(u)
                assert abs(u) <= bound + 1e-12

    def test_custom_epsilon_floor(self):
        cfg = EvalConfig(depth_n=10, epsilon_custom=0.01)
        u = total_utility({}, [{"d": 1}], {"d"}, cfg).per_doc["d"]
        assert u == pytest.approx(math.log(0.01), abs=1e-12)


class TestTotalUtility:
    def test_empty_relevant_set(self):
        cfg = EvalConfig(depth_n=10)
        score = total_utility({"d": 1}, [{"d": 1}], set(), cfg)
        assert score.total == 0.0
        assert score.per_doc == {}

    def test_identical_single_system_pool(self):
        cfg = EvalConfig(depth_n=10)
        score = total_utility({"d": 1}, [{"d": 1}], {"d"}, cfg)
        assert score.total == 0.0

    def test_two_docs_hand_value(self):
        # x at ranks 1,2; pool system at rank 10 / absent; N=10, floor 1/20
        cfg = EvalConfig(depth_n=10)
        score = total_utility({"a": 1, "b": 2}, [{"a": 10}], {"a", "b"}, cfg)
        assert score.total == pytest.approx(math.log(10) + math.log(18), abs=1e-12)
        assert score.per_doc["a"] == pytest.approx(math.log(10), abs=1e-12)
        assert score.per_doc["b"] == pytest.approx(math.log(18), abs=1e-12)

    def test_total_is_sum_of_breakdown(self):
        cfg = EvalConfig(depth_n=20)
        assignment = {f"d{i}": i for i in range(1, 8)}
        pool = [{f"d{i}": 21 - i for i in range(1, 5)}, {}]
        score = total_utility(assignment, pool, set(assignment), cfg)
        assert score.total == pytest.approx(sum(score.per_doc.values()), abs=1e-12)

    def test_log_base_rescales_uniformly(self):
        pool = [{"a": 10}]
        relevant = {"a", "b"}
        e_score = total_utility({"a": 1, "b": 2}, pool, relevant, EvalConfig(depth_n=10))
        two_score = total_utility(
            {"a": 1, "b": 2}, pool, relevant, EvalConfig(depth_n=10, log_base=2.0)
        )
        assert two_score.total == pytest.approx(e_score.total / math.log(2), abs=1e-12)

    def test_clone_dilution(self):
        # adding a clone of x to the pool strictly reduces its unique-doc utility
        cfg = EvalConfig(depth_n=10)
        x = {"d": 1}
        lone = total_utility(x, [{}], {"d"}, cfg)
        with_clone = total_utility(x, [{}, dict(x)], {"d"}, cfg)
        assert with_clone.per_doc["d"] < lone.per_doc["d"]


    @pytest.mark.parametrize("rank", [0, 11])
    def test_rank_beyond_the_depth_rejected(self, rank):
        cfg = EvalConfig(depth_n=10)
        for x, pool in (({"d": rank}, [{"d": 1}]), ({"d": 1}, [{}, {"d": rank}])):
            with pytest.raises(ConfigError, match=f"rank must be in \\[1, 10\\], got {rank}"):
                total_utility(x, pool, {"d"}, cfg)
        # A document outside the relevant set is not read.
        assert total_utility({"d": 1, "e": rank}, [{}], {"d"}, cfg).total == math.log(20)

    def test_leave_one_out_pool_is_the_other_rank_dicts(self):
        ranks = [{"a": 1, "b": 3}, {"b": 1}, {"c": 2, "a": 4}]
        table = QueryTable(ranks, {"a", "b", "c"}, EvalConfig(depth_n=5))
        for i, x in enumerate(ranks):
            pool = table.pool_without(i)
            assert list(pool) == ranks[:i] + ranks[i + 1 :]
            # The table's own cell reads the table; another relevant set (an equal one too)
            # or depth than the table's is read from the dicts.
            for cell, relevant, depth in ((table[i], table.relevant, 5),
                                          (table[i], table.relevant, 6),
                                          (x, {"a", "b", "c"}, 5), (x, {"a", "d"}, 5),
                                          (x, {"a", "b", "c"}, 6)):
                cfg = EvalConfig(depth_n=depth)
                expected = total_utility(x, list(pool), relevant, cfg)
                assert total_utility(cell, pool, relevant, cfg) == expected
                assert average_precision(cell, relevant) == average_precision(x, set(relevant))


def _random_ranking(rng: random.Random, universe: list[str], depth_n: int) -> dict[str, int]:
    docs = rng.sample(universe, rng.randint(0, min(depth_n, len(universe))))
    return dict(zip(docs, rng.sample(range(1, depth_n + 1), len(docs))))


def _fraction_utility(x, pool, doc, cfg):
    """The log of one exact Fraction ratio p_sys / p_pool, each floored when zero."""
    n = cfg.depth_n
    p_sys = read_probability(x.get(doc), n) or cfg.system_floor()
    p_pool = sum(read_probability(ranks.get(doc), n) for ranks in pool) / len(pool)
    return cfg.log(float(p_sys / (p_pool or cfg.pool_floor(len(pool)))))


def test_integer_kernel_bit_identical_to_fraction_path():
    """total_utility's int/int division equals an exact Fraction reference bit for bit."""
    rng = random.Random(20001002)
    epsilons = [None, None, 1.0, 0.5, 0.1, 1 / 3, 0.007, 1e-9]
    bases = [math.e, 2.0, 10.0]
    cases = {(hit, pooled): 0 for hit in (False, True) for pooled in (False, True)}
    seen = set()
    for _ in range(5000):
        depth_n = rng.randint(1, 12)
        cfg = EvalConfig(
            depth_n=depth_n,
            log_base=rng.choice(bases),
            epsilon_custom=rng.choice(epsilons),
        )
        universe = [f"d{i}" for i in range(rng.randint(1, 10))]
        x = _random_ranking(rng, universe, depth_n)
        pool = [_random_ranking(rng, universe, depth_n) for _ in range(rng.randint(1, 6))]
        # "m*" documents are retrieved by nobody: c = 0 and t = 0.
        relevant = set(rng.sample(universe + ["m0", "m1"], rng.randint(1, len(universe) + 2)))
        expected = {doc: _fraction_utility(x, pool, doc, cfg) for doc in relevant}
        score = total_utility(x, pool, relevant, cfg)
        assert score.per_doc == expected
        assert score.total == math.fsum(expected.values())
        for doc in relevant:
            cases[(doc in x, any(doc in ranks for ranks in pool))] += 1
        seen.add((cfg.epsilon_custom, cfg.log_base))
    assert min(cases.values()) >= 500, cases
    assert seen == {(eps, base) for eps in epsilons for base in bases}


class TestAveragePrecision:
    def test_relevant_at_one_and_three(self):
        ap = average_precision({"a": 1, "x": 2, "b": 3}, {"a", "b"})
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_perfect_ranking(self):
        ap = average_precision({"a": 1, "b": 2, "c": 3}, {"a", "b", "c"})
        assert ap == 1.0

    def test_nothing_retrieved(self):
        assert average_precision({"x": 1, "y": 2}, {"a", "b", "c", "d"}) == 0.0

    def test_no_relevant_is_undefined(self):
        assert average_precision({"x": 1}, set()) is None

    def test_bounds(self):
        for assignment in ({"a": 1}, {"a": 3, "b": 1, "c": 2}, {}):
            ap = average_precision(assignment, {"a", "b"})
            assert 0.0 <= ap <= 1.0

    def test_hits_only_sort_bit_identical_to_full_sort(self):
        def full_sort_ap(assignment, relevant):
            # Sorts every ranked document, then sums one Fraction per hit.
            hits, acc = 0, Fraction(0)
            for rank, doc in sorted((rank, doc) for doc, rank in assignment.items()):
                if doc in relevant:
                    hits += 1
                    acc += Fraction(hits, rank)
            return float(acc / len(relevant))

        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(0, 60)
            universe = [f"d{i}" for i in range(n + rng.randint(1, 20))]
            ranked = rng.sample(universe, n)
            assignment = {doc: rank for rank, doc in enumerate(ranked, start=1)}
            relevant = set(rng.sample(universe, rng.randint(1, len(universe))))
            assert average_precision(assignment, relevant) == full_sort_ap(assignment, relevant)
        # Depth 1000 with 100 hits: the exact sum runs over an lcm of hundreds of digits.
        universe = [f"d{i}" for i in range(1500)]
        for _ in range(100):
            ranked = rng.sample(universe, 1000)
            assignment = {doc: rank for rank, doc in enumerate(ranked, start=1)}
            missed = [doc for doc in universe if doc not in assignment]
            relevant = set(rng.sample(ranked, 100) + rng.sample(missed, 20))
            assert average_precision(assignment, relevant) == full_sort_ap(assignment, relevant)


def test_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(depth_n=0)
    with pytest.raises(ConfigError):
        EvalConfig(log_base=1.0)
    with pytest.raises(ConfigError):
        EvalConfig(epsilon_custom=0.0)


def test_config_defaults():
    cfg = EvalConfig()
    assert cfg.depth_n == 300
    assert cfg.partial_relevant_counts is False
    assert cfg.log_base == math.e
