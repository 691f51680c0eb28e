"""Three referees agree on the CLI's scores.

The CLI's JSON report is checked against the benchmark's own referee,
`perfbench/reference.py` (the integer closed form over its own line reader),
and against `synth.oracle_utility` (explicit threshold enumeration and
pooling, depth <= 50). Corpora come from the benchmark's seeded generator,
`perfbench/inputs.py`, which grades documents relevant, partially relevant and
irrelevant. Both scripts are loaded read-only from the checkout, as
`test_tracer_contract.py` loads `tracer.py`.
"""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from noveval import EvalConfig, load_judgments, load_runs, oracle_utility
from noveval.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


reference = _load("reference")
inputs = _load("inputs")


@pytest.fixture(scope="module", params=[False, True], ids=["single_file", "split"])
def corpus(request, tmp_path_factory):
    """Small seeded corpora, in one run file or one file per system."""
    split = request.param
    out = tmp_path_factory.mktemp("split" if split else "single")
    return [
        inputs.write_corpus(
            inputs.Shape(systems=3 + seed % 4, queries=2 + seed % 3, depth=30 + 5 * seed,
                         relevant=4 + seed, partial=2 + seed % 3, irrelevant=10, split=split),
            f"differential/{seed}", out / f"c{seed}")
        for seed in range(4)
    ]


@pytest.mark.parametrize(
    "shallower,options,cli_options",
    [
        (0, {}, []),
        (0, {"include_partial": True}, ["--partial-relevant", "include"]),
        (0, {"epsilon": 0.001}, ["--epsilon-policy", "custom:0.001"]),
        (0, {"epsilon": 2 ** -10}, ["--epsilon-policy", f"custom:{2 ** -10!r}"]),
        (0, {"log_base": "2"}, ["--log-base", "2", "--strict-scores"]),
        (12, {"include_partial": True}, ["--partial-relevant", "include", "--strict-scores"]),
    ],
    ids=["default", "partial", "custom_epsilon", "dyadic_epsilon", "log2_strict",
         "shallow_partial_strict"],
)
def test_cli_scores_match_the_reference_and_the_oracle(corpus, capsys, shallower, options,
                                                        cli_options):
    """Each corpus is evaluated `shallower` ranks above its run depth."""
    for c in corpus:
        depth = c.shape.depth - shallower
        assert depth <= 50  # the oracle's limit
        opt = reference.Options(depth, **options)
        assert main(["--runs", str(c.runs), "--qrels", str(c.qrels), "--depth", str(depth),
                     "--format", "json", "--per-query", *cli_options]) == 0
        text = capsys.readouterr().out
        digests = {
            "runs": ({f.name: f.sha256 for f in c.run_files} if c.shape.split
                     else c.run_files[0].sha256),
            "qrels": c.qrels_file.sha256,
        }
        expected = reference.expected(reference.read_judged_ranks(c.run_paths(), c.qrels), opt)
        assert reference.check_eval_output(text, "json", True, expected, opt, digests) == []

        config = EvalConfig(depth_n=depth, partial_relevant_counts=opt.include_partial,
                            log_base=reference.LOG_BASES[opt.log_base],
                            epsilon_custom=opt.epsilon)
        runs, judgments = load_runs(c.runs), load_judgments(c.qrels)
        for row in json.loads(text)["ranking"]:
            oracle = oracle_utility(runs, judgments, row["system"], config).total
            assert math.isclose(row["utility_score"], oracle, rel_tol=1e-9,
                                abs_tol=1e-9 * expected.utility_mag[row["system"]])


# Every floor case on purpose. On q1: system a alone finds r2 (a unique find, so the pool
# floor), b misses r1 that the others retrieve (the system floor), no system retrieves r4,
# and c and d rank alike, so their scores tie.
FLOOR_RUNS = {
    "a": {"q1": ["r2", "r1", "n1", "x1"], "q2": ["s1", "s2"]},
    "b": {"q1": ["n1", "x2", "r3"], "q2": ["s2", "s1"]},
    "c": {"q1": ["r1", "r3", "n1"], "q2": ["s1"]},
    "d": {"q1": ["r1", "r3", "n1"], "q2": ["s1"]},
}
FLOOR_QRELS = {"q1": {"r1": 2, "r2": 2, "r3": 2, "r4": 2, "p1": 1, "n1": 0},
               "q2": {"s1": 2, "s2": 2, "n2": 0}}


@pytest.mark.parametrize(
    "options,cli_options",
    [({}, []), ({"epsilon": 0.001}, ["--epsilon-policy", "custom:0.001"])],
    ids=["default_floors", "custom_epsilon"],
)
def test_floor_cases_match_the_reference_and_the_oracle(tmp_path, capsys, options, cli_options):
    runs, qrels = tmp_path / "runs.txt", tmp_path / "qrels.txt"
    runs.write_text("".join(
        f"{q} 0 {doc} {rank} {1 / rank} {system}\n"
        for system, by_query in FLOOR_RUNS.items() for q, docs in by_query.items()
        for rank, doc in enumerate(docs, 1)))
    qrels.write_text("".join(f"{q} 0 {doc} {grade}\n"
                             for q, grades in FLOOR_QRELS.items() for doc, grade in grades.items()))
    depth = 10
    opt = reference.Options(depth, **options)
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", str(depth),
                 "--format", "json", "--per-query", *cli_options]) == 0
    text = capsys.readouterr().out
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in (("runs", runs), ("qrels", qrels))}
    expected = reference.expected(reference.read_judged_ranks([runs], qrels), opt)
    assert reference.check_eval_output(text, "json", True, expected, opt, digests) == []

    ranking = {row["system"]: row for row in json.loads(text)["ranking"]}
    assert ranking["c"]["utility_score"] == ranking["d"]["utility_score"]
    assert ranking["c"]["ap_score"] == ranking["d"]["ap_score"]
    config = EvalConfig(depth_n=depth, epsilon_custom=opt.epsilon)
    run_set, judgments = load_runs(runs), load_judgments(qrels)
    for system, row in ranking.items():
        oracle = oracle_utility(run_set, judgments, system, config).total
        assert math.isclose(row["utility_score"], oracle, rel_tol=1e-9,
                            abs_tol=1e-9 * expected.utility_mag[system])
