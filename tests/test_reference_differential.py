"""Three referees agree on the CLI's scores.

The CLI's JSON report is checked against the benchmark's own referee,
`perfbench/reference.py` (the integer closed form over its own line reader),
and against `synth.oracle_utility` (explicit threshold enumeration and
pooling, depth <= 50). Corpora come from the benchmark's seeded generator,
`perfbench/inputs.py`, which grades documents relevant, partially relevant and
irrelevant. Both scripts are loaded read-only from the checkout, as
`test_tracer_contract.py` loads `tracer.py`.
"""

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
