"""The records are NamedTuples: validated on every path that builds one, immutable,
and cheap to import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noveval
from noveval import (
    ConfigError,
    EvalConfig,
    LeaveOneOut,
    PerQueryDiffMatrix,
    RankingRow,
    RankingTable,
    RunEntry,
    SyntheticSpec,
    UtilityScore,
    ValidationError,
)

ROWS = (RankingRow("a", 0.5, 1.0, 1, 2), RankingRow("b", 0.25, 2.0, 2, 1))

#: A valid record of each validated type, one field change that it rejects, and the error.
VALIDATED = [
    pytest.param(EvalConfig(), {"depth_n": 0}, ConfigError("depth_n must be >= 1, got 0"),
                 id="EvalConfig-depth"),
    pytest.param(EvalConfig(), {"log_base": 1.0},
                 ConfigError("log_base must be positive and != 1, got 1.0"), id="EvalConfig-log"),
    pytest.param(EvalConfig(epsilon_custom=0.5), {"epsilon_custom": 1.5},
                 ConfigError("epsilon floor must be in (0, 1], got 1.5"), id="EvalConfig-epsilon"),
    pytest.param(LeaveOneOut(("a", "b"), ("q",), {"q": (0.0, 0.0)}, {"q": (None, None)}),
                 {"utility": {"q": (0.0,)}},
                 ValidationError("leave-one-out table of 2 systems is incomplete"),
                 id="LeaveOneOut"),
    pytest.param(RankingTable(ROWS), {"rows": (ROWS[0], RankingRow("b", 0.25, 2.0, 1, 1))},
                 ValidationError("ap_rank column is not a permutation of 1..2"),
                 id="RankingTable"),
    pytest.param(SyntheticSpec(4, 3, 50, 10, 0.5, 1, 0), {"ap_handicap": True},
                 ConfigError("ap_handicap requires a designated system"), id="SyntheticSpec"),
]


@pytest.mark.parametrize("good, change, error", VALIDATED)
def test_a_bad_record_is_rejected_on_every_path(good, change, error):
    """The constructor, `_replace` and `_make` all run the record's check."""
    cls = type(good)
    fields = good._asdict()
    assert cls(**fields) == cls._make(good) == good._replace() == good
    bad = fields | change
    for build in (lambda: cls(**bad), lambda: good._replace(**change),
                  lambda: cls._make(bad.values())):
        with pytest.raises(type(error)) as raised:
            build()
        assert str(raised.value) == str(error)


RECORDS = [
    EvalConfig(),
    UtilityScore({"d": 0.5}, 0.5),
    RunEntry("q1", "d1", 1, 0.9, "s1"),
    ROWS[0],
    RankingTable(ROWS),
    LeaveOneOut(("a", "b"), ("q",), {"q": (0.0, 0.0)}, {"q": (None, None)}),
    PerQueryDiffMatrix(("a",), ("q",), {("a", "q"): 0}),
    SyntheticSpec(4, 3, 50, 10, 0.5, 1, 0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_a_record_cannot_be_assigned_to(record):
    name = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_keep_their_repr():
    assert repr(EvalConfig(depth_n=5)) == (
        "EvalConfig(depth_n=5, partial_relevant_counts=False, log_base=2.718281828459045, "
        "epsilon_custom=None)"
    )
    assert repr(RunEntry("q1", "d1", 1, 0.9, "s1")) == (
        "RunEntry(query='q1', doc='d1', rank=1, score=0.9, system='s1')"
    )


def test_default_utility_scores_share_no_mutable_mapping():
    first, second = UtilityScore(), UtilityScore()
    assert first.per_doc == {} and first.total == 0.0
    try:
        first.per_doc["d"] = 1.0
    except TypeError:  # a read-only default
        pass
    assert second.per_doc == {} and UtilityScore().per_doc == {}


def test_importing_the_cli_loads_no_heavy_modules():
    """`import noveval.cli` adds none of these to a fresh interpreter's modules; a
    bare interpreter's own modules (which `site` may load) do not count."""
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "json"}
    src = str(Path(noveval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def loaded(statement: str) -> set[str]:
        script = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        return set(proc.stdout.split())

    added = loaded("import noveval.cli") - loaded("pass")
    assert "noveval.cli" in added
    assert added & heavy == set()


def test_openssl_loads_only_when_a_file_is_hashed(tmp_path):
    """`import noveval.cli` and `noveval synth` load no OpenSSL (`_hashlib`); an evaluation
    loads it when it hashes its first input file. Run without `site`, which may import it."""
    src = str(Path(noveval.__file__).resolve().parents[1])
    runs, qrels = tmp_path / "runs.txt", tmp_path / "qrels.txt"
    script = "\n".join([
        "import sys",
        "from noveval.cli import main",
        "print('_hashlib' in sys.modules, file=sys.stderr)",
        f"main(['synth', '--out-dir', {str(tmp_path)!r}, '--systems', '3', '--queries', '2',"
        " '--depth', '20'])",
        "print('_hashlib' in sys.modules, file=sys.stderr)",
        f"main(['--runs', {str(runs)!r}, '--qrels', {str(qrels)!r}])",
        "print('_hashlib' in sys.modules, file=sys.stderr)",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          check=True)
    assert proc.stderr.split() == ["False", "False", "True"]
