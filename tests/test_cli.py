import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noveval import RankingRow, RankingTable, ValidationError
from noveval.cli import abbreviate_queries, main, render_per_query, render_ranking
from noveval.harness import PerQueryDiffMatrix

RUNS = """\
q1 0 d1 1 0.9 s1
q1 0 d2 2 0.8 s1
q1 0 d2 1 0.9 s2
q1 0 d3 2 0.8 s2
"""
QRELS = "q1 0 d1 2\nq1 0 d2 2\n"


@pytest.fixture
def corpus(tmp_path):
    runs = tmp_path / "runs.txt"
    qrels = tmp_path / "qrels.txt"
    runs.write_text(RUNS)
    qrels.write_text(QRELS)
    return runs, qrels


def test_happy_path_csv(corpus, capsys):
    runs, qrels = corpus
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert data_lines[0] == "system,ap_rank,utility_rank,difference,ap_score,utility_score"
    assert len(data_lines) == 3


def test_missing_qrels_flag(corpus, capsys):
    runs, _ = corpus
    code = main(["--runs", str(runs)])
    assert code == 1
    assert "--qrels" in capsys.readouterr().err


def test_single_system_rejected(tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_text("q1 0 d1 1 0.9 only\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d1 2\n")
    code = main(["--runs", str(runs), "--qrels", str(qrels)])
    assert code == 1
    assert "2 systems" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    code = main(["--runs", str(tmp_path / "nope.txt"), "--qrels", str(qrels)])
    assert code == 2


def test_runs_directory(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "s1.txt").write_text("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n")
    (runs_dir / "s2.txt").write_text("q1 0 d2 1 0.9 s2\nq1 0 d3 2 0.8 s2\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    code = main(["--runs", str(runs_dir), "--qrels", str(qrels), "--depth", "10"])
    assert code == 0
    assert "s1" in capsys.readouterr().out


def test_json_output_with_per_query(corpus, capsys):
    runs, qrels = corpus
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                 "--format", "json", "--per-query"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"metadata", "ranking", "per_query"} <= set(doc)
    assert doc["metadata"]["config"]["depth_n"] == 10
    assert len(doc["ranking"]) == 2
    assert doc["per_query"]["queries"] == ["q1"]


def test_output_file_and_determinism(corpus, tmp_path):
    runs, qrels = corpus
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    for out in (out1, out2):
        code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                     "--per-query", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_subcommand_pipeline(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    code = main(["synth", "--out-dir", str(corpus_dir), "--systems", "3",
                 "--queries", "2", "--depth", "30", "--relevant-per-query", "6",
                 "--shared-fraction", "0.5", "--unique-per-system", "1", "--seed", "9"])
    assert code == 0
    code = main(["--runs", str(corpus_dir / "runs.txt"),
                 "--qrels", str(corpus_dir / "qrels.txt"), "--depth", "30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sys00" in out


# SHA-256 of runs.txt and qrels.txt written by `noveval synth` with these options.
SYNTH_GOLDEN = [
    ([], "d908162153a13dda8181a66384f2006b968e47cda6ae4658ad65124555173e16",
     "954d09a00fe87993326f545b8e94903c52adb37bfbc16631eaeb24cb6618763f"),
    (["--designated-system", "1", "--ap-handicap"],
     "8c84befcb2429e8cc4ec3ea5bde45c6148a5adb801f623e7e0fcb3e4dada3acd",
     "4f27c962ceec116604d4f688cb58caa0bb632a4aae7ab4abfd9cd798d3f82e40"),
    (["--systems", "12", "--queries", "8", "--depth", "1000", "--relevant-per-query", "30"],
     "7251f852f92f97b1729bade867eda8e11f012e426594e1947692faf1c9c5d8bc",
     "34cc629be967a41026ea04aca4a76442f017fd5bc2b0edc204a912a8ced875d9"),
]


@pytest.mark.parametrize("options,runs_sha,qrels_sha", SYNTH_GOLDEN)
def test_synth_output_is_pinned(tmp_path, capsys, options, runs_sha, qrels_sha):
    assert main(["synth", "--out-dir", str(tmp_path), *options]) == 0
    assert hashlib.sha256((tmp_path / "runs.txt").read_bytes()).hexdigest() == runs_sha
    assert hashlib.sha256((tmp_path / "qrels.txt").read_bytes()).hexdigest() == qrels_sha


def test_grade_map_flag(tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_text(RUNS)
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d1 5\nq1 0 d2 5\n")
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                 "--grade-map", "r=5,p=1,i=0"])
    assert code == 0
    # unmapped grade is a configuration error
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"])
    assert code == 1


def test_epsilon_policy_flag(corpus):
    runs, qrels = corpus
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                 "--epsilon-policy", "custom:0.001"]) == 0
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                 "--epsilon-policy", "bogus"]) == 1


def _table():
    return RankingTable(rows=(
        RankingRow("1106", ap_score=0.21, utility_score=55.5, ap_rank=2, utility_rank=1),
        RankingRow("1144a", ap_score=0.31, utility_score=12.25, ap_rank=1, utility_rank=2),
    ))


class TestRenderRanking:
    def test_text_signed_differences(self):
        text = render_ranking(_table(), "text")
        row_1106 = next(l for l in text.splitlines() if l.startswith("1106"))
        assert "+1" in row_1106
        row_1144a = next(l for l in text.splitlines() if l.startswith("1144a"))
        assert "-1" in row_1144a

    def test_zero_difference_unsigned(self):
        table = RankingTable(rows=(
            RankingRow("a", 0.9, 9.0, ap_rank=1, utility_rank=1),
            RankingRow("b", 0.1, 1.0, ap_rank=2, utility_rank=2),
        ))
        text = render_ranking(table, "text")
        assert "+0" not in text

    def test_row_order_is_utility_rank(self):
        text = render_ranking(_table(), "text")
        lines = [l.split()[0] for l in text.splitlines()[1:]]
        assert lines == ["1106", "1144a"]

    def test_text_rounds_scores_csv_keeps_precision(self):
        table = RankingTable(rows=(
            RankingRow("a", 1 / 3, 2 / 3, ap_rank=1, utility_rank=1),
            RankingRow("b", 0.0, 0.0, ap_rank=2, utility_rank=2),
        ))
        assert "0.3333" in render_ranking(table, "text")
        assert repr(1 / 3) in render_ranking(table, "csv")

    def test_formats_carry_same_numbers(self):
        table = _table()
        text = render_ranking(table, "text")
        csv_out = render_ranking(table, "csv")
        doc = json.loads(render_ranking(table, "json"))["ranking"]
        for row in table.by_utility_rank():
            assert f"{row.ap_rank}" in text
            assert f"{row.system},{row.ap_rank},{row.utility_rank}" in csv_out
        assert [r["system"] for r in doc] == ["1106", "1144a"]
        assert doc[0]["difference"] == 1


class TestRenderPerQuery:
    def _matrix(self, queries):
        systems = ("sa", "sb")
        diffs = {(s, q): 0 for s in systems for q in queries}
        diffs[("sa", queries[0])] = -3
        diffs[("sb", queries[0])] = 3
        return PerQueryDiffMatrix(systems=systems, queries=tuple(queries), diffs=diffs)

    def test_common_prefix_abbreviated(self):
        text = render_per_query(self._matrix(["1007", "1008"]), "text")
        header = text.splitlines()[0].split()
        assert header == ["system", "07", "08"]

    def test_no_common_prefix_keeps_full_ids(self):
        text = render_per_query(self._matrix(["1007", "2007"]), "text")
        header = text.splitlines()[0].split()
        assert header == ["system", "1007", "2007"]

    def test_all_zero_matrix(self):
        matrix = PerQueryDiffMatrix(
            systems=("sa",), queries=("q1", "q2"),
            diffs={("sa", "q1"): 0, ("sa", "q2"): 0},
        )
        text = render_per_query(matrix, "text")
        assert text.splitlines()[1].split() == ["sa", "0", "0"]

    def test_json_keeps_full_query_ids(self):
        doc = json.loads(render_per_query(self._matrix(["1007", "1008"]), "json"))
        assert doc["queries"] == ["1007", "1008"]


@pytest.mark.parametrize(
    "queries,expected",
    [
        (["1007", "1008"], ["07", "08"]),
        (["1007", "2007"], ["1007", "2007"]),
        (["1007", "1008", "1107"], ["007", "008", "107"]),
        (["q1"], ["q1"]),
    ],
)
def test_abbreviate_queries(queries, expected):
    assert abbreviate_queries(queries) == expected


def _single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ")
    return lines[0]


def test_non_utf8_run_file_names_file_and_line(tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_bytes(RUNS.encode() + b"q1 0 d\xff9 3 0.7 s1\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "runs.txt: line 5: not valid UTF-8" in line


def test_non_utf8_qrels_file_names_file(corpus, tmp_path, capsys):
    runs, _ = corpus
    qrels = tmp_path / "latin1-qrels.txt"
    qrels.write_bytes("q1 0 d1 2\nq1 0 dé2 2\n".encode("latin-1"))
    code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "latin1-qrels.txt: line 2: not valid UTF-8" in line


def test_runs_directory_validation_error_names_file(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "s1.txt").write_text("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n")
    (runs_dir / "s2.txt").write_text("q1 0 d2 1 0.9 s2\nq1 0 d2 2 0.8 s2\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    code = main(["--runs", str(runs_dir), "--qrels", str(qrels), "--depth", "10"])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "s2.txt: duplicate document 'd2'" in line
    assert "(line 2)" in line


def test_runs_directory_rank_error_names_files(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    (runs_dir / "a.txt").write_text("q1 0 d1 1 0.9 s1\nq1 0 d2 3 0.8 s1\n")
    (runs_dir / "b.txt").write_text("q1 0 d1 1 0.9 s2\nq1 0 d2 2 0.8 s2\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    argv = ["--runs", str(runs_dir), "--qrels", str(qrels), "--depth", "10"]
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr().err) == (
        "error: a.txt: ranks for system 's1', query 'q1' are not contiguous 1..2 (missing [2])"
    )
    # One group split across two files names both, in file order.
    (runs_dir / "c.txt").write_text("q1 0 d3 4 0.1 s2\n")
    (runs_dir / "a.txt").write_text("q1 0 d1 1 0.9 s1\n")
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr().err) == (
        "error: b.txt, c.txt: ranks for system 's2', query 'q1' are not contiguous 1..3 (missing [3])"
    )


def test_one_row_ranking_rejected_without_assert():
    one_row = RankingTable(rows=(RankingRow("a", 0.5, 1.0, ap_rank=1, utility_rank=1),))
    with pytest.raises(ValidationError, match="at least 2 systems"):
        render_ranking(one_row, "text")
    # The check must survive `python -O`, which strips assert statements.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "from noveval import RankingRow, RankingTable, ValidationError\n"
        "from noveval.cli import render_ranking\n"
        "t = RankingTable(rows=(RankingRow('a', 0.5, 1.0, ap_rank=1, utility_rank=1),))\n"
        "try:\n"
        "    render_ranking(t, 'text')\n"
        "except ValidationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def test_qrels_errors_name_the_file(corpus, tmp_path, capsys):
    runs, _ = corpus
    qrels = tmp_path / "short-qrels.txt"
    qrels.write_text("q1 0 d1 2\nq1 0 d2\n")
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line == "error: short-qrels.txt: line 2: expected 4 whitespace-separated fields, got 3"
    qrels.write_text("q1 0 d1 7\n")
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith("error: short-qrels.txt: line 1: grade value 7 has no mapping")
    qrels.write_text("q1 0 d1 2\nq1 0 d1 0\n")
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith("error: short-qrels.txt: conflicting grades")


def test_five_then_seven_fields_names_the_first_line(tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_text("q1 0 d1 1 0.9\nq1 0 d2 2 0.8 s1 extra\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line == "error: runs.txt: line 1: expected 6 whitespace-separated fields, got 5"


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    reports = []
    for bom in ("", "\ufeff"):
        runs = tmp_path / f"runs{len(bom)}.txt"
        qrels = tmp_path / f"qrels{len(bom)}.txt"
        runs.write_text(bom + RUNS, encoding="utf-8")
        qrels.write_text(bom + QRELS, encoding="utf-8")
        code = main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10",
                     "--format", "json", "--per-query"])
        assert code == 0, capsys.readouterr().err
        doc = json.loads(capsys.readouterr().out)
        del doc["metadata"]["inputs"]  # the digests cover the mark
        reports.append(doc)
    assert reports[0] == reports[1]
    assert reports[1]["per_query"]["queries"] == ["q1"]


def test_grade_value_mapped_twice_rejected(corpus, capsys):
    runs, qrels = corpus
    argv = ["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]
    assert main(argv + ["--grade-map", "r=2,p=2,i=0"]) == 1
    assert _single_error_line(capsys.readouterr().err) == (
        "error: grade value 2 is mapped twice in grade map 'r=2,p=2,i=0'"
    )
    assert main(argv + ["--grade-map", "r=2,p=1,i=0"]) == 0


def _late_non_utf8() -> bytes:
    """A run file whose first byte that is not UTF-8 comes after the first 64 KiB."""
    head = RUNS + "".join(f"q2 0 d{r} {r} 0.5 s1\n" for r in range(1, 4001))
    assert len(head) > 1 << 16
    return head.encode() + b"q2 0 d\xff 4001 0.1 s1\n"


@pytest.mark.parametrize(
    "content,code",
    [
        pytest.param(RUNS.replace("d3", "d\x003").encode(), 0, id="nul_in_token"),
        pytest.param((RUNS + f"q1 0 d9 {'7' * 5000} 0.1 s1\n").encode(), 1, id="huge_rank"),
        pytest.param(RUNS.replace("0.8 s1", "inf s1").encode(), 1, id="inf_score"),
        pytest.param(RUNS.replace("0.8 s1", "nan s1").encode(), 1, id="nan_score"),
        pytest.param(b"\xef\xbb\xbf", 1, id="bom_only"),
        pytest.param(b"", 1, id="empty"),
        pytest.param(RUNS.replace("\n", "\r\n").encode(), 0, id="crlf"),
        pytest.param(_late_non_utf8(), 1, id="late_non_utf8"),
        pytest.param(None, 0, id="directory"),
    ],
)
def test_odd_run_inputs_end_without_traceback(tmp_path, capsys, content, code):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(QRELS)
    if content is None:
        # A runs directory holding a sub-directory and a dangling symlink besides its files.
        runs = tmp_path / "runs"
        (runs / "sub").mkdir(parents=True)
        (runs / "sub" / "s9.txt").write_text("q1 0 d1 1 0.9 s9\n")
        (runs / "dangling.txt").symlink_to(tmp_path / "missing.txt")
        (runs / "s1.txt").write_text(RUNS)
    else:
        runs = tmp_path / "runs.txt"
        runs.write_bytes(content)
    assert main(["--runs", str(runs), "--qrels", str(qrels), "--depth", "10"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    messages = [l for l in err.splitlines() if l.startswith(("error: ", "I/O error: "))]
    assert len(messages) == (code != 0) and len(err.splitlines()) == len(messages), err
