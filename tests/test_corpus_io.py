import io
import json
import random
from pathlib import Path

import pytest

from noveval import (
    JudgmentSet,
    ParseError,
    Relevance,
    RunEntry,
    RunSet,
    ValidationError,
    load_runs,
    parse_judgments,
    parse_run_file,
    write_judgments,
    write_run_file,
)
from noveval import corpus_io
from noveval.cli import main
from noveval.errors import ConfigError

RUN_FRAGMENT = """\
1007 0 940228106 1 0.306856 1106
1007 0 940110130 2 0.246505 1106
1007 0 950106119 3 0.237173 1106
1007 0 940131126 4 0.236115 1106
1007 0 940614009 5 0.223313 1106
1007 0 940614002 6 0.222998 1106
1007 0 941107114 7 0.217324 1106
1007 0 940428222 8 0.215979 1106
"""

def test_parse_run_line():
    runs = parse_run_file(io.StringIO("1007 0 940228106 1 0.306856 1106\n"))
    [entry] = runs.entries()
    assert entry == RunEntry(
        query="1007", doc="940228106", rank=1, score=0.306856, system="1106"
    )


def test_parse_run_fragment():
    runs = parse_run_file(io.StringIO(RUN_FRAGMENT))
    assert runs.systems() == ["1106"]
    assert runs.queries() == ["1007"]
    assert len(runs) == 8
    assert runs.ranking("1106", "1007")["940428222"] == 8


def test_empty_stream_gives_empty_runset():
    runs = parse_run_file(io.StringIO(""))
    assert len(runs) == 0
    assert runs.systems() == []


def test_non_integer_rank_names_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_run_file(io.StringIO("1007 0 940228106 one 0.3 1106\n"))


def test_bad_column_count_names_line():
    stream = io.StringIO("1007 0 940228106 1 0.3 1106\n1007 0 d2 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_run_file(stream)


def test_non_numeric_score_rejected():
    with pytest.raises(ParseError, match="score"):
        parse_run_file(io.StringIO("1007 0 d1 1 abc 1106\n"))


def test_non_finite_score_rejected():
    with pytest.raises(ParseError, match="finite"):
        parse_run_file(io.StringIO("1007 0 d1 1 inf 1106\n"))


def test_duplicate_document_rejected():
    stream = io.StringIO("1007 0 d1 1 0.9 s1\n1007 0 d1 2 0.8 s1\n")
    with pytest.raises(ValidationError, match="duplicate document"):
        parse_run_file(stream)


def test_duplicate_rank_rejected():
    stream = io.StringIO("1007 0 d1 1 0.9 s1\n1007 0 d2 1 0.8 s1\n")
    with pytest.raises(ValidationError, match="duplicate rank"):
        parse_run_file(stream)


def test_rank_gap_rejected():
    stream = io.StringIO("1007 0 d1 1 0.9 s1\n1007 0 d2 3 0.8 s1\n")
    with pytest.raises(ValidationError, match="not contiguous"):
        parse_run_file(stream)


def test_comments_and_blank_lines_skipped():
    stream = io.StringIO("# a fixture\n\n1007 0 d1 1 0.9 s1\n")
    assert len(parse_run_file(stream)) == 1


def test_multiple_systems_in_one_file():
    stream = io.StringIO("1007 0 d1 1 0.9 s1\n1007 0 d1 1 0.8 s2\n")
    runs = parse_run_file(stream)
    assert runs.systems() == ["s1", "s2"]


def test_strict_scores_mode():
    stream = io.StringIO("1007 0 d1 1 0.1 s1\n1007 0 d2 2 0.9 s1\n")
    with pytest.raises(ValidationError, match="strict"):
        parse_run_file(stream, strict_scores=True)
    stream.seek(0)
    assert len(parse_run_file(stream)) == 2  # lenient by default


def test_run_round_trip_fig_fragment():
    runs = parse_run_file(io.StringIO(RUN_FRAGMENT))
    sink = io.StringIO()
    write_run_file(runs, sink)
    assert parse_run_file(io.StringIO(sink.getvalue())) == runs


def test_run_round_trip_randomized():
    rng = random.Random(42)
    entries = []
    for system in ("alpha", "beta"):
        for query in ("q1", "q2", "q3"):
            docs = rng.sample(range(1000), rng.randint(1, 30))
            for rank, doc in enumerate(docs, start=1):
                score = round(rng.random(), 6)
                entries.append(RunEntry(query, f"d{doc}", rank, score, system))
    runs = RunSet(entries)
    sink = io.StringIO()
    write_run_file(runs, sink)
    assert parse_run_file(io.StringIO(sink.getvalue())) == runs


@pytest.mark.parametrize("value", ["", "a\tb", "\t", "a\u00a0b", "a\u2003b", "d42"])
def test_token_check_rejects_empty_and_any_whitespace(value):
    valid = bool(value) and not any(ch.isspace() for ch in value)
    assert valid == (value == "d42")
    if valid:
        assert corpus_io._check_token(value, "doc id") == value
    else:
        with pytest.raises(ValidationError, match="doc id must be a non-empty token"):
            corpus_io._check_token(value, "doc id")


def test_write_empty_runset():
    sink = io.StringIO()
    write_run_file(RunSet([]), sink)
    assert sink.getvalue() == ""


def test_parse_judgments_basic():
    js = parse_judgments(io.StringIO("1001 0 940228106 2\n"))
    assert js.grade("1001", "940228106") is Relevance.RELEVANT
    assert js.relevant_docs("1001") == {"940228106"}


def test_judgment_duplicate_same_grade_ok():
    js = parse_judgments(io.StringIO("1001 0 d1 2\n1001 0 d1 2\n"))
    assert len(js) == 1


def test_judgment_conflicting_grades_rejected():
    with pytest.raises(ValidationError, match="conflicting"):
        parse_judgments(io.StringIO("1001 0 d1 2\n1001 0 d1 0\n"))


def test_judgment_unmapped_grade_rejected():
    with pytest.raises(ConfigError, match="no mapping"):
        parse_judgments(io.StringIO("1001 0 d1 3\n"))


def test_judgment_round_trip():
    js = parse_judgments(io.StringIO("1001 0 d1 2\n1001 0 d2 1\n1002 0 d1 0\n"))
    sink = io.StringIO()
    write_judgments(js, sink)
    assert parse_judgments(io.StringIO(sink.getvalue())) == js


def test_relevant_docs_partial_flag():
    js = parse_judgments(io.StringIO("q 0 d1 2\nq 0 d2 1\nq 0 d3 0\n"))
    assert js.relevant_docs("q") == {"d1"}
    assert js.relevant_docs("q", include_partial=True) == {"d1", "d2"}


def test_judgmentset_absent_means_unjudged():
    js = JudgmentSet({})
    assert js.grade("q", "d") is None
    assert js.relevant_docs("q") == set()


# Columnar fast path of load_runs against the line parser


def _corpus_lines(seed: int = 7) -> list[str]:
    """Canonical run lines: 4 systems x 3 queries, groups in rank order."""
    rng = random.Random(seed)
    entries = []
    for system in ("s0", "s1", "s2", "s3"):
        for query in ("q0", "q1", "q2"):
            docs = rng.sample(range(200), rng.randint(1, 40))
            score = 1.0
            for rank, doc in enumerate(docs, start=1):
                score = round(score * rng.uniform(0.8, 1.0), 6)
                entries.append(RunEntry(query, f"d{doc}", rank, score, system))
    sink = io.StringIO()
    write_run_file(RunSet(entries), sink)
    return sink.getvalue().splitlines(keepends=True)


def _write_forms(tmp_path, lines: list[str]) -> dict:
    """The same runs as one canonical file and in five other layouts."""
    forms = {}
    canonical = tmp_path / "canonical.txt"
    canonical.write_text("".join(lines))
    forms["canonical"] = canonical

    shuffled = list(lines)
    random.Random(3).shuffle(shuffled)
    forms["shuffled"] = tmp_path / "shuffled.txt"
    forms["shuffled"].write_text("".join(shuffled))

    commented = ["# a comment line\n"] + lines[:10] + ["\n", "   \n"] + lines[10:]
    forms["commented"] = tmp_path / "commented.txt"
    forms["commented"].write_text("".join(commented))

    per_system = tmp_path / "per_system"
    per_system.mkdir()
    for system in ("s0", "s1", "s2", "s3"):
        own = [line for line in lines if line.split()[5] == system]
        (per_system / f"{system}.txt").write_text("".join(own))
    forms["per_system"] = per_system

    # One file per system; only the last one starts with a comment line.
    last_commented = tmp_path / "per_system_last_commented"
    last_commented.mkdir()
    for path in per_system.iterdir():
        text = path.read_text()
        if path.name == "s3.txt":
            text = "# a comment\n" + text
        (last_commented / path.name).write_text(text)
    forms["per_system_last_commented"] = last_commented

    # The group (s1, q1) continues from a.txt into b.txt.
    split = tmp_path / "split_group"
    split.mkdir()
    group = [i for i, line in enumerate(lines) if line.split()[::5] == ["q1", "s1"]]
    assert len(group) >= 2
    cut = group[len(group) // 2]
    tail = lines[cut:group[-1] + 1]
    (split / "a.txt").write_text("".join(lines[:cut] + lines[group[-1] + 1:]))
    (split / "b.txt").write_text("".join(tail))
    forms["split_group"] = split
    return forms


def _report(runs_path, qrels_path, out_path) -> dict:
    code = main(["--runs", str(runs_path), "--qrels", str(qrels_path), "--depth", "30",
                 "--format", "json", "--per-query", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    del doc["metadata"]["inputs"]  # file digests differ between layouts
    return doc


def _refuse_line_parser(monkeypatch):
    def refuse(stream):
        raise AssertionError("the line parser ran on an input the fast path should take")

    monkeypatch.setattr(corpus_io, "iter_run_entries", refuse)


def test_fast_path_equals_line_parser_in_every_layout(tmp_path):
    lines = _corpus_lines()
    forms = _write_forms(tmp_path, lines)
    reference = parse_run_file(io.StringIO("".join(lines)))
    qrels = tmp_path / "qrels.txt"
    docs = sorted({line.split()[2] for line in lines})
    qrels.write_text("".join(
        f"{q} 0 {d} 2\n" for q in ("q0", "q1", "q2") for d in random.Random(5).sample(docs, 25)
    ))
    expected = _report(forms["canonical"], qrels, tmp_path / "canonical.json")
    for name, path in forms.items():
        assert load_runs(path) == reference, name
        assert _report(path, qrels, tmp_path / f"{name}.json") == expected, name


def test_canonical_layouts_skip_the_line_parser(tmp_path, monkeypatch):
    lines = _corpus_lines()
    forms = _write_forms(tmp_path, lines)
    reference = parse_run_file(io.StringIO("".join(lines)))
    _refuse_line_parser(monkeypatch)
    assert load_runs(forms["canonical"]) == reference
    assert load_runs(forms["per_system"]) == reference


def _record_line_parser(monkeypatch) -> list[str]:
    """Let the line parser run, recording the name of each file it reads."""
    parsed = []
    line_parser = corpus_io.iter_run_entries

    def recording(stream):
        parsed.append(Path(stream.name).name)
        return line_parser(stream)

    monkeypatch.setattr(corpus_io, "iter_run_entries", recording)
    return parsed


@pytest.mark.parametrize(
    "form,slow_files",
    [("per_system_last_commented", ["s3.txt"]), ("split_group", ["b.txt"])],
)
def test_only_the_file_that_misses_reaches_the_line_parser(
    tmp_path, monkeypatch, form, slow_files
):
    lines = _corpus_lines()
    forms = _write_forms(tmp_path, lines)
    reference = parse_run_file(io.StringIO("".join(lines)))
    parsed = _record_line_parser(monkeypatch)
    assert load_runs(forms[form]) == reference
    assert parsed == slow_files


def test_group_read_by_the_line_parser_sends_later_files_to_it(tmp_path, monkeypatch):
    # a.txt holds ranks 2-3 (not rank 1 first: line parser); b.txt holds rank 1 of
    # the same group, which the fast path alone would accept.
    (tmp_path / "a.txt").write_text("q1 0 d2 2 0.8 s1\nq1 0 d3 3 0.7 s1\n")
    (tmp_path / "b.txt").write_text("q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\n")
    parsed = _record_line_parser(monkeypatch)
    runs = load_runs(tmp_path)
    assert parsed == ["a.txt", "b.txt"]
    assert runs.ranking("s1", "q1") == {"d1": 1, "d2": 2, "d3": 3}
    assert runs.ranking("s1", "q2") == {"d1": 1}


def test_errors_keep_file_order_across_both_paths(tmp_path):
    # Both groups are broken once merged; the first in file order is reported,
    # although its fast-path half comes from a file read before the line parser ran.
    (tmp_path / "a.txt").write_text("q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\n")
    (tmp_path / "b.txt").write_text("# c\nq2 0 d2 3 0.8 s1\nq1 0 d1 2 0.8 s1\n")
    with pytest.raises(ValidationError) as info:
        load_runs(tmp_path)
    assert str(info.value) == "a.txt, b.txt: duplicate document 'd1' for system 's1', query 'q1'"


@pytest.mark.parametrize("chunk_chars", [1, 40, 333, 1000])
def test_groups_straddling_chunk_boundaries(tmp_path, monkeypatch, chunk_chars):
    lines = _corpus_lines(seed=chunk_chars)
    path = tmp_path / "runs.txt"
    path.write_text("".join(lines))
    assert path.stat().st_size > 4 * chunk_chars  # several chunks, groups cut mid-way
    reference = parse_run_file(io.StringIO("".join(lines)))
    _refuse_line_parser(monkeypatch)
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    runs = load_runs(path)
    assert runs == reference
    assert list(runs.entries()) == list(reference.entries())


def test_strict_scores_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "runs.txt"
    path.write_text("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.9 s1\nq1 0 d3 3 0.1 s1\n")
    _refuse_line_parser(monkeypatch)
    assert len(load_runs(path, strict_scores=True)) == 3


@pytest.mark.parametrize(
    "text",
    [
        "q1 0 d1 01 0.9 s1\nq1 0 d2 +2 0.8 s1\n",  # ranks int() accepts
        "q1 0 d1 1 0.9 s1\r\nq1 0 d2 2 0.8 s1\r\n",  # CRLF
        "q1 0 d1 1 0.9 s1\rq1 0 d2 2 0.8 s1\r",  # lone CR
        "\ufeffq1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",  # byte-order mark
        "# c 0 d 1 0.5 s\nq1 0 d1 1 0.9 s1\n",  # 6-token comment line
        "q1 0 d1 1 0.9 s1\n\nq1 0 d2 2 0.8 s1\n",  # blank line inside a group
        "q1 0 d2 2 0.8 s1\nq1 0 d1 1 0.9 s1\n",  # lines out of rank order
        "q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",  # group reappears
        "q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1",  # no final newline
    ],
)
def test_valid_edge_files_load_as_the_line_parser_reads_them(tmp_path, text):
    path = tmp_path / "runs.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8-sig") as fh:
        reference = parse_run_file(fh)
    assert len(reference) >= 1
    assert load_runs(path) == reference


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("q1 0 d1 1 0.9\nq1 0 d2 2 0.8 s1 x\n", ParseError,
         "runs.txt: line 1: expected 6 whitespace-separated fields, got 5"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 3 0.8 s1\n", ValidationError,
         "runs.txt: ranks for system 's1', query 'q1' are not contiguous 1..2 (missing [2])"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 2 0.8 s1\n", ValidationError,
         "runs.txt: duplicate document 'd1' for system 's1', query 'q1' (line 2)"),
        ("q1 0 d1 1 nan s1\n", ParseError, "runs.txt: line 1: score is not finite: 'nan'"),
        ("q1 0 d1 1 0.9 s1\nq2 0 d2 2 0.8 s1\n", ValidationError,
         "runs.txt: ranks for system 's1', query 'q2' are not contiguous 1..1 (missing [1])"),
        ("q1 0 d1 one 0.9 s1\n", ParseError, "runs.txt: line 1: rank is not an integer: 'one'"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 1 0.8 s1\n", ValidationError,
         "runs.txt: duplicate rank 1 for system 's1', query 'q1'"),
    ],
)
def test_invalid_files_fail_as_the_line_parser_says(tmp_path, text, error, message):
    path = tmp_path / "runs.txt"
    path.write_text(text)
    with pytest.raises(error) as info:
        load_runs(path)
    assert str(info.value) == message


def test_strict_scores_error_comes_from_the_line_parser(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text("q1 0 d1 1 0.1 s1\nq1 0 d2 2 0.9 s1\n")
    with pytest.raises(ValidationError, match="score increases from rank 1 to 2"):
        load_runs(path, strict_scores=True)
    assert len(load_runs(path)) == 2
