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


# The run reader of load_runs against one canonical file and the entries that made it


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


@pytest.mark.parametrize(
    "form",
    ["canonical", "shuffled", "commented", "per_system", "per_system_last_commented",
     "split_group"],
)
def test_each_run_file_is_opened_once(tmp_path, monkeypatch, form):
    lines = _corpus_lines()
    path = _write_forms(tmp_path, lines)[form]
    reference = parse_run_file(io.StringIO("".join(lines)))
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    assert load_runs(path) == reference
    files = sorted(p.name for p in path.iterdir()) if path.is_dir() else [path.name]
    assert opened == files


def test_group_read_by_the_line_parser_sends_later_files_to_it(tmp_path):
    # a.txt holds ranks 2-3 of a group whose rank 1 comes later, in b.txt.
    (tmp_path / "a.txt").write_text("q1 0 d2 2 0.8 s1\nq1 0 d3 3 0.7 s1\n")
    (tmp_path / "b.txt").write_text("q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\n")
    runs = load_runs(tmp_path)
    assert runs.ranking("s1", "q1") == {"d1": 1, "d2": 2, "d3": 3}
    assert runs.ranking("s1", "q2") == {"d1": 1}


def test_errors_keep_file_order_across_both_paths(tmp_path):
    # Both groups are broken once merged; the one that appears first is reported.
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
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    runs = load_runs(path)
    assert runs == reference
    assert list(runs.entries()) == list(reference.entries())
    # A group in rank order arrives whole, as one segment, however the chunks cut it.
    segments = {}
    with open(path) as fh:
        corpus_io._read_runs(fh, segments, 0)
    assert [len(segs) for segs in segments.values()] == [1] * 12


def test_strict_scores_fast_path(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.9 s1\nq1 0 d3 3 0.1 s1\n")
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
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 0 0.8 s1\n", ParseError,
         "runs.txt: line 2: rank must be >= 1, got 0"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 1 0.8 s1\n", ValidationError,
         "runs.txt: duplicate rank 1 for system 's1', query 'q1'"),
        # One line repeated verbatim: its document, not its rank, is reported.
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s1\n", ValidationError,
         "runs.txt: duplicate document 'd1' for system 's1', query 'q1' (line 2)"),
        # Skipped lines before the second copy count in its line number.
        ("# c\nq1 0 d1 1 0.9 s1\n\nq1 0 d1 2 0.8 s1\n", ValidationError,
         "runs.txt: duplicate document 'd1' for system 's1', query 'q1' (line 4)"),
        # A group split across two files, with a document twice inside the second.
        ({"a.txt": "q1 0 d1 1 0.9 s1\n",
          "b.txt": "q1 0 d2 2 0.8 s1\nq2 0 d9 1 0.9 s1\nq1 0 d2 3 0.7 s1\n"},
         ValidationError, "b.txt: duplicate document 'd2' for system 's1', query 'q1' (line 3)"),
        # Entries come from no file: the message names neither file nor line.
        ([RunEntry("q1", "d1", 1, 0.9, "s1"), RunEntry("q1", "d1", 2, 0.8, "s1")],
         ValidationError, "duplicate document 'd1' for system 's1', query 'q1'"),
    ],
)
def test_invalid_files_fail_as_the_line_parser_says(tmp_path, text, error, message):
    """`text` is one run file's text, a runs directory as {name: text}, or RunSet entries."""
    if isinstance(text, list):
        load = lambda: RunSet(text)
    elif isinstance(text, dict):
        for name, content in text.items():
            (tmp_path / name).write_text(content)
        load = lambda: load_runs(tmp_path)
    else:
        (tmp_path / "runs.txt").write_text(text)
        load = lambda: load_runs(tmp_path / "runs.txt")
    with pytest.raises(error) as info:
        load()
    assert str(info.value) == message


def test_strict_scores_error_comes_from_the_line_parser(tmp_path):
    path = tmp_path / "runs.txt"
    path.write_text("q1 0 d1 1 0.1 s1\nq1 0 d2 2 0.9 s1\n")
    with pytest.raises(ValidationError, match="score increases from rank 1 to 2"):
        load_runs(path, strict_scores=True)
    assert len(load_runs(path)) == 2


def _random_entries(rng: random.Random) -> list[RunEntry]:
    """Groups of random depth with non-increasing scores (ties included)."""
    entries = []
    for system in rng.sample(["s0", "s1", "s2", "s3"], rng.randint(2, 4)):
        for query in rng.sample(["q0", "q1", "q2"], rng.randint(1, 3)):
            score = rng.random()
            for rank, doc in enumerate(rng.sample(range(60), rng.randint(1, 20)), start=1):
                score = score if rng.random() < 0.2 else score * rng.random()
                entries.append(RunEntry(query, f"d{doc}", rank, score, system))
    return entries


def _run_lines(entries: list[RunEntry]) -> list[str]:
    return [f"{e.query} 0 {e.doc} {e.rank} {e.score!r} {e.system}" for e in entries]


def _random_layout(rng: random.Random, entries: list[RunEntry]) -> list[str]:
    """The entries as the texts of 1-4 run files: lines maybe shuffled, skipped lines, CRLF."""
    lines = _run_lines(entries)
    if rng.random() < 0.5:
        rng.shuffle(lines)
    for _ in range(rng.choice([0, 0, 1, 5])):
        skipped = rng.choice(["", "   ", "# a comment", "#q0 0 d1 1 0.5 s0", "  # indented"])
        lines.insert(rng.randint(0, len(lines)), skipped)
    cuts = sorted(rng.sample(range(1, len(lines)), min(rng.randint(0, 3), len(lines) - 1)))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return ["".join(line + end for line in lines[a:b])
            for a, b in zip([0, *cuts], [*cuts, len(lines)])]


def test_every_layout_loads_as_the_entries_that_made_it(tmp_path, monkeypatch):
    rng = random.Random(2024)
    for case in range(200):
        entries = _random_entries(rng)
        texts = _random_layout(rng, entries)
        chunk_chars = rng.choice([1, 40, 333, 1 << 16])
        monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
        runs_dir = tmp_path / f"layout{case}"
        runs_dir.mkdir()
        for i, text in enumerate(texts):
            (runs_dir / f"part{i}.txt").write_bytes(text.encode())
        path = runs_dir if len(texts) > 1 else runs_dir / "part0.txt"
        expected = RunSet(entries)
        assert load_runs(path) == expected, (case, chunk_chars, texts)
        if case < 4:  # the CLI report is equal apart from the input digests
            docs = sorted({e.doc for e in entries})
            qrels = tmp_path / f"qrels{case}.txt"
            qrels.write_text("".join(f"{q} 0 {d} 2\n" for q in ("q0", "q1", "q2")
                                     for d in rng.sample(docs, min(8, len(docs)))))
            canonical = tmp_path / f"canonical{case}.txt"
            canonical.write_text("".join(line + "\n" for line in _run_lines(entries)))
            assert _report(path, qrels, tmp_path / f"layout{case}.json") == _report(
                canonical, qrels, tmp_path / f"canonical{case}.json"), case
