import hashlib
import io
import json
import random
import tracemalloc
from array import array
from itertools import combinations, compress, cycle, groupby
from pathlib import Path

import pytest

from noveval import (
    JudgmentSet,
    ParseError,
    Relevance,
    RunEntry,
    RunSet,
    ValidationError,
    load_judgments,
    load_runs,
    parse_judgments,
    parse_run_file,
    write_judgments,
    write_run_file,
)
from noveval import corpus_io
from noveval.cli import main
from noveval.errors import ConfigError
from noveval.synth import SyntheticSpec, generate


def _judged_rows(runs: RunSet, judgments: JudgmentSet) -> RunSet:
    """`runs` with only each group's rows of documents that `judgments` grades relevant or
    partially relevant, as `load_runs(..., judged=judgments)` keeps them."""
    groups = {}
    for (system, query), (docs, ranks, scores) in runs._groups.items():
        kept = [judgments.grade(query, doc) not in (None, Relevance.IRRELEVANT) for doc in docs]
        groups[(system, query)] = tuple(
            tuple(compress(column, kept)) for column in (docs, ranks, scores))
    return RunSet._from_columns(groups)


def _graded(entries: list[RunEntry]) -> JudgmentSet:
    """Relevant, irrelevant and partially relevant grades in turn for the entries' documents."""
    grades = cycle([Relevance.RELEVANT, Relevance.IRRELEVANT, Relevance.PARTIALLY_RELEVANT])
    return JudgmentSet({(e.query, e.doc): grade for e, grade in zip(entries, grades)})


def _load_both(path, judgments: JudgmentSet, strict_scores: bool = False) -> RunSet:
    """Load `path` whole and judged; the judged load must keep the judged rows of the whole
    one, or fail with the same error."""
    try:
        runs = load_runs(path, strict_scores)
    except (ParseError, ValidationError) as exc:
        with pytest.raises(type(exc)) as info:
            load_runs(path, strict_scores, judged=judgments)
        assert str(info.value) == str(exc)
        raise
    assert load_runs(path, strict_scores, judged=judgments) == _judged_rows(runs, judgments)
    return runs


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
    assert runs.__eq__(entries) is NotImplemented


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


def test_judgment_comments_and_blank_lines_are_skipped():
    text = "# judged by hand\n\nq1 0 d1 2\n   \n\t\nq1 0 d2 1\n"
    assert parse_judgments(io.StringIO(text)) == parse_judgments(
        io.StringIO("q1 0 d1 2\nq1 0 d2 1\n"))
    # A bad line after skipped ones still names its own line number.
    with pytest.raises(ParseError) as info:
        parse_judgments(io.StringIO(text + "# x\n\nq1 0 d3 two\n"))
    assert str(info.value) == "line 9: grade is not an integer: 'two'"


@pytest.mark.parametrize(
    "read,text",
    [(parse_judgments, "q 0 d1 2\n\nq 0 d\udcff 2\n"),
     (parse_run_file, "q 0 d1 1 0.5 s\n\nq 0 d\udcff 2 0.4 s\n")],
    ids=["judgments", "runs"],
)
@pytest.mark.parametrize("chunk_chars", [1, 7, 1 << 16])
def test_lone_surrogate_in_a_stream_names_its_line(monkeypatch, read, text, chunk_chars):
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    with pytest.raises(ParseError) as info:
        read(io.StringIO(text))
    assert str(info.value) == "line 3: not encodable as UTF-8 (surrogates not allowed)"


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
    # Both files of split_group hold the group that crosses them, so both are read
    # again, once each, for its check; every other layout reads each file once.
    assert opened == (files + files if form == "split_group" else files)


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
    assert str(info.value) == ("a.txt, b.txt: duplicate document 'd1' for system 's1', "
                               "query 'q1' (b.txt line 3)")


def _write_dir(path: Path, texts: dict[str, str]) -> Path:
    path.mkdir()
    for name, text in texts.items():
        (path / name).write_text(text)
    return path


def _located(texts: dict[str, str], doc: str, rank: int) -> tuple[int, str, int]:
    """(file position, file name, line) of the (s1, q1) row of `doc` at `rank` in `texts`."""
    for position, (name, text) in enumerate(texts.items()):
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.split()[::5] == ["q1", "s1"] and line.split()[2:4] == [doc, str(rank)]:
                return position, name, lineno
    raise AssertionError(f"no row of {doc} at rank {rank}")


@pytest.mark.parametrize("chunk_chars", [1, 40, 1 << 16])
@pytest.mark.parametrize("n_files", [2, 3])
def test_group_split_across_files_at_every_rank(tmp_path, monkeypatch, n_files, chunk_chars):
    """The group (s1, q1) cut into n_files pieces at every rank, one piece a file, in rank
    order or reversed, beside groups that each lie in one file: whole and judged, each
    layout loads as the entries that made it. With the document of rank 1 at rank 6 too,
    or rank 1 twice, the error names the group's files and the file and line of the row
    that repeats it: the later rank's copy of the document, the later copy of the rank
    in file order."""
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    split = [RunEntry("q1", f"d{r}", r, 1.0 - r / 10, "s1") for r in range(1, 7)]
    others = [[RunEntry(q, f"d{r}", r, 1.0 - r / 10, s) for r in range(1, 4)]
              for s, q in (("s0", "q1"), ("s1", "q2"), ("s2", "q1"))]
    expected = RunSet(split + [e for group in others for e in group])
    judgments = _graded(split[::2] + others[0])
    layouts = 0
    files = ", ".join(f"f{i}.txt" for i in range(n_files))
    faults = {  # fault -> ((s1, q1) row at rank 6, message, where the repeating row lies)
        "document": (split[5]._replace(doc="d1"), f"duplicate document 'd1' {_GROUP}",
                     lambda texts: _located(texts, "d1", 6)),
        "rank": (split[5]._replace(rank=1), f"duplicate rank 1 {_GROUP}",
                 lambda texts: max(_located(texts, "d1", 1), _located(texts, "d6", 1))),
    }
    for cuts in combinations(range(1, len(split)), n_files - 1):
        for fault in (None, *faults):
            rows = split if fault is None else split[:5] + [faults[fault][0]]
            pieces = [rows[a:b] for a, b in zip((0, *cuts), (*cuts, len(rows)))]
            for order in (pieces, pieces[::-1]):
                texts = {f"f{i}.txt": "".join(line + "\n" for line in _run_lines(
                    piece + [e for group in others[i::n_files] for e in group]))
                    for i, piece in enumerate(order)}
                path = _write_dir(tmp_path / f"layout{layouts}", texts)
                layouts += 1
                if fault is None:
                    assert _load_both(path, judgments) == expected, texts
                    continue
                with pytest.raises(ValidationError) as info:
                    _load_both(path, judgments)
                _, name, line = faults[fault][2](texts)
                assert str(info.value) == f"{files}: {faults[fault][1]} ({name} line {line})"


@pytest.mark.parametrize("chunk_chars", [40, 1 << 15])
def test_groups_cut_across_files_at_random_lines_load_as_one_file(tmp_path, monkeypatch,
                                                                   chunk_chars):
    """A synth corpus's lines cut at random line numbers into 2-4 files, in order and
    reversed: the whole load reads as the one file does, and the judged load keeps its
    judged rows. Odd cases cut the whole text; even cases cut every group apart, piece k of
    each in file k, so every group crosses files and starts past rank 1 in most of them."""
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    rng = random.Random(26)
    for case in range(8):
        runs, judgments = generate(SyntheticSpec(3, 2, 30, 6, 0.5, 1, seed=case))
        sink = io.StringIO()
        write_run_file(runs, sink)
        lines = sink.getvalue().splitlines(keepends=True)
        units = [lines] if case % 2 else [
            list(group) for _, group in groupby(lines, key=lambda line: line.split()[::5])]
        pieces = [[] for _ in range(rng.randint(2, 4))]
        for unit in units:
            cuts = sorted(rng.choices(range(len(unit) + 1), k=len(pieces) - 1))
            for piece, a, b in zip(pieces, [0, *cuts], [*cuts, len(unit)]):
                piece.extend(unit[a:b])
        expected = parse_run_file(io.StringIO("".join(lines)))
        for order in (pieces, pieces[::-1]):
            path = _write_dir(tmp_path / f"case{case}-{'reversed' * (order is not pieces)}",
                              {f"f{i}.txt": "".join(piece) for i, piece in enumerate(order)})
            whole = load_runs(path)
            assert whole == expected, case
            assert load_runs(path, judged=judgments) == _judged_rows(whole, judgments), case


def test_gap_that_a_later_file_fills_loads(tmp_path):
    path = _write_dir(tmp_path / "runs", {"a.txt": "q1 0 d1 1 0.9 s1\nq1 0 d3 3 0.7 s1\n",
                                          "b.txt": "q1 0 d2 2 0.8 s1\n"})
    assert load_runs(path).ranking("s1", "q1") == {"d1": 1, "d2": 2, "d3": 3}


def test_a_line_error_comes_before_an_earlier_files_group_error(tmp_path):
    path = _write_dir(tmp_path / "runs", {"a.txt": "q1 0 d1 1 0.9 s1\nq1 0 d3 3 0.7 s1\n",
                                          "b.txt": "q2 0 d1 1 0.9 s1\nq2 0 d2 two 0.8 s1\n"})
    with pytest.raises(ParseError) as info:
        load_runs(path)
    assert str(info.value) == "b.txt: line 2: rank is not an integer: 'two'"


@pytest.mark.parametrize(
    "texts,message",
    [
        # Only the files that hold the group are named.
        ({"a.txt": "q1 0 d1 1 0.9 s1\n", "b.txt": "q2 0 d1 1 0.9 s1\n",
          "c.txt": "q1 0 d1 2 0.8 s1\n"},
         "a.txt, c.txt: duplicate document 'd1' for system 's1', query 'q1' (c.txt line 1)"),
        # The group across files appears first, so its error wins over the one-file
        # group's, which was found when a.txt ended.
        ({"a.txt": "q1 0 d1 1 0.9 s1\nq2 0 d1 1 0.9 s1\nq2 0 d3 3 0.7 s1\n",
          "b.txt": "q1 0 d1 2 0.8 s1\n"},
         "a.txt, b.txt: duplicate document 'd1' for system 's1', query 'q1' (b.txt line 1)"),
        ({"a.txt": "q2 0 d1 1 0.9 s1\nq2 0 d3 3 0.7 s1\nq1 0 d1 1 0.9 s1\n",
          "b.txt": "q1 0 d1 2 0.8 s1\n"},
         "a.txt: ranks for system 's1', query 'q2' are not contiguous 1..2 (missing [2]) "
         "(line 2)"),
        # An error in a.txt's part of a group that b.txt continues waits for the whole group.
        ({"a.txt": "q1 0 d1 1 0.9 s1\nq1 0 d1 2 0.8 s1\n", "b.txt": "q1 0 d3 3 0.7 s1\n"},
         "a.txt: duplicate document 'd1' for system 's1', query 'q1' (line 2)"),
    ],
    ids=["names_its_files", "first_group_across_files", "first_group_in_one_file",
         "part_error_in_a_group_across_files"],
)
def test_group_errors_across_files_in_first_appearance_order(tmp_path, texts, message):
    path = _write_dir(tmp_path / "runs", texts)
    with pytest.raises(ValidationError) as info:
        _load_both(path, _graded([_E1, _E2]))
    assert str(info.value) == message


def test_digests_come_from_the_first_read_of_a_file_read_again(tmp_path, monkeypatch):
    """b.txt starts its group at rank 2, so a judged read of it stops at its first row and
    reads it again whole: its digest comes from that whole read, and none from the merge's."""
    texts = {"a.txt": "\ufeffq1 0 d1 1 0.9 s1\r\nq2 0 d1 1 0.9 s1\r\n",
             "b.txt": "q1 0 d2 2 0.8 s1\n", "c.txt": "q3 0 d1 1 0.9 s1\n"}
    path = _write_dir(tmp_path / "runs", texts)
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    for judged in (None, _graded([_E1, _E2])):
        opened.clear()
        digests = {}
        assert len(load_runs(path, judged=judged, digests=digests)) == (
            4 if judged is None else 1)  # the judgments keep d1 of q1 only
        assert opened == ["a.txt", "b.txt", *["b.txt"] * (judged is not None), "c.txt",
                          "a.txt", "b.txt"]
        assert digests == {name: hashlib.sha256((path / name).read_bytes()).hexdigest()
                           for name in texts}


def test_a_group_continued_from_an_earlier_file_reads_each_file_twice(tmp_path, monkeypatch):
    """a.txt holds ranks 1-2 of a group and b.txt its rank 3: a whole load reads each file
    once and then each again for the group across them; a judged load also reads b.txt whole
    once its first read stops at the group that starts there past rank 1."""
    path = _write_dir(tmp_path / "runs", {"a.txt": "q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",
                                          "b.txt": "q1 0 d3 3 0.7 s1\n"})
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    judgments = _graded([RunEntry("q1", d, 1, 0.0, "s1") for d in ("d1", "d2", "d3")])
    for judged in (None, judgments):
        opened.clear()
        runs = load_runs(path, judged=judged)
        assert opened == ["a.txt", "b.txt", *["b.txt"] * (judged is not None), "a.txt", "b.txt"]
        assert runs.ranking("s1", "q1") == ({"d1": 1, "d2": 2, "d3": 3} if judged is None
                                            else {"d1": 1, "d3": 3})


@pytest.mark.parametrize("chunk_chars", [1, 40, 1 << 15])
def test_a_group_with_an_id_twice_in_a_later_file_reads_it_again_whole(tmp_path, monkeypatch,
                                                                        chunk_chars):
    """b.txt's part of a group that a.txt starts begins at rank 1 but holds a document
    twice: a judged read of b.txt stops there and reads it again whole, as it does a group
    that starts past rank 1, before the merge reads both files again."""
    path = _write_dir(tmp_path / "runs", {"a.txt": "q1 0 d1 1 0.9 s1\n",
                                          "b.txt": "q1 0 d2 1 0.8 s1\nq1 0 d2 2 0.7 s1\n"})
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    judgments = _graded([RunEntry("q1", d, 1, 0.0, "s1") for d in ("d1", "d2")])
    with pytest.raises(ValidationError) as info:
        load_runs(path, judged=judgments)
    assert str(info.value) == f"b.txt: duplicate document 'd2' {_GROUP} (line 2)"
    assert opened == ["a.txt", "b.txt", "b.txt", "a.txt", "b.txt"]


_GAP = "ranks for system 's1', query 'q1' are not contiguous 1..1 (missing [1]) (line 1)"


@pytest.mark.parametrize(
    "texts,message,judged_opens",
    [
        # No other file holds the group that a.txt starts at rank 2.
        ({"a.txt": "q1 0 d2 2 0.8 s1\n"}, f"a.txt: {_GAP}", ["a.txt", "a.txt"]),
        # Its rank 1 comes back later in a.txt: the group is valid, and b.txt is not read again.
        ({"a.txt": "q1 0 d2 2 0.8 s1\nq2 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s1\n",
          "b.txt": "q3 0 d1 1 0.9 s1\n"}, None, ["a.txt", "a.txt", "b.txt"]),
        # Beside a valid group and a later one whose score rises, an error under strict
        # scores: its gap appears first and is raised.
        ({"a.txt": "q1 0 d2 2 0.8 s1\nq2 0 d1 1 0.9 s1\nq3 0 d1 1 0.1 s1\nq3 0 d2 2 0.8 s1\n",
          "b.txt": "q3 0 d1 1 0.9 s2\n"}, f"a.txt: {_GAP}", ["a.txt", "a.txt", "b.txt"]),
    ],
    ids=["alone", "comes_back", "before_a_later_error"],
)
@pytest.mark.parametrize("chunk_chars", [1, 40, 1 << 15])
def test_a_foreign_group_no_other_file_holds_is_read_again_whole(
        tmp_path, monkeypatch, texts, message, judged_opens, chunk_chars):
    """A foreign group, one that starts past rank 1 in the one file that holds it, stops a
    judged read of that file, which is read again whole at once, for the group's check; no
    later file is read first, and none is read again. A whole read reads each file once,
    and so does a judged read under strict scores, whose first read is whole. Under strict
    scores, the later group of the third layout fails too, and the one that appears first
    is raised."""
    path = _write_dir(tmp_path / "runs", texts)
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    judgments = _graded([RunEntry("q1", d, 1, 0.0, "s1") for d in ("d1", "d2", "d3")])
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    for strict in (False, True):
        for judged, opens in ((None, sorted(texts)),
                              (judgments, sorted(texts) if strict else judged_opens)):
            opened.clear()
            if message is None:
                runs = load_runs(path, strict, judged=judged)
                assert runs.ranking("s1", "q1") == ({"d1": 1, "d2": 2} if judged is None
                                                    else {"d1": 1})
            else:
                with pytest.raises(ValidationError) as info:
                    load_runs(path, strict, judged=judged)
                assert str(info.value) == message
            assert opened == opens


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("chunk_chars", [1, 40, 1 << 15])
def test_cleared_groups_keep_the_judged_rows_in_rank_order(tmp_path, monkeypatch, chunk_chars,
                                                           strict):
    """A judged read that clears its ids, with chunks cutting the group (s1, q1) apart, keeps
    each subset of that group's rows (none too), beside a group that keeps none, as the whole
    read's rows filtered to the kept documents, from one read of the file."""
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    group = [RunEntry("q1", f"d{r}", r, 1.0 - r / 10, "s1") for r in range(1, 7)]
    others = [RunEntry(q, f"d{r}", r, 1.0 - r / 10, s) for s, q in (("s1", "q2"), ("s2", "q1"))
              for r in range(1, 4)]
    path = tmp_path / "runs.txt"
    path.write_text("".join(line + "\n" for line in _run_lines(group + others)))
    whole = load_runs(path, strict)
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    for k in range(len(group) + 1):
        for kept in combinations(group, k):
            grades = cycle([Relevance.RELEVANT, Relevance.PARTIALLY_RELEVANT])
            judgments = JudgmentSet({("q1", "d9"): Relevance.IRRELEVANT}
                                    | {(e.query, e.doc): g for e, g in zip(kept, grades)})
            opened.clear()
            judged = load_runs(path, strict, judged=judgments)
            assert judged == _judged_rows(whole, judgments)
            assert [list(column) for column in judged._groups[("s1", "q2")]] == [[], [], []]
            assert opened == ["runs.txt"]



@pytest.mark.parametrize("layout", ["plain", "key_back", "ranks_down", "split_37", "line_path",
                                    "strict"])
def test_every_judged_path_holds_the_judgments_ids_in_typed_columns(tmp_path, monkeypatch,
                                                                     layout):
    """Each judged path keeps each row's id as the JudgmentSet's own string, not a copy, and
    its ranks and scores in arrays of unsigned ints and doubles: the byte read that clears
    its ids, a group whose key comes back and groups whose ranks count down (read line by
    line; each file read again whole), groups cut across files of 37 lines (a file whose
    first group starts past rank 1 read again whole, then merged after a second read), a
    "#" line and a non-ASCII id (read line by line) and strict scores (the file read whole
    once, with no read that clears). A read that clears is valid as read, so only the paths
    that read a file whole run the group check."""
    lines = _corpus_lines()
    qrels = "".join(f"{q} 0 d{d} {(2, 0, 1)[d % 3]}\n" for q in ("q0", "q1", "q2")
                    for d in range(200))
    if layout == "key_back":  # the first group's last row moved to the end of the file
        first = [line for line in lines if line.split()[::5] == ["q0", "s0"]]
        assert len(first) > 1
        lines.remove(first[-1])
        lines.append(first[-1])
    elif layout == "ranks_down":  # each group's rows in reverse rank order
        groups = [list(group) for _, group in groupby(lines, lambda line: line.split()[::5])]
        assert max(map(len, groups)) > 1
        lines = [line for group in groups for line in reversed(group)]
    elif layout == "line_path":
        lines = [("# c\n" if i % 50 == 0 else "") + line.replace(" d", " dé")
                 for i, line in enumerate(lines)]
        qrels = qrels.replace(" d", " dé")
    if layout == "split_37":
        path = _write_dir(tmp_path / "runs", {f"part{i:03d}": "".join(lines[i:i + 37])
                                              for i in range(0, len(lines), 37)})
    else:
        path = tmp_path / "runs.txt"
        path.write_text("".join(lines))
    (tmp_path / "qrels.txt").write_text(qrels)
    judgments = load_judgments(tmp_path / "qrels.txt")
    own = {q: {d: d for d in grades} for q, grades in judgments._by_query.items()}
    opened, line_rows, cleared, unclear, checks = [], [], [], [], []
    rows, clear, checked = corpus_io._rows, corpus_io._clear, corpus_io._checked

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    def recording_rows(text, lineno):
        pieces = rows(text, lineno)
        line_rows.extend(pieces)
        return pieces

    def recording_clear(*args):
        cleared.append(args[2])
        try:
            return clear(*args)
        except corpus_io._Unclear:
            unclear.append(args[2])
            raise

    def recording_checked(segments, *args, **kwargs):
        checks.append(list(segments))
        return checked(segments, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    monkeypatch.setattr(corpus_io, "_rows", recording_rows)
    monkeypatch.setattr(corpus_io, "_clear", recording_clear)
    monkeypatch.setattr(corpus_io, "_checked", recording_checked)
    strict = layout == "strict"
    judged = load_runs(path, strict, judged=judgments)
    read_again = layout in ("key_back", "ranks_down", "split_37")  # a file is read again whole
    if layout != "split_37":
        assert opened == ["runs.txt"] * (1 + read_again)
    assert (bool(cleared), bool(unclear)) == (not strict, read_again)
    assert bool(line_rows) == (layout in ("line_path", "ranks_down"))
    assert bool(checks) == (strict or read_again)
    assert judged == _judged_rows(load_runs(path, strict), judgments)
    assert len(judged) > 50
    for (_, query), (docs, ranks, scores) in judged._groups.items():
        assert all(doc is own[query][doc] for doc in docs)
        assert (type(ranks), ranks.typecode, type(scores), scores.typecode) == (
            array, "I", array, "d")


def test_the_merge_checks_each_group_once_its_last_file_is_read_again(tmp_path, monkeypatch):
    """The cross-file merge checks each group that crosses files right after it reads again
    the last file that holds it, before it reads any later file, so it holds the segments
    of only the groups still open: (s1, q1) lies in a and b, (s1, q2) in b and c, (s2, q1)
    in c and d."""
    path = _write_dir(tmp_path / "runs", {
        "a.txt": "q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",
        "b.txt": "q1 0 d3 3 0.7 s1\nq2 0 d1 1 0.9 s1\nq2 0 d2 2 0.8 s1\n",
        "c.txt": "q2 0 d3 3 0.7 s1\nq1 0 d1 1 0.9 s2\nq1 0 d2 2 0.8 s2\n",
        "d.txt": "q1 0 d3 3 0.7 s2\nq2 0 d1 1 0.9 s2\n"})
    last = {("s1", "q1"): "b.txt", ("s1", "q2"): "c.txt", ("s2", "q1"): "d.txt"}
    events = []
    read_file, checked = corpus_io._read_file, corpus_io._checked

    def recording_read_file(file, *args):
        events.append(("read", file.name))
        return read_file(file, *args)

    def recording_checked(segments, *args, **kwargs):
        events.append(("check", list(segments)))
        return checked(segments, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "_read_file", recording_read_file)
    monkeypatch.setattr(corpus_io, "_checked", recording_checked)
    judgments = _graded([RunEntry("q1", d, 1, 0.0, "s1") for d in ("d1", "d2", "d3")])
    for judged in (None, judgments):
        events.clear()
        runs = load_runs(path, judged=judged)
        assert runs.systems() == ["s1", "s2"] and len(runs) == (10 if judged is None else 4)
        reads = [i for i, (kind, _) in enumerate(events) if kind == "read"]
        # The merge starts at the first read of a file named before the file read last.
        merge = events[next(i for i, j in zip(reads[1:], reads) if events[i][1] < events[j][1]):]
        assert [name for kind, name in merge if kind == "read"] == ["a.txt", "b.txt", "c.txt",
                                                                    "d.txt"]
        for key, name in last.items():
            at = next(i for i, (kind, keys) in enumerate(merge) if kind == "check" and key in keys)
            assert [file for kind, file in merge[:at] if kind == "read"][-1] == name, key

def test_judged_read_memory_is_bounded_by_one_file(tmp_path):
    """The peak of a judged load over 64 one-system files stays near that over 4: each file's
    segments are dropped when it ends, and only its few kept rows stay."""
    queries, depth = ("q0", "q1"), 1000
    judgments = JudgmentSet({(q, f"doc-{q}-{r:05d}"): Relevance.RELEVANT
                             for q in queries for r in range(1, 11)})
    dirs = [tmp_path / "runs4", tmp_path / "runs64"]
    for runs, n_files in zip(dirs, (4, 64)):
        runs.mkdir()
        for k in range(n_files):  # 10007 is prime, so each group's documents differ
            (runs / f"s{k:02d}.txt").write_text("".join(
                f"{q} 0 doc-{q}-{r * (2 * k + 1) % 10007:05d} {r} {1 - r / 10000} s{k:02d}\n"
                for q in queries for r in range(1, depth + 1)))
    load_runs(dirs[0], judged=judgments)  # module memos fill outside the traced loads
    peaks = []
    for runs, n_files in zip(dirs, (4, 64)):
        tracemalloc.start()
        try:
            assert load_runs(runs, judged=judgments).systems() == [
                f"s{k:02d}" for k in range(n_files)]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_judged_read_frees_each_chunks_tokens_before_the_next_split(tmp_path):
    """A judged load that keeps no row peaks not much higher over a file of eight 32 KiB
    chunks than over a file of one: a chunk's tokens and columns are freed before the next
    chunk is split, not when the next chunk's rows replace them (which peaked 1.7x as high)."""
    def write(name: str, groups: int) -> Path:
        path = tmp_path / name
        path.write_text("".join(f"q{g % 7} Q0 doc-{g}-{r:04d} {r} {1 - r / 1000:.4f} s{g // 7}\n"
                                for g in range(groups) for r in range(1, 201)))
        return path

    one, eight = write("one.txt", 5), write("eight.txt", 40)
    assert one.stat().st_size < corpus_io._CHUNK_CHARS < eight.stat().st_size // 7
    judgments = JudgmentSet({("q0", "doc-elsewhere"): Relevance.RELEVANT})
    load_runs(one, judged=judgments)  # module memos fill outside the traced loads
    peaks = []
    for path in (one, eight):
        tracemalloc.start()
        try:
            assert len(load_runs(path, judged=judgments)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.4 * peaks[0], peaks


def test_a_judged_read_that_does_not_clear_peaks_as_the_whole_read(tmp_path):
    """A judged load of a file whose groups interleave, so that its ids do not clear and it
    is read again whole, peaks no higher than about the whole load of it: the second read
    starts once the first one's tokens and columns are freed, and each group it checks
    whole keeps only its judged rows (a second read inside the `except` handler, which kept
    the first read's frames alive, and kept-row offsets per segment peaked 1.34x as high)."""
    path = tmp_path / "interleaved.txt"
    path.write_text("".join(f"q{q} Q0 doc-{s}-{q}-{r:03d} {r} {1 - r / 1000:.4f} s{s:02d}\n"
                            for q in range(2) for r in range(1, 201) for s in range(20)))
    judgments = JudgmentSet({(f"q{q}", f"doc-{s}-{q}-{r:03d}"): Relevance.RELEVANT
                             for q in range(2) for s in range(20) for r in range(1, 201, 20)})
    load_runs(path, judged=judgments)  # module memos fill outside the traced loads
    peaks = []
    for judged, rows in ((None, 8000), (judgments, 400)):
        tracemalloc.start()
        try:
            assert len(load_runs(path, judged=judged)) == rows
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
    # Each chunk is cut on its own, so a group in rank order may arrive in several
    # segments; each one's ranks continue the previous one's, so they join without the
    # by-rank merge.
    segments = {}
    with open(path, "rb") as fh:
        corpus_io._read_runs(corpus_io._file_reads(fh, hashlib.sha256()), segments, 0)
    assert len(segments) == 12
    for segs in segments.values():
        r = 1
        for seg in segs:
            assert seg.ranks == range(r, r + len(seg.docs.split(" ")))
            r += len(seg.ranks)


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
         "runs.txt: ranks for system 's1', query 'q1' are not contiguous 1..2 (missing [2]) "
         "(line 2)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 2 0.8 s1\n", ValidationError,
         "runs.txt: duplicate document 'd1' for system 's1', query 'q1' (line 2)"),
        ("q1 0 d1 1 nan s1\n", ParseError, "runs.txt: line 1: score is not finite: 'nan'"),
        ("q1 0 d1 1 0.9 s1\nq2 0 d2 2 0.8 s1\n", ValidationError,
         "runs.txt: ranks for system 's1', query 'q2' are not contiguous 1..1 (missing [1]) "
         "(line 2)"),
        ("q1 0 d1 one 0.9 s1\n", ParseError, "runs.txt: line 1: rank is not an integer: 'one'"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 0 0.8 s1\n", ParseError,
         "runs.txt: line 2: rank must be >= 1, got 0"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 1 0.8 s1\n", ValidationError,
         "runs.txt: duplicate rank 1 for system 's1', query 'q1' (line 2)"),
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
        # A duplicate rank in a group that spans two files names the file of its line.
        ({"a.txt": "q1 0 d1 1 0.9 s1\n", "b.txt": "q1 0 d2 1 0.8 s1\n"},
         ValidationError,
         "a.txt, b.txt: duplicate rank 1 for system 's1', query 'q1' (b.txt line 1)"),
        # Entries keep the reader's invariants: a whole rank and a finite score.
        ([RunEntry("q1", "d1", 1, 0.9, "s1"), RunEntry("q1", "d2", 2, float("nan"), "s1")],
         ValidationError, "score nan is not a finite number for system 's1', query 'q1'"),
        ([RunEntry("q1", "d1", 1, float("-inf"), "s1")],
         ValidationError, "score -inf is not a finite number for system 's1', query 'q1'"),
        ([RunEntry("q1", "d1", 1, "0.9", "s1")],
         ValidationError, "score '0.9' is not a finite number for system 's1', query 'q1'"),
        ([RunEntry("q1", "d1", 1.0, 0.9, "s1")],
         ValidationError, "rank 1.0 is not an integer for system 's1', query 'q1'"),
        # A gap in entries names no line.
        ([RunEntry("q1", "d1", 1, 0.9, "s1"), RunEntry("q1", "d2", 3, 0.8, "s1")],
         ValidationError,
         "ranks for system 's1', query 'q1' are not contiguous 1..2 (missing [2])"),
        # Ranks below 1 in entries are gaps too, with no rank past the first missing one.
        ([RunEntry("q1", "d1", 0, 0.9, "s1")], ValidationError,
         "ranks for system 's1', query 'q1' are not contiguous 1..1 (missing [1])"),
        ([RunEntry("q1", "d1", 0, 0.9, "s1"), RunEntry("q1", "d2", 1, 0.8, "s1")],
         ValidationError,
         "ranks for system 's1', query 'q1' are not contiguous 1..2 (missing [2])"),
        ([RunEntry("q1", "d1", -1, 0.9, "s1")], ValidationError,
         "ranks for system 's1', query 'q1' are not contiguous 1..1 (missing [1])"),
        # An entry's token is echoed cut to 40 characters, as a line's is.
        ([RunEntry("q1", "d1", 1, "9" * 60, "s1")], ValidationError,
         "score '" + "9" * 39 + "… (62 characters) is not a finite number "
         "for system 's1', query 'q1'"),
    ],
    ids=["five_then_seven_fields", "rank_gap", "duplicate_document", "nan_score",
         "group_without_rank_1", "rank_not_integer", "rank_zero", "duplicate_rank",
         "repeated_line", "skipped_lines_counted", "duplicate_doc_two_files",
         "entries_without_file", "duplicate_rank_two_files", "entries_nan_score",
         "entries_inf_score", "entries_text_score", "entries_float_rank", "entries_gap",
         "entries_rank_zero", "entries_ranks_zero_and_one", "entries_rank_negative",
         "entries_long_score"],
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
        judgments = _graded(random.Random(case).sample(entries, len(entries) // 2))
        assert _load_both(path, judgments) == expected, (case, chunk_chars, texts)
        if case < 4:  # the CLI report is equal apart from the input digests
            docs = sorted({e.doc for e in entries})
            qrels = tmp_path / f"qrels{case}.txt"
            qrels.write_text("".join(f"{q} 0 {d} 2\n" for q in ("q0", "q1", "q2")
                                     for d in rng.sample(docs, min(8, len(docs)))))
            canonical = tmp_path / f"canonical{case}.txt"
            canonical.write_text("".join(line + "\n" for line in _run_lines(entries)))
            assert _report(path, qrels, tmp_path / f"layout{case}.json") == _report(
                canonical, qrels, tmp_path / f"canonical{case}.json"), case


def _faulty_texts(rng: random.Random, entries: list[RunEntry]) -> list[str]:
    """The entries as the texts of 1-3 run files of single-space lines, with 1-2 random
    faults: an id twice, a rank twice, a gap, the key back, a score that is not a number or
    not finite, or a line of 5 or 7 fields."""
    rows = [line.split(" ") for line in _run_lines(entries)]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(rows))
        group = [row for row in rows if row[::5] == rows[i][::5]]
        fault = rng.choice(["id", "rank", "gap", "key_back", "score", "finite", "fields"])
        if fault in ("id", "rank"):
            rows[i][2 if fault == "id" else 3] = rng.choice(group)[2 if fault == "id" else 3]
        elif fault == "gap":
            del rows[i]
        elif fault == "key_back":
            rows.append(rows.pop(rows.index(group[-1 if len(group) == 1 else -2])))
        elif fault in ("score", "finite"):
            rows[i][4] = rng.choice(["x", ".", "1.2.3", "0x1p0", "--1"] if fault == "score"
                                    else ["inf", "-nan", "1e999", "9" * 400 + ".5"])
        elif rng.random() < 0.5:
            del rows[i][1]
        else:
            rows[i].insert(1, "Q0")
    lines = [" ".join(row) + "\n" for row in rows]
    cuts = sorted(rng.sample(range(1, len(lines)), min(rng.randint(0, 2), len(lines) - 1)))
    return ["".join(lines[a:b]) for a, b in zip([0, *cuts], [*cuts, len(lines)])]


def _outcome(path: Path, strict: bool, judged: JudgmentSet | None) -> tuple:
    """What a load gives: its RunSet or its error's type and text, and the digests."""
    digests = {}
    try:
        result = load_runs(path, strict, judged=judged, digests=digests)
    except (ParseError, ValidationError) as exc:
        result = type(exc), str(exc)
    return result, digests


@pytest.mark.parametrize("chunk_chars", [1, 13, 64, 1 << 15])
def test_random_faults_load_as_the_line_path_reads_them(tmp_path, monkeypatch, chunk_chars):
    """Run files with random faults, whole and judged, strict and not: each load gives the
    RunSet, or the error, and the digests that the same files give read line by line, with
    the byte split turned off."""
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    rng = random.Random(30 + chunk_chars)
    split = corpus_io._split
    for case in range(30):
        entries = _random_entries(rng)
        texts = _faulty_texts(rng, entries)
        path = _write_dir(tmp_path / f"case{case}", {
            f"part{i}.txt": text for i, text in enumerate(texts)})
        path = path if len(texts) > 1 else path / "part0.txt"
        judgments = _graded(rng.sample(entries, len(entries) // 2))
        for strict in (False, True):
            for judged in (None, judgments):
                monkeypatch.setattr(corpus_io, "_split", split)
                outcome = _outcome(path, strict, judged)
                monkeypatch.setattr(corpus_io, "_split", lambda *args: None)
                assert outcome == _outcome(path, strict, judged), (case, strict, texts)


# The one-split tokenizer against the entries each text holds, at every chunk size

_E1, _E2 = RunEntry("q1", "d1", 1, 0.9, "s1"), RunEntry("q1", "d2", 2, 0.8, "s1")
_LONG_DOC = "d" * 70_000  # longer than every chunk size below


@pytest.mark.parametrize(
    "text,expected",
    [
        # Whitespace that str.split splits on but that ends no line of a text file.
        ("q1\x0b0 d1\x0c1 0.9\x1cs1\nq1\x850 d2 2\u20280.8 s1\n", [_E1, _E2]),
        ("q1 0 \x00 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",
         [RunEntry("q1", "\x00", 1, 0.9, "s1"), _E2]),
        ("q1 0 d#1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",
         [RunEntry("q1", "d#1", 1, 0.9, "s1"), _E2]),
        ("q1 0 d1 1 0.9 s1\n \t \nq1 0 d2 2 0.8 s1\n", [_E1, _E2]),  # whitespace-only line
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1", [_E1, _E2]),  # no final newline
        (f"q1 0 d1 1 0.9 s1\nq1 0 {_LONG_DOC} 2 0.8 s1\n",
         [_E1, RunEntry("q1", _LONG_DOC, 2, 0.8, "s1")]),
        ("q1 0 d1 1 0.9 s1\rq1 0 d2 2 0.8 s1\r", [_E1, _E2]),  # CR
        ("q1 0 d1 1 0.9 s1\r\nq1 0 d2 2 0.8 s1\r\n", [_E1, _E2]),  # CRLF
        # Field counts that add up to 6 a line over the text, but not on each line.
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8\nq1 0 d3 3 0.7 s1 x\n",
         "line 2: expected 6 whitespace-separated fields, got 5"),
        # 14 tokens whose every seventh converts: only the NUL positions tell the lines apart.
        ("q1 0 d1 1 0.9\nx q1 0 d2 1 0.8 s1\n",
         "line 1: expected 6 whitespace-separated fields, got 5"),
        ("q1 0 d1 1 0.9\x85s1 x\n", "line 1: expected 6 whitespace-separated fields, got 7"),
        ("q1 0 d1 1 0.9\n\x00 q1 0 d2 1 0.8 s1\n",  # a NUL token where a newline's would be
         "line 1: expected 6 whitespace-separated fields, got 5"),
        ("q1 0 d#1 1 0.9 s1\nq1 0 d2 2\n", "line 2: expected 6 whitespace-separated fields, got 4"),
        (f"q1 0 d1 1 0.9 s1\nq1 0 {_LONG_DOC} 2 0.8\n",
         "line 2: expected 6 whitespace-separated fields, got 5"),
        ("q1 0 d1 1 0.9 s1\r\nq1 0 d2 x 0.8 s1\r\n", "line 2: rank is not an integer: 'x'"),
        # Chunks the byte split must leave to the decoded, line-by-line path.
        ("q1 0 d\u00e9 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",
         [RunEntry("q1", "d\u00e9", 1, 0.9, "s1"), _E2]),
        ("q1 0 d1\x1cx 1 0.9 s1\n", "line 1: expected 6 whitespace-separated fields, got 7"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2\x1fx 2 0.8 s1\n",
         "line 2: expected 6 whitespace-separated fields, got 7"),
        # Ranks that int() reads but that are not plain digits.
        ("q1 0 d1 01 0.9 s1\nq1 0 d2 +2 0.8 s1\n", [_E1, _E2]),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 0_2 0.8 s1\nq1 0 d3 3 0.7 s1\n",
         [_E1, _E2, RunEntry("q1", "d3", 3, 0.7, "s1")]),
        # Lines that the split at single spaces must leave to the NUL split or fail.
        ("q1 0 d1 1 0.9 s1 \nq1 0 d2 2 0.8 s1 \n", [_E1, _E2]),  # a trailing space
        ("q1 0  d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n", [_E1, _E2]),  # a double space before a doc
        ("q1 0 d1 1 0.9 s1\nq1 0  2 0.8 s1\n",  # an empty doc column
         "line 2: expected 6 whitespace-separated fields, got 5"),
        ("q1  d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n",  # an empty "Q0" column
         "line 1: expected 6 whitespace-separated fields, got 5"),
        ("q1\t0\td1\t1\t0.9\ts1\nq1\t0\td2\t2\t0.8\ts1\n", [_E1, _E2]),
        ("q1 0\td1 1\t0.9 s1\nq1\t0 d2\t2 0.8\ts1\n", [_E1, _E2]),  # mixed tabs and spaces
        # Keys that change inside a window from one rank 1 to the next: groups interleaved.
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s2\nq1 0 d2 2 0.8 s2\nq1 0 d2 2 0.8 s1\n",
         [_E1, _E2, RunEntry("q1", "d1", 1, 0.9, "s2"), RunEntry("q1", "d2", 2, 0.8, "s2")]),
        # Scores of other shapes than digits around one ".", and of that shape at its edges.
        ("q1 0 d1 1 5. s1\nq1 0 d2 2 .5 s1\nq1 0 d3 3 -0.5 s1\nq1 0 d4 4 1e5 s1\n"
         "q1 0 d5 5 007.5 s1\n", [RunEntry("q1", f"d{r}", r, score, "s1") for r, score in
                                  zip(range(1, 6), (5.0, 0.5, -0.5, 1e5, 7.5))]),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 . s1\n", "line 2: score is not a number: '.'"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 " + "9" * 309 + ".0 s1\n",
         "line 2: score is not finite: '" + "9" * 40 + "'… (311 characters)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 " + "0" * 300 + ".5 s1\n",
         [_E1, RunEntry("q1", "d2", 2, 0.5, "s1")]),
        # Faults that the line loop names as it converts each line, past skipped lines.
        ("q1 0 d1 1 0.9 s1\n# c\nq1 0 d2 x 0.8 s1\n", "line 3: rank is not an integer: 'x'"),
        ("q1 0 d\u00e9 1 0.9 s1\nq1 0 d2 0 0.8 s1\nq1 0 d3 x 0.7 s1\n",
         "line 2: rank must be >= 1, got 0"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d\u00e9 0 0.8 s1\n", "line 2: rank must be >= 1, got 0"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d\u00e9 2 nan s1\n", "line 2: score is not finite: 'nan'"),
        ("q1 0 d1 1 0.9 s1\n\nq1 0 d2 2 0.8 s1 x\n",
         "line 3: expected 6 whitespace-separated fields, got 7"),
    ],
    ids=["whitespace", "nul_doc", "hash_doc", "blank", "no_final_newline", "long_line", "cr",
         "crlf", "five_then_seven", "five_then_seven_aligned", "next_line_char",
         "nul_then_seven", "hash_then_short", "long_short", "crlf_bad_rank", "non_ascii_doc",
         "x1c_in_doc", "x1f_in_doc", "zero_and_plus_ranks", "underscore_rank",
         "trailing_space", "double_space", "empty_doc", "empty_q0", "tabs", "tabs_and_spaces",
         "interleaved", "score_shapes", "bare_dot_score", "overflowing_score",
         "long_zero_score", "hash_then_bad_rank", "two_bad_lines", "non_ascii_rank_zero",
         "non_ascii_nan_score", "blank_then_seven"],
)
@pytest.mark.parametrize("chunk_chars", [1, 7, 40, 333, 1 << 16])
def test_tokenizer_edges_at_every_chunk_size(tmp_path, monkeypatch, text, expected, chunk_chars):
    """Valid text loads as the entries that made it; invalid text fails with the message of
    its first bad line. Both hold whole and judged."""
    path = tmp_path / "runs.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    judgments = _graded(expected if isinstance(expected, list) else [_E1, _E2])
    if isinstance(expected, list):
        assert _load_both(path, judgments) == RunSet(expected)
        return
    with pytest.raises(ParseError) as info:
        _load_both(path, judgments)
    assert str(info.value) == f"runs.txt: {expected}"


# The qrels reader against a line-at-a-time reader, at every chunk size


def _line_read_judgments(data: bytes, grade_map) -> JudgmentSet:
    """What a reader of one line at a time makes of a qrels file's bytes: each line of a
    text-mode read (BOM dropped, CR and CRLF ending lines), split on whitespace."""
    grades = {}
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 whitespace-separated fields, got {len(fields)}", lineno)
        query, _, doc, grade_s = fields
        try:
            value = int(grade_s)
        except ValueError:
            raise ParseError(f"grade is not an integer: {grade_s!r}", lineno) from None
        if value not in grade_map:
            raise ConfigError(f"line {lineno}: grade value {value} has no mapping "
                              f"(known: {sorted(grade_map)})")
        if grades.setdefault((query, doc), grade_map[value]) is not grade_map[value]:
            raise ValidationError(
                f"conflicting grades for query {query!r}, doc {doc!r} (line {lineno})")
    return JudgmentSet(grades)


_MANY = "".join(f"q{i % 3} 0 d{i // 3} {i % 3}\n" for i in range(120))  # 3 queries in turn
_BY_QUERY = "".join(f"q{q} 0 d{i} {(i + q) % 3}\n" for q in range(3) for i in range(40))


@pytest.mark.parametrize(
    "text,grade_map",
    [
        ("q1\t0\td1\t2\nq1  0   d2 \t 1\n\tq2 0 d1 0  \n", None),
        ("# judged by hand\nq1 0 d1 2\n\n   \n\t\nq1 0 d2 1\n# q1 0 d3 2\n", None),
        ("q1 0 d1 2\rq1 0 d2 1\rq2 0 d1 0\r", None),
        ("q1 0 d1 2\r\nq1 0 d2 1\r\nq2 0 d1 0\r\n", None),
        ("\ufeffq1 0 d1 2\nq1 0 d2 1\n", None),
        ("q1 0 d\x001 2\nq1 0 d2 1\n", None),
        ("q1 0 d1 2\nq1 0 d\x1c2 1\n", None),
        ("q1 0 d\x1f1 2\n", None),
        ("q1 0 d\u00e91 2\nq1 0 d2 1\n", None),
        ("q1 0 d1 02\nq1 0 d2 +1\nq1 0 d3 0\n", None),
        ("q1 0 d1 2\nq1 0 d2 1_0\n", None),
        ("q1 0 d1 2\nq1 0 d2 3\n", None),
        ("q1 0 d1 2\nq1 0 d2 two\n", None),
        ("q1 0 d1 2\nq1 0 d2 -1\nq1 0 d3 7\n",
         {7: Relevance.RELEVANT, -1: Relevance.IRRELEVANT, 2: Relevance.PARTIALLY_RELEVANT}),
        ("q1 0 d1 0\nq1 0 d2 2\n", {2.5: Relevance.RELEVANT, 0: Relevance.IRRELEVANT}),
        ("q1 0 d1 2\nq1 0 d2 1\nq1 0 d1 2\n", None),
        ("q1 0 d1 2\nq1 0 d2 1\nq1 0 d1 0\n", None),
        (_BY_QUERY + "q0 0 d5 2\n" + _BY_QUERY, None),
        (_BY_QUERY + "q2 0 d7 2\n", None),
        (_MANY, None),
        (_MANY + _MANY.replace(" 0\n", " 1\n"), None),
        ("q1 0 d1 2\nq1 0 d2 1", None),
        ("q1 0 d1 2\nq1 0 d2\n", None),
        ("q1 0 d1 2\nq1 0 d2 1 x\n", None),
    ],
    ids=["tabs_and_spaces", "blank_and_comment", "cr", "crlf", "bom", "nul_doc", "x1c_doc",
         "x1f_doc", "non_ascii_doc", "zero_and_plus_grades", "underscore_grade",
         "unmapped_grade", "word_grade", "custom_map", "float_key_map", "same_grade_duplicate",
         "conflict_near", "same_grade_far", "conflict_far", "queries_not_grouped",
         "queries_not_grouped_conflict", "no_final_newline", "three_fields", "five_fields"],
)
@pytest.mark.parametrize("chunk_chars", [1, 7, 40, 333, 1 << 16])
def test_qrels_layouts_at_every_chunk_size(tmp_path, monkeypatch, text, grade_map, chunk_chars):
    """Each layout loads as the line reader reads it, or fails with its error, through
    `load_judgments` (which also hashes the file's bytes) and through `parse_judgments`."""
    data = text.encode()
    path = tmp_path / "qrels.txt"
    path.write_bytes(data)
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    try:
        expected = _line_read_judgments(data, grade_map or corpus_io.DEFAULT_GRADE_MAP)
    except (ParseError, ValidationError, ConfigError) as exc:
        with pytest.raises(type(exc)) as info:
            load_judgments(path, grade_map)
        assert str(info.value) == f"qrels.txt: {exc}"
        with pytest.raises(type(exc)) as info:
            with open(path, encoding="utf-8-sig") as fh:
                parse_judgments(fh, grade_map)
        assert str(info.value) == str(exc)
        return
    digests = {}
    loaded = load_judgments(path, grade_map, digests=digests)
    assert loaded == expected
    assert digests == {"qrels.txt": hashlib.sha256(data).hexdigest()}
    with open(path, encoding="utf-8-sig") as fh:
        assert parse_judgments(fh, grade_map) == expected
    for query in expected.queries() + ["no-such-query"]:
        for partial in (False, True):
            assert loaded.relevant_docs(query, partial) == expected.relevant_docs(query, partial)


def test_plain_qrels_skip_the_line_loop(tmp_path, monkeypatch):
    """Chunks of 4 fields a line with grades in plain digits, in query runs or not, are
    stored without the line loop, which reads only the blank end of the input."""
    path = tmp_path / "qrels.txt"
    path.write_text(_BY_QUERY + _MANY.replace(" d", " e"))
    expected = _line_read_judgments(path.read_bytes(), corpus_io.DEFAULT_GRADE_MAP)
    seen = []
    records = corpus_io._iter_records
    monkeypatch.setattr(corpus_io, "_iter_records",
                        lambda lines, *args: seen.extend(lines) or records(lines, *args))
    for chunk_chars in (40, 333, 1 << 16):
        monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
        assert load_judgments(path) == expected
    assert "".join(seen).strip() == ""


@pytest.mark.parametrize("chunk_chars", [40, 333, 1 << 16])
def test_run_chunks_take_the_five_token_split_or_the_nul_split(tmp_path, monkeypatch,
                                                               chunk_chars):
    """Chunks of lines split by single spaces take the split at single spaces; tab-separated
    and double-spaced ones take the NUL split. None of them reaches the line loop, which
    reads only the blank end of the input."""
    lines = _corpus_lines()
    reference = parse_run_file(io.StringIO("".join(lines)))
    calls = {"five": [], "nul": [], "rows": []}
    five, tokens, rows = corpus_io._five, corpus_io._tokens, corpus_io._rows
    monkeypatch.setattr(corpus_io, "_five",
                        lambda text, n: calls["five"].append(text) or five(text, n))
    monkeypatch.setattr(corpus_io, "_tokens",
                        lambda text, *args: calls["nul"].append(text) or tokens(text, *args))
    monkeypatch.setattr(corpus_io, "_rows",
                        lambda text, lineno: calls["rows"].append(text) or rows(text, lineno))
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    judgments = _graded(list(reference.entries()))
    for name, sep in (("single", " "), ("tabs", "\t"), ("double", "  ")):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(line.replace(" ", sep) for line in lines))
        for value in calls.values():
            value.clear()
        assert _load_both(path, judgments) == reference, name
        chunks = [text for text in calls["five"] if text.strip()]
        assert chunks, name
        split = [text for text in calls["nul"] if text.strip()]
        assert split == ([] if sep == " " else chunks), name
        assert "".join(calls["rows"]).strip() == "", name


_GROUP = "for system 's1', query 'q1'"


@pytest.mark.parametrize(
    "text,strict,expected",
    [
        ("q1 0 d1 1 0.9 s1\n# c\nq2 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\nq1 0 d1 3 0.7 s1\n", False,
         f"duplicate document 'd1' {_GROUP} (line 5)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\n\nq1 0 d3 2 0.7 s1\n", False,
         f"duplicate rank 2 {_GROUP} (line 4)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\nq1 0 d3 4 0.7 s1\n", False,
         f"ranks {_GROUP} are not contiguous 1..3 (missing [3]) (line 3)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\nq2 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s1\n"
         "q1 0 d2 2 0.8 s1\n", False, f"duplicate document 'd1' {_GROUP} (line 4)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\nq2 0 d1 1 0.9 s1\nq1 0 d3 1 0.9 s1\n"
         "q1 0 d4 2 0.8 s1\n", False, f"duplicate rank 1 {_GROUP} (line 4)"),
        ("q1 0 d1 1 0.5 s1\nq1 0 d2 2 0.4 s1\nq1 0 d3 3 0.6 s1\n", True,
         f"score increases from rank 2 to 3 {_GROUP} (strict mode)"),
        # Documents that no judgment keeps (d2 is graded irrelevant, d9 not at all), twice in
        # a row and four rows apart: one chunk holds both copies or two chunks do.
        ("q1 0 d1 1 0.9 s1\nq1 0 d2 2 0.8 s1\nq1 0 d2 3 0.7 s1\n", False,
         f"duplicate document 'd2' {_GROUP} (line 3)"),
        ("q1 0 d9 1 0.9 s1\nq1 0 d1 2 0.8 s1\nq1 0 d3 3 0.7 s1\nq1 0 d4 4 0.6 s1\n"
         "q1 0 d9 5 0.5 s1\n", False, f"duplicate document 'd9' {_GROUP} (line 5)"),
        # Copies in a chunk split as bytes and one split as text ("#" line, non-ASCII id).
        ("q1 0 d9 1 0.9 s1\nq1 0 d1 2 0.8 s1\n# c\nq1 0 d9 3 0.7 s1\n", False,
         f"duplicate document 'd9' {_GROUP} (line 4)"),
        ("q1 0 d\u00e9 1 0.9 s1\nq1 0 d1 2 0.8 s1\nq1 0 d3 3 0.7 s1\nq1 0 d1 4 0.6 s1\n", False,
         f"duplicate document 'd1' {_GROUP} (line 4)"),
        # Faults in lines that the split at single spaces leaves to the NUL split.
        ("q1\t0\td1\t1\t0.9\ts1\nq1\t0\td1\t2\t0.8\ts1\n", False,
         f"duplicate document 'd1' {_GROUP} (line 2)"),
        ("q1 0 d1 1 0.9 s1 \nq1 0 d2 2 0.8 s1 \nq1 0 d3 2 0.7 s1 \n", False,
         f"duplicate rank 2 {_GROUP} (line 3)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s2\nq1 0 d1 2 0.8 s1\nq1 0 d2 2 0.8 s2\n", False,
         f"duplicate document 'd1' {_GROUP} (line 3)"),
        ("q1 0 d1 1 0.9 s1\nq1 0 d1 1 0.9 s2\nq1 0 d3 3 0.8 s1\nq1 0 d2 2 0.8 s2\n", False,
         f"ranks {_GROUP} are not contiguous 1..2 (missing [2]) (line 3)"),
        # A score that rises, in a column of digits around one "." (see `_scores`).
        ("q1 0 d1 1 0.5 s1\nq1 0 d2 2 0.40 s1\nq1 0 d3 3 00.6 s1\n", True,
         f"score increases from rank 2 to 3 {_GROUP} (strict mode)"),
        # A gap names the row of the lowest rank past it, not the next line.
        ("q1 0 d1 1 0.9 s1\nq1 0 d5 5 0.5 s1\nq1 0 d3 3 0.7 s1\n", False,
         f"ranks {_GROUP} are not contiguous 1..3 (missing [2]) (line 3)"),
    ],
    ids=["duplicate_document", "duplicate_rank", "rank_gap", "repeated_group",
         "reappearing_group", "rising_score", "duplicate_unkept_document",
         "duplicate_unjudged_document_apart", "duplicate_bytes_then_text",
         "duplicate_text_then_bytes", "duplicate_document_tabs",
         "duplicate_rank_trailing_space", "duplicate_document_interleaved",
         "rank_gap_interleaved", "rising_score_shaped", "rank_gap_out_of_order"],
)
@pytest.mark.parametrize("chunk_chars", [1, 7, 40, 333, 1 << 16])
def test_group_faults_at_every_chunk_size(tmp_path, monkeypatch, text, strict, expected,
                                          chunk_chars):
    """A group fault gives one error, however the chunks cut the group into segments, whole
    and judged."""
    path = tmp_path / "runs.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    with pytest.raises(ValidationError) as info:
        _load_both(path, _graded([_E1, _E2]), strict)
    assert str(info.value) == f"runs.txt: {expected}"


@pytest.mark.parametrize("chunk_chars", [40, 1 << 15])
def test_interleaved_file_loads_judged_as_whole_and_hashes_as_itself(tmp_path, monkeypatch,
                                                                       chunk_chars):
    """A file sorted by query, rank and system, whose groups come back row after row: its
    judged load keeps the judged rows of the whole one from at most two reads, and the
    report gives the file's own SHA-256."""
    lines = sorted(_corpus_lines(), key=lambda line: (
        line.split()[0], int(line.split()[3]), line.split()[5]))
    path = tmp_path / "interleaved.txt"
    path.write_text("".join(lines))
    monkeypatch.setattr(corpus_io, "_CHUNK_CHARS", chunk_chars)
    whole = load_runs(path)
    assert whole == parse_run_file(io.StringIO("".join(lines)))
    judgments = _graded(list(whole.entries()))
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(corpus_io, "open", recording_open, raising=False)
    digests = {}
    assert load_runs(path, judged=judgments, digests=digests) == _judged_rows(whole, judgments)
    assert opened in (["interleaved.txt"], ["interleaved.txt"] * 2)
    sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {"interleaved.txt": sha256}
    qrels = tmp_path / "qrels.txt"
    with qrels.open("w") as sink:
        write_judgments(judgments, sink)
    out = tmp_path / "report.json"
    assert main(["--runs", str(path), "--qrels", str(qrels), "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["inputs"]["runs"] == sha256


def test_ranking_among_keeps_only_those_documents():
    rng = random.Random(11)
    runs = RunSet(_random_entries(rng))
    for system in runs.systems():
        for query in runs.queries() + ["no-such-query"]:
            full = runs.ranking(system, query)
            for depth in (None, 1, 5, 100):
                ranked = runs.ranking(system, query, depth)
                # Documents ranked beyond the depth, ranked within it, and never retrieved.
                among = set(rng.sample(sorted(full), min(6, len(full)))) | {"d-missing"}
                assert runs.ranking(system, query, depth, among=among) == {
                    d: r for d, r in ranked.items() if d in among}
                assert runs.ranking(system, query, depth, among=set()) == {}


def test_judged_runs_rank_the_judged_documents_as_the_whole_runs(tmp_path):
    rng = random.Random(13)
    for case in range(20):
        entries = _random_entries(rng)
        runs = RunSet(entries)
        judgments = _graded(rng.sample(entries, rng.randrange(len(entries))))
        path = tmp_path / f"runs{case}.txt"
        path.write_text("".join(line + "\n" for line in _run_lines(entries)))
        judged = load_runs(path, judged=judgments)
        # Every (system, query) key stays, with or without a kept row.
        assert sorted(judged._groups) == sorted(runs._groups)
        assert len(judged) == sum(
            judgments.grade(e.query, e.doc) not in (None, Relevance.IRRELEVANT) for e in entries)
        for system in runs.systems():
            for query in runs.queries() + ["no-such-query"]:
                for depth in (None, 1, 5, 100):
                    for partial in (False, True):
                        among = judgments.relevant_docs(query, partial)
                        assert judged.ranking(system, query, depth, among=among) == (
                            runs.ranking(system, query, depth, among=among))


def test_judgment_lookups_equal_a_full_scan():
    rng = random.Random(12)
    for _ in range(50):
        grades = {(f"q{rng.randrange(5)}", f"d{rng.randrange(40)}"): rng.choice(list(Relevance))
                  for _ in range(rng.randrange(120))}
        js = JudgmentSet(grades)
        text = "".join(f"{q} 0 {d} {2 - list(Relevance).index(g)}\n"
                       for (q, d), g in grades.items())
        assert parse_judgments(io.StringIO(text)) == js
        for query in [f"q{i}" for i in range(6)]:
            for partial in (False, True):
                wanted = {Relevance.RELEVANT, Relevance.PARTIALLY_RELEVANT} if partial else {
                    Relevance.RELEVANT}
                assert js.relevant_docs(query, partial) == {
                    d for (q, d), g in grades.items() if q == query and g in wanted}
            for doc in [f"d{i}" for i in range(41)]:
                assert js.grade(query, doc) is grades.get((query, doc))
        assert list(js.items()) == [(q, d, grades[(q, d)]) for q, d in sorted(grades)]
        assert len(js) == len(grades)
        assert js.queries() == sorted({q for q, _ in grades})
        assert js == JudgmentSet(dict(reversed(grades.items())))
        assert js.__eq__(grades) is NotImplemented
        if grades:
            key = rng.choice(sorted(grades))
            other = next(g for g in Relevance if g is not grades[key])
            assert js != JudgmentSet({**grades, key: other})
            assert js != JudgmentSet({k: g for k, g in grades.items() if k != key})
