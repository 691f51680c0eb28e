"""Parsers and writers for run files and relevance judgments.

File formats:
  run file   - 6 whitespace-separated columns per line:
               query-id  dummy  doc-id  rank  score  system-id
               The dummy column is read and discarded; lines starting with
               "#" and blank lines are skipped.
  judgments  - 4 whitespace-separated columns per line:
               query-id  iter  doc-id  grade
               The iter column is ignored; the integer grade is translated
               through a configurable grade map.

Run and judgment files are read as UTF-8; a leading byte-order mark is
dropped.

A `RunSet` stores each (system, query) group as two columns in rank order:
document ids and scores. One reader takes every run input, each file of
`load_runs` and the stream of `parse_run_file`: it reads in bounded chunks,
converts each chunk to columns and cuts the rows into (system, query)
segments. One group check, which `RunSet(entries)` shares, joins each
group's segments and decides what is valid and what every error says.

All parsed structures are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress, count, groupby
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .errors import ConfigError, ParseError, ValidationError


def _check_token(value: str, what: str) -> str:
    # Non-empty and free of whitespace: str.split() splits on every str.isspace character.
    if value.split() != [value]:
        raise ValidationError(f"{what} must be a non-empty token without whitespace: {value!r}")
    return value


@dataclass(frozen=True)
class RunEntry:
    """One retrieved document: (query, doc) at a 1-based rank with a system score."""

    query: str
    doc: str
    rank: int
    score: float
    system: str


#: (system, query) -> (document ids, scores), both in rank order.
_RunColumns = dict[tuple[str, str], tuple[tuple[str, ...], tuple[float, ...]]]


class _Segment(NamedTuple):
    """Rows of one (system, query) group from one input, in input order."""
    docs: tuple[str, ...]
    scores: tuple[float, ...]
    ranks: range | tuple[int, ...]  # a range when they count up by one
    source: int  # the input's number
    line: int | None  # of the first row (the rows are consecutive lines)


#: (system, query) -> its segments, keys in first-appearance order.
_Segments = dict[tuple[str, str], list[_Segment]]


class RunSet:
    """All ranked retrieval results, grouped by (system, query).

    Within each (system, query) group, ranks are exactly 1..n with no gaps
    or duplicates and document ids are unique. Construction validates this;
    instances are immutable afterward. Each group is stored as two columns
    in rank order, a tuple of document ids and a tuple of scores; the rank
    of a document is its position plus one.
    """

    def __init__(self, entries: Iterable[RunEntry], strict_scores: bool = False):
        rows = [(e.query, e.doc, e.rank, e.score, e.system) for e in entries]
        segments: _Segments = {}
        if rows:
            _cut(segments, [list(column) for column in zip(*rows)], 0, len(rows), 0, None)
        self._groups = _checked(segments, strict_scores)

    @classmethod
    def _from_columns(cls, groups: _RunColumns) -> RunSet:
        """Wrap (system, query) -> (docs, scores) columns that are already validated."""
        runs = cls.__new__(cls)
        runs._groups = groups
        return runs

    def systems(self) -> list[str]:
        return sorted({s for s, _ in self._groups})

    def queries(self) -> list[str]:
        return sorted({q for _, q in self._groups})

    def entries(self) -> Iterator[RunEntry]:
        """All entries in deterministic (system, query, rank) order."""
        for (system, query), (docs, scores) in sorted(self._groups.items()):
            for rank, (doc, score) in enumerate(zip(docs, scores), start=1):
                yield RunEntry(query=query, doc=doc, rank=rank, score=score, system=system)

    def ranking(self, system: str, query: str, depth: int | None = None) -> dict[str, int]:
        """Document -> rank map for one (system, query), truncated to `depth`."""
        docs = self._groups.get((system, query), ((), ()))[0]
        if depth is not None:
            docs = docs[:depth]
        return dict(zip(docs, range(1, len(docs) + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSet):
            return NotImplemented
        return self._groups == other._groups

    def __len__(self) -> int:
        return sum(len(docs) for docs, _ in self._groups.values())


def _cut(segments: _Segments, columns: list, start: int, stop: int, source: int,
         line: int | None) -> None:
    """Add rows start..stop of the columns (queries, docs, ranks, scores, systems) to
    `segments`, one segment per run of one key; `line` is the line number of row 0."""
    queries, docs, ranks, scores, systems = columns
    bounds = [start]
    n = stop - start
    if queries[start:stop].count(queries[start]) == systems[start:stop].count(systems[start]) == n:
        bounds.append(stop)
    else:
        for _, run in groupby(zip(systems[start:stop], queries[start:stop])):
            bounds.append(bounds[-1] + len(list(run)))
    for a, b in zip(bounds, bounds[1:]):
        counting = range(ranks[a], ranks[a] + b - a)
        segments.setdefault((systems[a], queries[a]), []).append(_Segment(
            tuple(docs[a:b]), tuple(scores[a:b]),
            counting if ranks[a:b] == list(counting) else tuple(ranks[a:b]),
            source, None if line is None else line + a))


def _checked(
    segments: _Segments, strict_scores: bool, names: list[str] | None = None
) -> _RunColumns:
    """Join each group's segments into (docs, scores) columns in rank order.

    Segments whose ranks chain 1..n are joined as they are, others merged by
    rank. Groups are checked in first-appearance order, each for: a document
    twice in one input (named by the line of its second copy), a duplicate
    rank, a gap, a document twice across inputs or entries, and in strict
    mode a score that rises. Errors start with the `names` of its inputs.
    """
    groups: _RunColumns = {}
    for key, segs in segments.items():
        what = f"system {key[0]!r}, query {key[1]!r}"
        sources = list(dict.fromkeys(seg.source for seg in segs))
        where = "" if names is None else ", ".join(names[s] for s in sources) + ": "
        lines_known = segs[0].line is not None
        for source in sources if lines_known else ():  # a document twice in one input
            own = [seg for seg in segs if seg.source == source]
            docs = _joined([seg.docs for seg in own])
            at = _first_repeat(docs)
            if at is not None:
                line = _joined([range(seg.line, seg.line + len(seg.docs)) for seg in own])[at]
                named = "" if names is None else f"{names[source]}: "
                raise ValidationError(
                    f"{named}duplicate document {docs[at]!r} for {what} (line {line})"
                )
        firsts = accumulate((len(seg.docs) for seg in segs), initial=1)
        if all(seg.ranks == range(r, r + len(seg.docs)) for seg, r in zip(segs, firsts)):
            docs = _joined([seg.docs for seg in segs])
            scores = _joined([seg.scores for seg in segs])
        else:
            by_rank: dict[int, tuple[str, float]] = {}
            for docs, scores, ranks, _, _ in segs:
                for rank, doc, score in zip(ranks, docs, scores):
                    if rank in by_rank:
                        raise ValidationError(f"{where}duplicate rank {rank} for {what}")
                    by_rank[rank] = doc, score
            n = len(by_rank)
            missing = sorted(set(range(1, n + 1)).difference(by_rank))
            if missing:
                raise ValidationError(
                    f"{where}ranks for {what} are not contiguous 1..{n} (missing {missing[:5]})"
                )
            docs, scores = map(tuple, zip(*(by_rank[r] for r in range(1, n + 1))))
        if len(sources) > 1 or not lines_known:  # else checked within its one input
            at = _first_repeat(docs)
            if at is not None:
                raise ValidationError(f"{where}duplicate document {docs[at]!r} for {what}")
        if strict_scores:
            rank = next(compress(count(1), map(operator.lt, scores, scores[1:])), None)
            if rank is not None:
                raise ValidationError(f"{where}score increases from rank {rank} to {rank + 1} "
                                      f"for {what} (strict mode)")
        groups[key] = docs, scores
    return groups


def _joined(parts: list[tuple]) -> tuple:
    """The parts as one tuple; a single part as it is."""
    return parts[0] if len(parts) == 1 else tuple(chain.from_iterable(parts))


def _first_repeat(items: Sequence) -> int | None:
    """Position of the first item equal to an earlier one, or None."""
    if len(set(items)) < len(items):
        seen = set()
        for i, item in enumerate(items):
            if item in seen:
                return i
            seen.add(item)
    return None


class Relevance(Enum):
    RELEVANT = "relevant"
    PARTIALLY_RELEVANT = "partially_relevant"
    IRRELEVANT = "irrelevant"


#: Community-conventional integer grades for the three-level scale.
DEFAULT_GRADE_MAP: dict[int, Relevance] = {
    2: Relevance.RELEVANT,
    1: Relevance.PARTIALLY_RELEVANT,
    0: Relevance.IRRELEVANT,
}


class JudgmentSet:
    """Graded relevance assessments; absence of a (query, doc) pair means unjudged."""

    def __init__(self, grades: Mapping[tuple[str, str], Relevance]):
        self._grades = dict(grades)

    def grade(self, query: str, doc: str) -> Relevance | None:
        return self._grades.get((query, doc))

    def queries(self) -> list[str]:
        return sorted({q for q, _ in self._grades})

    def relevant_docs(self, query: str, include_partial: bool = False) -> set[str]:
        wanted = {Relevance.RELEVANT}
        if include_partial:
            wanted.add(Relevance.PARTIALLY_RELEVANT)
        return {d for (q, d), g in self._grades.items() if q == query and g in wanted}

    def items(self) -> Iterator[tuple[str, str, Relevance]]:
        for (q, d) in sorted(self._grades):
            yield q, d, self._grades[(q, d)]

    def __len__(self) -> int:
        return len(self._grades)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JudgmentSet):
            return NotImplemented
        return self._grades == other._grades


def _iter_records(
    stream: Iterable[str], n_cols: int, start: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for every data line; skip blanks and # comments."""
    for lineno, raw in enumerate(stream, start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != n_cols:
            raise ParseError(
                f"expected {n_cols} whitespace-separated fields, got {len(fields)}", lineno
            )
        yield lineno, fields


def parse_run_file(stream: IO[str], strict_scores: bool = False) -> RunSet:
    """Parse a 6-column run file; may contain any number of systems."""
    segments: _Segments = {}
    _read_runs(stream, segments, 0)
    return RunSet._from_columns(_checked(segments, strict_scores))


#: Characters of run input read per chunk.
_CHUNK_CHARS = 1 << 16


def _read_runs(stream: IO[str], segments: _Segments, source: int) -> None:
    """Read one run input into `segments`, in chunks of `_CHUNK_CHARS`.

    Rows are cut into segments at each rank 1. The rows after the last rank 1
    are held back, since their group may continue in the next chunk, so a
    group whose lines come in rank order arrives whole; a skipped line ends
    the held rows. A chunk with a line that does not convert is read again
    line by line, for the error of its first such line.
    """
    columns: list[list] = [[], [], [], [], []]  # queries, docs, ranks, scores, systems
    ranks = columns[2]
    line = lineno = 1  # line numbers of the first held row and of the chunk's first line
    while lines := stream.readlines(_CHUNK_CHARS):
        try:
            pieces = _pieces(lines, lineno)
        except ValueError:
            _raise_first_fault(lines, lineno)
        lineno += len(lines)
        del lines
        for first, piece in pieces:
            if first != line + len(ranks):  # a skipped line ends the held rows
                if ranks:
                    _cut(segments, columns, 0, len(ranks), source, line)
                for column in columns:
                    column.clear()
                line = first
            held = len(ranks)
            for column, new in zip(columns, piece):
                column += new
            start = 0
            while True:
                try:  # held rows have no rank 1 after their first
                    stop = ranks.index(1, max(start + 1, held))
                except ValueError:
                    break
                _cut(segments, columns, start, stop, source, line)
                start = stop
            for column in columns:
                del column[:start]
            line += start
    if ranks:
        _cut(segments, columns, 0, len(ranks), source, line)


def _pieces(lines: list[str], lineno: int) -> list[tuple[int, list]]:
    """(line number, columns) of each run of data lines, which are neither blank nor start
    with "#"; ValueError on a data line that does not convert."""
    rows = list(map(str.split, lines))
    if set(map(len, rows)) == {6} and "#" not in "".join(lines):
        spans = [(0, len(rows))]
    else:
        data = [bool(row) and not row[0].startswith("#") for row in rows]
        ends = list(accumulate(len(list(run)) for _, run in groupby(data)))
        spans = [(a, b) for a, b in zip([0, *ends], ends) if data[a]]
    pieces = []
    for a, b in spans:
        if set(map(len, rows[a:b])) != {6}:
            raise ValueError("a line without 6 fields")
        queries, _, docs, ranks, scores, systems = zip(*rows[a:b])
        ranks, scores = list(map(int, ranks)), list(map(float, scores))
        if min(ranks) < 1 or not all(map(math.isfinite, scores)):
            raise ValueError("a rank below 1 or a score that is not finite")
        pieces.append((lineno + a, [queries, docs, ranks, scores, systems]))
    return pieces


def _raise_first_fault(lines: list[str], lineno: int) -> NoReturn:
    """Raise the error of the first line that does not convert, as a line reader does."""
    for lineno, (_, _, _, rank_s, score_s, _) in _iter_records(lines, 6, lineno):
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"rank is not an integer: {rank_s!r}", lineno) from None
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {rank}", lineno)
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"score is not a number: {score_s!r}", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"score is not finite: {score_s!r}", lineno)
    raise AssertionError("a chunk that does not convert has no faulty line")


def parse_judgments(stream: IO[str], grade_map: Mapping[int, Relevance] | None = None) -> JudgmentSet:
    """Parse a 4-column judgment file through `grade_map` (default 2/1/0)."""
    if grade_map is None:
        grade_map = DEFAULT_GRADE_MAP
    grades: dict[tuple[str, str], Relevance] = {}
    for lineno, fields in _iter_records(stream, 4):
        query, _iter, doc, grade_s = fields
        try:
            grade_val = int(grade_s)
        except ValueError:
            raise ParseError(f"grade is not an integer: {grade_s!r}", lineno) from None
        if grade_val not in grade_map:
            raise ConfigError(
                f"line {lineno}: grade value {grade_val} has no mapping "
                f"(known: {sorted(grade_map)})"
            )
        grade = grade_map[grade_val]
        key = (query, doc)
        if key in grades and grades[key] is not grade:
            raise ValidationError(
                f"conflicting grades for query {query!r}, doc {doc!r} (line {lineno})"
            )
        grades[key] = grade
    return JudgmentSet(grades)


def write_run_file(runs: RunSet, sink: IO[str]) -> None:
    """Emit the 6-column format with dummy column "0" and 6-decimal scores."""
    for (system, query), (docs, scores) in sorted(runs._groups.items()):
        _check_token(query, "query id")
        _check_token(system, "system id")
        for doc in docs:
            _check_token(doc, "doc id")
        sink.writelines(
            f"{query} 0 {doc} {rank} {score:.6f} {system}\n"
            for rank, (doc, score) in enumerate(zip(docs, scores), start=1)
        )


def write_judgments(judgments: JudgmentSet, sink: IO[str]) -> None:
    """Emit the 4-column judgment format with iter column "0" and grades 2/1/0."""
    values = {grade: value for value, grade in DEFAULT_GRADE_MAP.items()}
    for query, doc, grade in judgments.items():
        sink.write(f"{query} 0 {doc} {values[grade]}\n")


def load_runs(path: str | Path, strict_scores: bool = False) -> RunSet:
    """Load runs from a single file or from every regular file in a directory.

    Each file is read once, in name order, by the run reader; a group may
    continue from one file into another. A line error names its file and
    line; a group error names the files that hold the group.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise ConfigError(f"runs directory {path} contains no files")
    else:
        files = [path]
    segments: _Segments = {}
    for source, f in enumerate(files):
        with open(f, "r", encoding="utf-8-sig") as fh:
            try:
                _read_runs(fh, segments, source)
            except UnicodeDecodeError as exc:
                raise _decode_error(f, exc) from exc
            except ParseError as exc:
                raise ParseError(f"{f.name}: {exc}") from exc
    return RunSet._from_columns(_checked(segments, strict_scores, [f.name for f in files]))


def load_judgments(path: str | Path, grade_map: Mapping[int, Relevance] | None = None) -> JudgmentSet:
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return parse_judgments(fh, grade_map)
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc
        except (ParseError, ValidationError, ConfigError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc


def _decode_error(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """Name the file and the first line of it that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return ParseError(f"{path.name}: line {lineno}: not valid UTF-8 ({exc.reason})")
    return ParseError(f"{path.name}: not valid UTF-8 ({exc.reason})")
