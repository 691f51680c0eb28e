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
document ids and scores. `load_runs` first tries a columnar fast path on
each file: it reads the file in bounded chunks and accepts it only if its
lines come as whole groups in rank order, each group once. A file it does
not accept is read again with the line parser (`iter_run_entries`), and
`RunSet` merges and checks those entries together with the fast-path
groups they share a key with; the line parser and `RunSet` alone decide
what is valid and what every error says, after the names of the files
that hold the offending lines.

All parsed structures are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

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


def _group_entries(
    key: tuple[str, str], columns: tuple[tuple[str, ...], tuple[float, ...]]
) -> Iterator[RunEntry]:
    """The entries of one (system, query) group, in rank order."""
    system, query = key
    docs, scores = columns
    for rank, (doc, score) in enumerate(zip(docs, scores), start=1):
        yield RunEntry(query=query, doc=doc, rank=rank, score=score, system=system)


class RunSet:
    """All ranked retrieval results, grouped by (system, query).

    Within each (system, query) group, ranks are exactly 1..n with no gaps
    or duplicates and document ids are unique. Construction validates this;
    instances are immutable afterward. Each group is stored as two columns
    in rank order, a tuple of document ids and a tuple of scores; the rank
    of a document is its position plus one.
    """

    def __init__(self, entries: Iterable[RunEntry], strict_scores: bool = False):
        groups: dict[tuple[str, str], dict[int, RunEntry]] = {}
        for e in entries:
            key = (e.system, e.query)
            group = groups.setdefault(key, {})
            if e.rank in group:
                raise ValidationError(
                    f"duplicate rank {e.rank} for system {e.system!r}, query {e.query!r}", key
                )
            group[e.rank] = e
        self._groups: _RunColumns = {}
        for key in list(groups):
            # Pop each rank dict as it is converted, so both forms are never held whole.
            by_rank = groups.pop(key)
            system, query = key
            n = len(by_rank)
            if set(by_rank) != set(range(1, n + 1)):
                missing = sorted(set(range(1, n + 1)) - set(by_rank))
                raise ValidationError(
                    f"ranks for system {system!r}, query {query!r} are not contiguous "
                    f"1..{n} (missing {missing[:5]})", key
                )
            ordered = [by_rank[r] for r in range(1, n + 1)]
            seen_docs: set[str] = set()
            for e in ordered:
                if e.doc in seen_docs:
                    raise ValidationError(
                        f"duplicate document {e.doc!r} for system {system!r}, query {query!r}",
                        key,
                    )
                seen_docs.add(e.doc)
            if strict_scores:
                for a, b in zip(ordered, ordered[1:]):
                    if b.score > a.score:
                        raise ValidationError(
                            f"score increases from rank {a.rank} to {b.rank} for system "
                            f"{system!r}, query {query!r} (strict mode)", key
                        )
            self._groups[key] = (
                tuple(e.doc for e in ordered),
                tuple(e.score for e in ordered),
            )

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
        for key in sorted(self._groups):
            yield from _group_entries(key, self._groups[key])

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


def _iter_records(stream: IO[str], n_cols: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for every data line; skip blanks and # comments."""
    for lineno, raw in enumerate(stream, start=1):
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
    entries = list(iter_run_entries(stream))
    return RunSet(entries, strict_scores=strict_scores)


def iter_run_entries(stream: IO[str]) -> Iterator[RunEntry]:
    seen: set[tuple[str, str, str]] = set()
    for lineno, fields in _iter_records(stream, 6):
        query, _dummy, doc, rank_s, score_s, system = fields
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
        key = (system, query, doc)
        if key in seen:
            raise ValidationError(
                f"duplicate document {doc!r} for system {system!r}, query {query!r} "
                f"(line {lineno})"
            )
        seen.add(key)
        yield RunEntry(query=query, doc=doc, rank=rank, score=score, system=system)


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


#: Characters of run file read per chunk by the columnar fast path in `load_runs`.
_CHUNK_CHARS = 1 << 16


def load_runs(path: str | Path, strict_scores: bool = False) -> RunSet:
    """Load runs from a single file or from every regular file in a directory.

    A file whose lines come as whole (system, query) groups in rank order,
    each group once and none read from an earlier file, is read in columns
    by `_read_columns`. Any other file (comments, blank lines, other line
    orders, a group that continues from an earlier file, or a line the fast
    path does not accept) is read by `iter_run_entries`. `RunSet` then
    merges and checks those entries, in file order, together with the
    fast-path groups that share their keys; the line parser and `RunSet`
    alone decide what is valid and what an error says, after the names of
    the files that hold the group.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise ConfigError(f"runs directory {path} contains no files")
    else:
        files = [path]
    # Per file, in order: its groups (fast path) or its entries (line parser).
    parts: list[_RunColumns | list[RunEntry]] = []
    seen: set[tuple[str, str]] = set()
    for f in files:
        with open(f, "r", encoding="utf-8-sig") as fh:
            part = _read_columns(fh, seen, strict_scores)
        if part is None:
            part = _read_entries(f)
            seen.update((e.system, e.query) for e in part)
        else:
            seen.update(part)
        parts.append(part)
    slow = {(e.system, e.query) for part in parts if isinstance(part, list) for e in part}
    groups: _RunColumns = {}
    entries: list[RunEntry] = []
    files_of: dict[tuple[str, str], list[str]] = {key: [] for key in slow}  # for errors
    for f, part in zip(files, parts):
        if isinstance(part, list):
            entries += part
            for key in {(e.system, e.query) for e in part}:
                files_of[key].append(f.name)
        else:
            for key, columns in part.items():
                if key in slow:
                    entries += _group_entries(key, columns)
                    files_of[key].append(f.name)
                else:
                    groups[key] = columns
    if entries:
        try:
            groups.update(RunSet(entries, strict_scores=strict_scores)._groups)
        except ValidationError as exc:
            raise ValidationError(f"{', '.join(files_of[exc.group])}: {exc}", exc.group) from exc
    return RunSet._from_columns(groups)


def _read_entries(path: Path) -> list[RunEntry]:
    """Read one run file with the line parser; errors name the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return list(iter_run_entries(fh))
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc


def _read_columns(
    fh: IO[str], seen: set[tuple[str, str]], strict_scores: bool
) -> _RunColumns | None:
    """The groups of one run file, or None where the file needs the line parser.

    The file is read in chunks of `_CHUNK_CHARS`, split and transposed into
    columns, and checked one group at a time with list operations. A group
    starts at each rank 1; the last group of a chunk is held back, since it
    may continue in the next one. A group is accepted when every line has 6
    fields, the first does not start with "#", the ranks are exactly 1..n,
    the query and system are constant, the documents are unique, the key is
    neither in `seen` nor earlier in this file, and (in strict mode) the
    scores do not increase.
    """
    groups: _RunColumns = {}
    queries: list[str] = []
    docs: list[str] = []
    ranks: list[int] = []
    scores: list[float] = []
    systems: list[str] = []
    while True:
        try:
            lines = fh.readlines(_CHUNK_CHARS)
        except UnicodeDecodeError:
            return None
        more = bool(lines)
        held = len(ranks)
        if more:
            rows = list(map(str.split, lines))
            del lines
            if set(map(len, rows)) != {6}:
                return None
            q, _, d, r, s, y = zip(*rows)
            del rows
            try:
                new_ranks = list(map(int, r))
                new_scores = list(map(float, s))
            except ValueError:
                return None
            if not all(map(math.isfinite, new_scores)):
                return None
            queries += q
            docs += d
            ranks += new_ranks
            scores += new_scores
            systems += y
        if not ranks:
            return groups
        if ranks[0] != 1:
            return None
        start = 0
        while start < len(ranks):
            try:
                # The held-back group has no rank 1 after its first line.
                stop = ranks.index(1, max(start + 1, held))
            except ValueError:
                if more:
                    break  # hold the last group back: it may continue in the next chunk
                stop = len(ranks)
            n = stop - start
            query, system = queries[start], systems[start]
            key = (system, query)
            group_docs = tuple(docs[start:stop])
            group_scores = tuple(scores[start:stop])
            if (
                key in groups
                or key in seen
                or query.startswith("#")
                or ranks[start:stop] != list(range(1, n + 1))
                or queries[start:stop].count(query) != n
                or systems[start:stop].count(system) != n
                or len(set(group_docs)) != n
                or (strict_scores and list(group_scores) != sorted(group_scores, reverse=True))
            ):
                return None
            groups[key] = (group_docs, group_scores)
            start = stop
        if not more:
            return groups
        del queries[:start], docs[:start], ranks[:start], scores[:start], systems[:start]


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
