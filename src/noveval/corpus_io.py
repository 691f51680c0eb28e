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

A `RunSet` stores each (system, query) group as three columns in rank order:
document ids, ranks and scores. One reader takes every run input, each file of
`load_runs` and the stream of `parse_run_file`. It splits a chunk of whole lines as
bytes with one `bytes.split` where it can, else line by line, and cuts the chunk on its
own into (system, query) segments, at rank-1 rows and key changes. Lines of single
spaces split there, five tokens a line: each line's system and the next line's query
share a token, which proves the field count and, a window at a time, the key (see
`_five`); other lines split with a NUL token a line (see `_tokens`). A score column of
digits around one "." is finite by its shape, and only the scores that a segment keeps
are converted (see `_scores`). In `load_runs(..., judged=J)` the reader clears each
segment's ids as it reads them and holds only the rows of documents that J grades
relevant or partially relevant (see `_clear`): their ids as J's own strings, their ranks
and scores in typed arrays. A file whose groups all clear is valid as read, and its kept
columns are its result; a file with a group that does not clear is read again whole, as
the merge below reads files again, and under strict scores, whose check needs every
score, each file is read whole from the start. One group check, which `RunSet(entries)`
shares, checks each group of a whole read: it joins a group's segments, decides what is
valid and what every error says, and with J keeps J's rows. `load_runs` reads each file
on its own, so it holds one file's segments and one chunk's tokens at a time; it then
merges the files in order, checking a group that crosses files after a second read of
only the files that hold it, as soon as the last of them is read again.
The judgment reader splits the same chunks the same way. `JudgmentSet` indexes its grades
and relevant documents by query. A file is hashed as it is read; `hashlib`, which loads
OpenSSL, is imported at the first file read.

No method changes a parsed structure after construction or hands out the arrays behind
a judged group's columns, so every structure is safe to share across threads.
"""

from __future__ import annotations

import codecs
import math
import operator
from array import array
from bisect import bisect_right
from enum import Enum
from itertools import accumulate, chain, compress, count, groupby
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConfigError, ParseError, ValidationError


def _check_token(value: str, what: str) -> str:
    # Non-empty and free of whitespace: str.split() splits on every str.isspace character.
    if value.split() != [value]:
        raise ValidationError(f"{what} must be a non-empty token without whitespace: {value!r}")
    return value


class RunEntry(NamedTuple):
    """One retrieved document: (query, doc) at a 1-based rank with a system score."""

    query: str
    doc: str
    rank: int
    score: float
    system: str


#: (system, query) -> (document ids, ranks, scores), all in rank order.
_RunColumns = dict[tuple[str, str], tuple[tuple[str, ...], Sequence[int], tuple[float, ...]]]

_NO_GROUP = ((), (), ())


class _Segment(NamedTuple):
    """Rows of one (system, query) group from one input, in input order."""
    docs: str | tuple[str, ...]  # " "-joined; a tuple for entries
    scores: array | tuple[float, ...]
    ranks: range | tuple[int, ...]  # a range when they count up by one
    source: int  # the input's number
    line: int | None  # of the first row (the rows are consecutive lines)


#: (system, query) -> its segments, keys in first-appearance order.
_Segments = dict[tuple[str, str], list[_Segment]]


class RunSet:
    """All ranked retrieval results, grouped by (system, query).

    Within each (system, query) group, ranks are exactly 1..n with no gaps
    or duplicates and document ids are unique. Construction validates this.
    Each group is stored as three columns in rank order: document ids (a
    tuple), ranks and scores. A whole group has ranks `range(1, n + 1)` and a
    tuple of scores; a `RunSet` from `load_runs(..., judged=J)` holds only
    each group's rows of documents that J grades relevant or partially
    relevant, with their own ranks, and keeps the key of a group with none:
    their ids are J's own strings, and their ranks and scores are arrays of
    unsigned ints and doubles. No method changes a column or hands one out,
    so an instance does not change after construction.
    """

    def __init__(self, entries: Iterable[RunEntry], strict_scores: bool = False):
        rows = [(e.query, e.doc, e.rank, e.score, e.system) for e in entries]
        for query, _, rank, score, system in rows:  # as the reader checks each line
            if not isinstance(rank, int):
                raise _fault((system, query), [0], None,
                             f"rank {_echo(repr(rank), str)} is not an integer")
            if not (isinstance(score, (int, float)) and math.isfinite(score)):
                raise _fault((system, query), [0], None,
                             f"score {_echo(repr(score), str)} is not a finite number")
        segments: _Segments = {}
        if rows:
            _cut(segments, _windowed(*map(list, zip(*rows))), 0, None)
        self._groups = _checked(segments, strict_scores)

    @classmethod
    def _from_columns(cls, groups: _RunColumns) -> RunSet:
        """Wrap (system, query) -> (docs, ranks, scores) columns that are already validated."""
        runs = cls.__new__(cls)
        runs._groups = groups
        return runs

    def systems(self) -> list[str]:
        return sorted({s for s, _ in self._groups})

    def queries(self) -> list[str]:
        return sorted({q for _, q in self._groups})

    def entries(self) -> Iterator[RunEntry]:
        """All entries held, in deterministic (system, query, rank) order."""
        for (system, query), (docs, ranks, scores) in sorted(self._groups.items()):
            for doc, rank, score in zip(docs, ranks, scores):
                yield RunEntry(query=query, doc=doc, rank=rank, score=score, system=system)

    def ranking(self, system: str, query: str, depth: int | None = None, *,
                among: set[str] | None = None) -> dict[str, int]:
        """Document -> rank map for one (system, query) to `depth`; with `among`, only its docs."""
        docs, ranks, _ = self._groups.get((system, query), _NO_GROUP)
        if depth is not None:
            held = bisect_right(ranks, depth)
            docs, ranks = docs[:held], ranks[:held]
        ranked = zip(docs, ranks)
        return dict(ranked if among is None else compress(ranked, map(among.__contains__, docs)))

    def __eq__(self, other: object) -> bool:
        """The same groups with the same column contents, whatever sequence types hold them."""
        if not isinstance(other, RunSet):
            return NotImplemented
        mine, theirs = self._groups, other._groups
        return mine.keys() == theirs.keys() and all(
            list(a) == list(b) for key in mine for a, b in zip(mine[key], theirs[key]))

    def __len__(self) -> int:
        """The number of rows held."""
        return sum(len(docs) for docs, _, _ in self._groups.values())


def _windowed(queries: list, docs: list, ranks: list, scores: list, systems: list) -> list | None:
    """The rows of the columns (queries, docs, ranks, scores, systems) as `_cut` takes them:
    [windows, docs, scores], each window (first row, end, query, system, ranks) of rows of
    one key, cut at each rank 1 and then at each change of key, with its ranks as
    `_counting` gives them; None if a window's rank tokens do not count up."""
    one = b"1" if isinstance(ranks[0], bytes) else 1
    windows, a, n = [], 0, len(ranks)
    while a < n:  # rows a..b run from one rank 1 to the next
        try:
            b = ranks.index(one, a + 1)
        except ValueError:
            b = n
        if queries[a:b].count(queries[a]) == systems[a:b].count(systems[a]) == b - a:
            windows.append((a, b, queries[a], systems[a], _counting(ranks, a, b)))
        else:
            for (system, query), run in groupby(zip(systems[a:b], queries[a:b])):
                end = a + len(list(run))
                windows.append((a, end, query, system, _counting(ranks, a, end)))
                a = end
        a = b
    return [windows, docs, scores] if all(window[4] for window in windows) else None


def _cut(segments: dict, rows: list, source: int, first: int | None,
         judged: JudgmentSet | None = None, opened: list | None = None) -> None:
    """Add the rows [windows, docs, scores] (see `_windowed`) to `segments`, a segment a
    window; `first` is the line number of row 0, None for entries. Scores are floats, or,
    in a read that clears its ids, tokens proven finite (see `_scores`), converted here
    only for the rows kept. With `judged` (a read that clears) and `opened`, the ids are
    cleared by `_clear`, and `segments` maps each key to its group's kept columns, built as
    the read goes: [ids as the judgments' own strings, ranks array, scores array]."""
    windows, docs, scores = rows
    raw = type(docs[0]) is bytes
    spelled = type(scores[0]) is bytes  # tokens proven finite, not yet converted
    for a, b, query, system, seg_ranks in windows:
        seg_docs = docs[a:b]
        key = (system.decode(), query.decode()) if raw else (system, query)
        if judged is None:
            if raw:
                packed = b" ".join(seg_docs).decode()
            else:
                packed = tuple(seg_docs) if first is None else " ".join(seg_docs)
            segments.setdefault(key, []).append(_Segment(
                packed, tuple(scores[a:b]) if first is None else array("d", scores[a:b]),
                seg_ranks, source, None if first is None else first + a))
            continue
        wanted = (judged._raw_ids if raw else judged._ids).get(query, {})
        kept = _clear(opened, segments, key, seg_ranks, seg_docs, wanted)
        seg_scores = map(scores.__getitem__, map(a.__add__, kept))
        kept_docs, kept_ranks, kept_scores = segments.setdefault(key, ([], array("I"), array("d")))
        kept_docs.extend(map(wanted.__getitem__, map(seg_docs.__getitem__, kept)))
        kept_ranks.extend(map(seg_ranks.__getitem__, kept))
        kept_scores.extend(map(float, seg_scores) if spelled else seg_scores)


class _Unclear(Exception):
    """Ids that a judged read cannot clear as it reads them (see `_clear`)."""


def _clear(opened: list, segments: dict, key: tuple[str, str], ranks: range | tuple,
           docs: Sequence, wanted: dict) -> list:
    """The offsets, in order, of the segment's ids (tokens, bytes or text) that `wanted`
    holds, once they clear. They clear if the segment starts a group at rank 1 that
    `segments` does not hold yet, or continues the group `opened` by the segment before it
    ([key, next rank, ids, the ids of `wanted` not among them]; only a chunk's row 0 can),
    and adding them to the group's ids leaves none there twice. Any other segment raises
    `_Unclear` (a group that starts past rank 1, the key back, ranks that do not count up,
    an id twice), and its input is read again whole: so an input that clears holds each
    group once, from rank 1, ranks counting up, no id twice."""
    if type(ranks) is not range:
        raise _Unclear
    if opened and opened[0] == key and ranks.start == opened[1]:
        ids, left = opened[2:]
        if type(docs[0]) is not type(next(iter(ids))):  # one chunk split as bytes, one as text
            ids, left = ({d.decode() if isinstance(d, bytes) else d.encode() for d in held}
                         for held in (ids, left))
    elif ranks.start == 1 and key not in segments:
        ids, left = set(), wanted.keys()
    else:
        raise _Unclear
    held = len(ids)
    ids.update(docs)
    if len(ids) != held + len(docs):
        raise _Unclear
    found = left & ids  # a scan of the smaller set
    opened[:] = key, ranks.stop, ids, left - found
    # A few found ids are placed by index: each scan from row 0 costs about a fifth of a
    # membership test a row, so 8 cost at most 1.7x the tests, and far less where the kept
    # rows rank high, as relevant ones do.
    if len(found) <= 8:
        return sorted(map(docs.index, found))
    return list(compress(count(), map(found.__contains__, docs)))


#: b"1", b"2", ...: rank tokens in plain digits. A memo of its length alone, replaced
#: whole when deeper ranks are read, so a concurrent reader keeps a complete table.
_PLAIN_RANKS: list[bytes] = []
_PLAIN_DEPTH = 1 << 16


def _counting(ranks: list, a: int, b: int) -> range | tuple | None:
    """Ranks a..b as a range if they count up by one, else as a tuple; rank tokens count up
    only in plain digits from 1 or more ("1", "2", ...), and give None if they do not."""
    global _PLAIN_RANKS
    if type(ranks[a]) is not bytes:
        counting = range(ranks[a], ranks[a] + b - a)
        return counting if ranks[a:b] == list(counting) else tuple(ranks[a:b])
    try:
        first = int(ranks[a])
    except ValueError:
        return None
    stop = first - 1 + b - a
    if first < 1 or stop > _PLAIN_DEPTH:
        return None
    plain = _PLAIN_RANKS
    if len(plain) < stop:
        plain = _PLAIN_RANKS = [b"%d" % r for r in range(1, 1 + (1 << (stop - 1).bit_length()))]
    return range(first, stop + 1) if ranks[a:b] == plain[first - 1:stop] else None


def _checked(segments: _Segments, strict_scores: bool, names: list[str] | None = None,
             hold: bool = False, judged: JudgmentSet | None = None) -> dict:
    """Join each group's segments into (docs, ranks, scores) columns in rank order.

    This is the one place where a group's segments are joined; it pops them
    from `segments` as it goes and unpacks one group's documents at a time, so
    no group is held twice. Groups are checked in first-appearance order; the
    first error is raised, or, with `hold`, stored in place of the group's
    columns (without its traceback, which would keep them alive) and the check
    goes on. A judged read passes `judged`, whose id strings the kept rows share.
    """
    groups = {}
    for key in list(segments):
        segs = segments.pop(key)
        try:
            groups[key] = _group(key, segs, strict_scores, names, judged)
        except ValidationError as exc:
            if not hold:
                raise
            groups[key] = exc.with_traceback(None)
    return groups


def _group(key: tuple[str, str], segs: list[_Segment], strict_scores: bool,
           names: list[str] | None,
           judged: JudgmentSet | None) -> tuple[Sequence[str], Sequence[int], Sequence[float]]:
    """One group's (docs, ranks, scores) columns in rank order, checked.

    Segments whose ranks chain 1..n are joined as they are, others merged by rank.
    The group is checked for: a document twice in one input (named by the line of
    its second copy), a duplicate rank, a gap, a document twice across inputs or
    entries, and in strict mode a score that rises. A duplicate rank or document
    names the line of the row that repeats it, a gap that of the lowest rank past it,
    and its input when the group lies in more than one. Errors start with the `names`
    of its inputs. A group is stored whole, or, with `judged`, checked whole and then
    filtered to its rows of documents that `judged` keeps, in rank order: their ids as its
    own strings, their ranks and scores in typed arrays.
    """
    lines_known = segs[0].line is not None
    sources = list(dict.fromkeys(seg.source for seg in segs))
    parts = [seg.docs.split(" ") if lines_known else seg.docs for seg in segs]  # every row's
    docs = _joined(parts)  # in input order
    for source in sources if lines_known else ():  # a document twice in one input
        own = [i for i, seg in enumerate(segs) if seg.source == source]
        own_docs = docs if len(sources) == 1 else _joined([parts[i] for i in own])
        dup = _first_repeat(own_docs)
        if dup is not None:
            line = _joined([range(segs[i].line, segs[i].line + len(parts[i])) for i in own])[dup]
            raise _fault(key, [source], names, f"duplicate document {_echo(own_docs[dup])}",
                         f" (line {line})")
    seg_ranks = [seg.ranks for seg in segs]
    firsts = accumulate(map(len, seg_ranks), initial=1)
    chained = all(ranks == range(r, r + len(ranks)) for ranks, r in zip(seg_ranks, firsts))
    if chained:
        scores = _joined([seg.scores for seg in segs])
    else:
        by_rank: dict[int, tuple[str, float]] = {}
        for part, seg in zip(parts, segs):
            for i, rank, doc, score in zip(count(), seg.ranks, part, seg.scores):
                if rank in by_rank:
                    raise _fault(key, sources, names, f"duplicate rank {_echo(str(rank), str)}",
                                 row=(seg, i))
                by_rank[rank] = doc, score
        n = len(by_rank)
        missing = sorted(set(range(1, n + 1)).difference(by_rank))
        if missing:  # a read names the row of the lowest rank past the first gap
            row = None
            if lines_known:  # ranks >= 1, so one is past the gap (entries may hold 0)
                above = min(filter(missing[0].__lt__, by_rank))
                seg = next(seg for seg in segs if above in seg.ranks)
                row = seg, seg.ranks.index(above)
            raise _fault(key, sources, names, "ranks",
                         f" are not contiguous 1..{n} (missing {missing[:5]})", row=row)
        docs, scores = zip(*(by_rank[r] for r in range(1, n + 1)))
    if len(sources) > 1 or not lines_known:  # else checked within its one input
        dup = _first_repeat(docs)  # at rank dup + 1
        if dup is not None:
            seg = next(seg for seg in segs if dup + 1 in seg.ranks)
            raise _fault(key, sources, names, f"duplicate document {_echo(docs[dup])}",
                         row=(seg, seg.ranks.index(dup + 1)))
    if strict_scores:  # the first rank whose score the next one's exceeds
        rank = next(compress(count(1), map(operator.lt, scores, scores[1:])), None)
        if rank is not None:
            raise _fault(key, sources, names, f"score increases from rank {rank} to {rank + 1}",
                         " (strict mode)")
    if judged is None:
        return tuple(docs), range(1, len(docs) + 1), tuple(scores)
    wanted = judged._ids.get(key[1], {})
    rows = list(compress(count(), map(wanted.__contains__, docs)))  # kept, in rank order
    return (tuple(map(wanted.__getitem__, map(docs.__getitem__, rows))),
            array("I", map((1).__add__, rows)), array("d", map(scores.__getitem__, rows)))


def _fault(key: tuple[str, str], sources: list[int], names: list[str] | None, text: str,
           tail: str = "", row: tuple[_Segment, int] | None = None) -> ValidationError:
    """A group's error, built only to be raised: its inputs' names, `text` for the group, then
    `tail` and the line of a (segment, offset) `row`, its input named when the group spans
    inputs."""
    if row is not None and row[0].line is not None:
        seg, i = row
        tail += f" ({names[seg.source] + ' ' if len(sources) > 1 else ''}line {seg.line + i})"
    where = "" if names is None else ", ".join(names[s] for s in sources) + ": "
    return ValidationError(f"{where}{text} for system {_echo(key[0])}, query {_echo(key[1])}{tail}")


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
    """Graded relevance assessments, kept by query; an absent (query, doc) pair is unjudged."""

    def __init__(self, grades: Mapping[tuple[str, str], Relevance]):
        by_query: dict[str, dict[str, Relevance]] = {}
        for (query, doc), grade in grades.items():
            by_query.setdefault(query, {})[doc] = grade
        self._index(by_query)

    def _index(self, by_query: dict[str, dict[str, Relevance]]) -> JudgmentSet:
        """Hold the query -> doc -> grade dicts, none of them empty, and index by query its
        relevant documents and, for the rows a judged read keeps, its relevant and partially
        relevant ones, each id as text and as bytes mapped to its own string."""
        self._by_query, self._relevant, self._ids, self._raw_ids = by_query, {}, {}, {}
        irrelevant, relevant_grade = Relevance.IRRELEVANT, Relevance.RELEVANT  # one lookup each
        for query, grades in by_query.items():
            kept = self._ids[query] = {d: d for d, g in grades.items() if g is not irrelevant}
            self._relevant[query] = tuple(d for d in kept if grades[d] is relevant_grade)
            self._raw_ids[query.encode()] = {d.encode(): d for d in kept}
        return self

    def grade(self, query: str, doc: str) -> Relevance | None:
        return self._by_query.get(query, {}).get(doc)

    def queries(self) -> list[str]:
        return sorted(self._by_query)

    def relevant_docs(self, query: str, include_partial: bool = False) -> set[str]:
        return set((self._ids if include_partial else self._relevant).get(query, ()))

    def items(self) -> Iterator[tuple[str, str, Relevance]]:
        for q, grades in sorted(self._by_query.items()):
            for d in sorted(grades):
                yield q, d, grades[d]

    def __len__(self) -> int:
        return sum(map(len, self._by_query.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JudgmentSet):
            return NotImplemented
        return self._by_query == other._by_query


def _iter_records(
    stream: Iterable[str], n_cols: int, start: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for every data line; skip blanks and # comments."""
    for lineno, raw in enumerate(stream, start):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != n_cols:
            raise ParseError(
                f"expected {n_cols} whitespace-separated fields, got {len(fields)}", lineno
            )
        yield lineno, fields


def parse_run_file(stream: IO[str], strict_scores: bool = False) -> RunSet:
    """Parse a 6-column run file; may contain any number of systems."""
    segments: _Segments = {}
    _read_runs(_stream_reads(stream), segments, 0)
    return RunSet._from_columns(_checked(segments, strict_scores))


def _stream_reads(stream: IO[str]) -> Iterator[bytes]:
    """The reads of a text stream as UTF-8; a character that does not encode (a lone
    surrogate) raises a ParseError that names its line."""
    lineno = 1
    for read in iter(lambda: stream.read(_CHUNK_CHARS), ""):
        try:
            data = read.encode()
        except UnicodeEncodeError as exc:
            raise ParseError(f"not encodable as UTF-8 ({exc.reason})",
                             lineno + read.count("\n", 0, exc.start)) from None
        lineno += read.count("\n")
        yield data


#: Bytes of a run or qrels file (characters of a text stream) read at a time. Since
#: `load_runs` holds one file's segments, one chunk's tokens set the rest of its peak.
#: Judged `load_runs` in-process against 64 KiB (Python 3.11, one pinned core): 32 KiB
#: took 0.99x on deep-runs, 1.00x on pool-wide and 0.97x on the 130 x 50 x 1000 corpus,
#: 16 KiB 1.01x / 1.02x / 0.99x, 8 KiB 1.07x / 1.08x; deep-runs CLI peak RSS was 20.8 MB
#: at 64 KiB, 20.1 at 32 KiB, 19.8 at 16 KiB. 32 KiB is the smallest no slower on any.
_CHUNK_CHARS = 1 << 15

#: Bytes that keep a chunk from the byte split: "#" and NUL, which its checks cannot
#: tell from data, and the separators that str.split splits on and bytes.split does not.
_OFF_SPLIT = (b"#", b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

#: The other whitespace but newline and space, which keeps a chunk from `_five`'s split.
_OFF_SPACE = (b"\t", b"\x0b", b"\x0c", b"\r")


def _read_runs(reads: Iterable[bytes], segments: dict, source: int,
               judged: JudgmentSet | None = None) -> None:
    """Read one run input into `segments`, in chunks cut after the last newline of a read.

    Each chunk is cut on its own; only the partial last line carries over to the
    next, and `_checked` joins a group's segments. A chunk that does not split as
    bytes with plain ranks is decoded and read line by line (see `_rows`), which
    raises the error of its first line that has not 6 fields or does not convert.
    With `judged`, each segment's ids are cleared as read (see `_clear`, which raises
    `_Unclear` at the first segment that does not clear), and `segments` holds each group's
    kept columns (see `_cut`), with only their scores converted; without, every row's
    segments, with every score converted.
    """
    opened: list = []
    for lineno, text, lines in _chunks(reads):
        rows = _split(text, lines, judged is None)
        for first, piece in _rows(text.decode(), lineno) if rows is None else [(lineno, rows)]:
            _cut(segments, piece, source, first, judged, opened)
        rows = piece = None  # this chunk's tokens go before the next chunk is split


def _chunks(reads: Iterable[bytes]) -> Iterator[tuple[int, bytes, int]]:
    """(first line's number, text, line count) of each chunk, cut after a read's last newline."""
    lineno = 1
    tail = b""  # the bytes after the last newline read
    # The reads, then a newline to end a last line that has none (else it reads as blank).
    for read in chain(reads, [b"\n"]):
        cut = read.rfind(b"\n") + 1
        if not cut:
            tail += read  # a line longer than a read
            continue
        text, tail = tail + read[:cut], read[cut:]
        lines = text.count(b"\n")
        yield lineno, text, lines
        lineno += lines


def _byte_split(text: bytes) -> bool:
    """Whether the byte splits may take `text`: ASCII, without "#", NUL or \\x1c-\\x1f."""
    return text.isascii() and not any(map(text.__contains__, _OFF_SPLIT))


def _tokens(text: bytes, n: int, fields: int, decode: bool = False) -> list | None:
    """The tokens, as bytes or `decode`d (both split alike here), of a `text` that
    `_byte_split` takes, split once with a NUL token per newline, if its n lines all hold
    `fields` fields: exactly when that gives (fields + 1) n tokens, a NUL after every `fields`."""
    text = text.replace(b"\n", b" \x00 ")
    toks = (text.decode() if decode else text).split()
    step = fields + 1
    if len(toks) != step * n or toks[fields::step].count("\x00" if decode else b"\x00") != n:
        return None
    return toks


def _split(text: bytes, n: int, convert: bool) -> list | None:
    """The rows (see `_cut`) of n lines of 6 fields each, split as bytes: at single spaces
    (see `_five`), else with the NUL tokens of `_tokens`; scores as `_scores` gives them,
    all converted if `convert`. None if the text does not split so,
    a window's rank tokens do not count up (see `_counting`) or a score is not finite."""
    if not _byte_split(text):
        return None
    rows = _five(text, n)
    if rows is None:
        toks = _tokens(text, n, 6)
        rows = toks and _windowed(toks[0::7], toks[2::7], toks[3::7], toks[4::7], toks[5::7])
        if rows is None:
            return None
    rows[2] = _scores(rows[2], convert)
    return None if rows[2] is None else rows


def _five(text: bytes, n: int) -> list | None:
    """The rows (see `_cut`) of n lines split at single spaces, five tokens a line, if that
    proves each line holds 6 fields and each rank-1 window one key and plain ranks, else None.

    Split so, lines of 5 spaces each give 5n + 1 tokens, and every fifth token joins one
    line's system to the next line's query ("sys\\nq"); the last ends the text ("sys\\n").
    These n merged tokens prove the field count, as `_tokens`' NUL tokens do: if each holds
    a newline, they hold all n, one each, so no other token holds one and each line holds 5
    spaces. They are checked a window at a time (rows a..b, from one rank 1 to the next),
    with its ranks (see `_counting`): its key is `system\\nquery`, from the token before the
    window and the window's last, and the tokens between must all equal it. With no empty
    part or doc or "Q0" token, each line holds 6 non-empty fields, as str.split reads them."""
    if text.count(b" ", 0, text.find(b"\n")) != 5 or any(map(text.__contains__, _OFF_SPACE)):
        return None  # the first line alone spares a split that cannot pass
    toks = text.split(b" ")
    if len(toks) != 5 * n + 1:
        return None
    docs, ranks = toks[2::5], toks[3::5]
    if not (all(docs) and all(toks[1::5])):  # an empty doc or "Q0" token
        return None
    windows, a, query = [], 0, toks[0]
    while a < n:
        try:
            b = ranks.index(b"1", a + 1)
        except ValueError:
            b = n
        system, newline, after = toks[5 * b].partition(b"\n")
        key, counting = system + b"\n" + query, _counting(ranks, a, b)
        if not (query and system and newline and counting) or (
                toks[5 * a + 5:5 * b:5].count(key) != b - 1 - a):
            return None
        windows.append((a, b, query, system, counting))
        a, query = b, after
    return [windows, docs, toks[4::5]]


#: Every digit as "0", for the shape of a score column (see `_scores`).
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _scores(tokens: list[bytes], convert: bool) -> list | None:
    """A score column: unless `convert`, its tokens as they are if their shape proves each a
    finite number, else converted, if each converts and is finite, else None. The shape:
    each token is digits around one ".", not a bare ".", so float() reads it, with no run of
    300 digits, so it is below 1e300 and cannot overflow to inf. Joined, with every digit as
    "0", it is checked whole, with no float() a row; a column whose tokens all have the
    first one's shape, which one comparison proves, is checked on that token alone."""
    if not convert:
        shape = (b" %b " % b" ".join(tokens)).translate(_DIGITS_AS_ZERO)
        first, n = shape[:shape.index(b" ", 1) + 1], len(tokens)  # between its spaces
        if shape == first[:-1] * n + b" ":
            shape, n = first, 1
        if (shape.translate(None, b"0") == b" ." * n + b" "
                and b" . " not in shape and b"0" * 300 not in shape):
            return tokens
    try:
        scores = list(map(float, tokens))
    except ValueError:
        return None
    # A finite sum proves every score finite, as any inf or nan term makes the sum inf or
    # nan, so the scores are tested one by one only when it is not.
    return scores if math.isfinite(sum(scores)) or all(map(math.isfinite, scores)) else None


def _rows(text: str, lineno: int) -> list[tuple[int, list]]:
    """(line number, rows) of each run of data lines, neither blank nor "#", in `text`, split
    line by line, each line's rank and score converted once; the first line that has not 6
    fields or does not convert raises its ParseError."""
    runs, end = [], None
    for lineno, (query, _, doc, rank_s, score_s, system) in _iter_records(
            text.split("\n"), 6, lineno):
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"rank is not an integer: {_echo(rank_s)}", lineno) from None
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {_echo(str(rank), str)}", lineno)
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"score is not a number: {_echo(score_s)}", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"score is not finite: {_echo(score_s)}", lineno)
        if lineno != end:  # a skipped line ends a run
            rows = []
            runs.append((lineno, rows))
        rows.append((query, doc, rank, score, system))
        end = lineno + 1
    return [(first, _windowed(*map(list, zip(*rows)))) for first, rows in runs]


def _echo(token: str, show: Callable[[str], str] = repr) -> str:
    """`show(token)` for an error message, a token of over 40 characters cut to 40."""
    return show(token[:40]) + (f"… ({len(token)} characters)" if len(token) > 40 else "")


def parse_judgments(stream: IO[str], grade_map: Mapping[int, Relevance] | None = None) -> JudgmentSet:
    """Parse a 4-column judgment file through `grade_map` (default 2/1/0)."""
    return _read_judgments(_stream_reads(stream), grade_map)


def _read_judgments(reads: Iterable[bytes],
                    grade_map: Mapping[int, Relevance] | None) -> JudgmentSet:
    """Read one judgment input in the run reader's chunks. A chunk that `_tokens` splits into 4
    fields a line, each grade a mapped value's plain spelling ("2", "-1"), is stored one run of
    rows of a query at a time. Any other chunk, or one with a run that repeats a document or
    meets one already graded, is read line by line, which gives every error and leaves the
    runs stored before it as they were."""
    if grade_map is None:
        grade_map = DEFAULT_GRADE_MAP
    plain = {"%d" % value: grade for value, grade in grade_map.items() if isinstance(value, int)}
    by_query: dict[str, dict[str, Relevance]] = {}
    for first, text, lines in _chunks(reads):
        if _judge_plain(text, lines, plain, by_query):
            continue
        for lineno, (query, _, doc, grade_s) in _iter_records(text.decode().split("\n"), 4, first):
            try:
                grade_val = int(grade_s)
            except ValueError:
                raise ParseError(f"grade is not an integer: {_echo(grade_s)}", lineno) from None
            if grade_val not in grade_map:
                raise ConfigError(
                    f"line {lineno}: grade value {_echo(str(grade_val), str)} has no mapping "
                    f"(known: {sorted(grade_map)})"
                )
            grade = grade_map[grade_val]
            grades = by_query.setdefault(query, {})
            if grades.get(doc, grade) is not grade:
                raise ValidationError(
                    f"conflicting grades for query {_echo(query)}, doc {_echo(doc)} (line {lineno})"
                )
            grades[doc] = grade
    return JudgmentSet({})._index(by_query)


def _judge_plain(text: bytes, n: int, plain: dict[str, Relevance],
                 by_query: dict[str, dict[str, Relevance]]) -> bool:
    """Store the judgments of a plain chunk of n lines (see `_read_judgments`), or return
    False at its first run of rows that repeats a document or meets one already graded."""
    toks = _tokens(text, n, 4, decode=True) if _byte_split(text) else None
    if toks is None:
        return False
    try:
        grades = list(map(plain.__getitem__, toks[3::5]))
    except KeyError:
        return False
    docs, a = toks[2::5], 0
    for query, run in groupby(toks[0::5]):
        b = a + len(list(run))
        grades_of, judged = dict(zip(docs[a:b], grades[a:b])), by_query.get(query, {})
        if len(grades_of) < b - a or not judged.keys().isdisjoint(grades_of.keys()):
            return False
        by_query.setdefault(query, grades_of).update(grades_of)  # a dict updating itself: a no-op
        a = b
    return True


def write_run_file(runs: RunSet, sink: IO[str]) -> None:
    """Emit the 6-column format with dummy column "0" and 6-decimal scores; a judged
    `RunSet` emits only the rows it holds, at their ranks."""
    for (system, query), (docs, ranks, scores) in sorted(runs._groups.items()):
        _check_token(query, "query id")
        _check_token(system, "system id")
        for doc in docs:
            _check_token(doc, "doc id")
        sink.writelines(
            f"{query} 0 {doc} {rank} {score:.6f} {system}\n"
            for doc, rank, score in zip(docs, ranks, scores)
        )


def write_judgments(judgments: JudgmentSet, sink: IO[str]) -> None:
    """Emit the 4-column judgment format with iter column "0" and grades 2/1/0."""
    values = {grade: value for value, grade in DEFAULT_GRADE_MAP.items()}
    for query, doc, grade in judgments.items():
        sink.write(f"{query} 0 {doc} {values[grade]}\n")


def load_runs(path: str | Path, strict_scores: bool = False, *,
              judged: JudgmentSet | None = None, digests: dict[str, str] | None = None) -> RunSet:
    """Load runs from a single file or from every regular file in a directory.

    Each file is read on its own, in name order (see `_read_run_file`), and the
    results are merged in that order. A group that continues from one file into
    another is checked whole from a second read of only the files that hold such
    groups, each group as soon as the last file that holds it is read again. A
    line error names its file and line and is raised at once; group errors wait
    until every file is read, and the first in first-appearance order is raised,
    naming the files that hold the group. With `judged`, every group keeps only
    its rows of documents that `judged` grades relevant or partially relevant; a
    file that does not clear, and with `strict_scores` every file, is read whole.
    `digests`, when given, receives the SHA-256 of each file's bytes by file name.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise ConfigError(f"runs directory {path} contains no files")
    else:
        files = [path]
    names = [f.name for f in files]
    holders: dict[tuple[str, str], list[int]] = {}  # key -> its files, in first-appearance order
    groups: dict = {}  # key -> its columns or its error, in the same order
    for source, f in enumerate(files):
        for key, group in _read_run_file(f, source, judged, strict_scores, names, digests).items():
            holders.setdefault(key, []).append(source)
            groups[key] = group
    across = {key for key, sources in holders.items() if len(sources) > 1}
    segments: _Segments = {}  # the crossing groups that a later file still holds
    for source in sorted({s for key in across for s in holders[key]}):
        own: _Segments = {}
        _read_file(files[source], lambda reads: _read_runs(reads, own, source), None)
        for key in filter(across.__contains__, own):
            segments.setdefault(key, []).extend(own[key])
        ended = {key: segments.pop(key) for key in list(segments) if holders[key][-1] == source}
        groups.update(_checked(ended, strict_scores, names, hold=True, judged=judged))
    for group in groups.values():
        if isinstance(group, ValidationError):
            raise group
    return RunSet._from_columns(groups)


def _read_run_file(path: Path, source: int, judged: JudgmentSet | None, strict_scores: bool,
                   names: list[str], digests: dict | None) -> dict:
    """Read input `source` of `names` on its own: each group's key, in first-appearance
    order, with its checked columns or its error. With `judged`, the ids are cleared as
    read (see `_clear`): a read that clears holds each group once, from rank 1, no id
    twice, its scores proven finite, so it is valid as read and its kept columns are the
    groups' columns. At the first segment that does not clear, the file is read again
    whole from its start; under `strict_scores`, whose check needs every row's score, the
    first read is whole. Each group of a whole read is checked whole and, with `judged`,
    then keeps its rows of `judged`'s documents (see `_group`)."""
    for clear in (None if strict_scores else judged, None):
        segments: dict = {}
        try:
            _read_file(path, lambda reads: _read_runs(reads, segments, source, clear), digests)
        except _Unclear:
            continue  # read again once the handler has freed this read's frames and tokens
        if clear is None:
            return _checked(segments, strict_scores, names, hold=True, judged=judged)
        return {key: (tuple(docs), *rest) for key, (docs, *rest) in segments.items()}


def _file_reads(fh: IO[bytes], digest) -> Iterator[bytes]:
    """The reads of a binary file, each hashed into `digest`, as a text-mode read gives
    them: a leading UTF-8 byte-order mark dropped, CRLF and CR line ends made LF."""
    head = fh.read(len(codecs.BOM_UTF8))
    digest.update(head)
    held = head.removeprefix(codecs.BOM_UTF8)  # bytes not yet given
    for read in iter(lambda: fh.read(_CHUNK_CHARS), b""):
        digest.update(read)
        read, held = held + read, b""
        if read.endswith(b"\r"):  # an LF may start the next read
            read, held = read[:-1], b"\r"
        yield _lf(read)
    yield _lf(held)


def _lf(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def load_judgments(path: str | Path, grade_map: Mapping[int, Relevance] | None = None, *,
                   digests: dict[str, str] | None = None) -> JudgmentSet:
    """Load a judgment file, read once as `parse_judgments` reads a stream; an error names the
    file. `digests`, when given, receives the SHA-256 of its bytes by file name, hashed as read."""
    return _read_file(Path(path), lambda reads: _read_judgments(reads, grade_map), digests)


def _read_file(path: Path, read: Callable[[Iterator[bytes]], Any], digests: dict | None) -> Any:
    """`read` of the file's reads, hashed as read; an error names the file, and `digests`,
    when given, receives the SHA-256 of the file's bytes by file name."""
    import hashlib  # loads OpenSSL, so a command that reads no file (synth) skips its import

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        try:
            result = read(_file_reads(fh, digest))
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc
        except (ParseError, ValidationError, ConfigError) as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
    if digests is not None:
        digests[path.name] = digest.hexdigest()
    return result


def _decode_error(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """Name the file and the first line of it that is not valid UTF-8, with that line's
    reason; its lines end at LF, CRLF or CR, as `_file_reads` ends them."""
    with open(path, "rb") as fh:
        lines = chain.from_iterable(raw.splitlines(keepends=True) for raw in fh)
        for lineno, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as error:
                return ParseError(f"{path.name}: line {lineno}: not valid UTF-8 ({error.reason})")
    return ParseError(f"{path.name}: not valid UTF-8 ({exc.reason})")
