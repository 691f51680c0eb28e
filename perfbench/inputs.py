"""Seeded corpus generator for the benchmark (stdlib only).

It does not use `noveval.synth`, so a change to the package's own generator
cannot change the inputs the benchmark evaluates. The same (shape, seed)
always writes byte-identical files.

Each relevant document gets a popularity drawn skewed towards rare, and each
system a quality; a system retrieves a document with a probability that grows
with both. Rare documents are found by few systems (unique finds), popular ones
by many, so leave-one-out pooling sees the full range of pool numerators.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    systems: int
    queries: int
    depth: int
    relevant: int  # grade-2 documents per query
    partial: int  # grade-1 documents per query
    irrelevant: int  # judged grade-0 documents per query
    split: bool  # one run file per system in a directory (TREC layout)


@dataclass(frozen=True)
class FileDigest:
    name: str
    sha256: str
    lines: int


@dataclass(frozen=True)
class Corpus:
    shape: Shape
    runs: Path  # run file, or directory of run files when shape.split
    qrels: Path
    run_files: tuple[FileDigest, ...]
    qrels_file: FileDigest

    @property
    def run_lines(self) -> int:
        return sum(f.lines for f in self.run_files)

    def run_paths(self) -> list[Path]:
        return [self.runs / f.name for f in self.run_files] if self.shape.split else [self.runs]

    def files(self) -> list[tuple[Path, FileDigest]]:
        """Every generated file with its digest."""
        return [*zip(self.run_paths(), self.run_files), (self.qrels, self.qrels_file)]


def system_ids(n: int) -> list[str]:
    return [f"sys{i:02d}" for i in range(n)]


def query_ids(n: int) -> list[str]:
    return [f"q{i:03d}" for i in range(n)]


def _write(path: Path, lines: list[str]) -> FileDigest:
    data = "".join(lines).encode("utf-8")
    path.write_bytes(data)
    return FileDigest(path.name, hashlib.sha256(data).hexdigest(), len(lines))


def write_corpus(shape: Shape, seed: str, out_dir: Path) -> Corpus:
    """Generate a corpus of `shape` from `seed` and write it under `out_dir`."""
    judged = shape.relevant + shape.partial
    if judged > shape.depth:
        raise ValueError("a run cannot hold every judged-relevant document")
    rng = random.Random(seed)
    systems = system_ids(shape.systems)
    queries = query_ids(shape.queries)
    quality = [0.2 + 0.7 * rng.random() for _ in systems]
    noise_space = 3 * shape.depth
    per_system: dict[str, list[str]] = {s: [] for s in systems}
    qrels: list[str] = []
    for q in queries:
        rel = [f"{q}-r{j:03d}" for j in range(shape.relevant)]
        part = [f"{q}-p{j:03d}" for j in range(shape.partial)]
        qrels.extend(f"{q} 0 {d} 2\n" for d in rel)
        qrels.extend(f"{q} 0 {d} 1\n" for d in part)
        qrels.extend(f"{q} 0 {q}-d{k:05d} 0\n" for k in range(shape.irrelevant))
        popularity = [rng.random() ** 2 for _ in range(judged)]
        for s, qual in zip(systems, quality):
            keyed = [
                (0.6 * rng.random(), d)
                for d, pop in zip(rel + part, popularity)
                if rng.random() < 2.0 * pop * qual
            ]
            noise = rng.sample(range(noise_space), shape.depth - len(keyed))
            keyed.extend((rng.random(), f"{q}-d{k:05d}") for k in noise)
            keyed.sort()
            out = per_system[s]
            n = shape.depth
            for rank, (_, doc) in enumerate(keyed, start=1):
                out.append(f"{q} Q0 {doc} {rank} {(n - rank + 1) / n:.4f} {s}\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    qrels_file = _write(out_dir / "qrels.txt", qrels)
    if shape.split:
        runs = out_dir / "runs"
        runs.mkdir(exist_ok=True)
        run_files = tuple(_write(runs / f"{s}.txt", per_system[s]) for s in systems)
    else:
        runs = out_dir / "runs.txt"
        run_files = (_write(runs, [line for s in systems for line in per_system[s]]),)
    return Corpus(shape, runs, out_dir / "qrels.txt", run_files, qrels_file)
