"""A fixed pure-Python workload that measures how fast the CPU runs right now.

On a shared virtual machine the speed of a vCPU changes in phases of seconds
to minutes, by up to twice, as other tenants load the host. A command's wall
time alone then says more about the phase it ran in than about the program.
`run.py` calibrates just before and just after every command, on the same
pinned CPU, and reports the commands' summed wall time over their summed
calibration time: the phases slow both alike, so the ratio stays put.

The work mimics what noveval does: split run lines, build per-(system, query)
dicts, add Fractions and sort strings. It depends on nothing in `src/`, so no
change to the program can change it. It keeps little memory, a few MB.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Set-up times are reported as if calibrate() took this long: the warm-up's
# wall time over its calibration time, times this. It only fixes the scale.
REFERENCE_S = 0.05

_rng = random.Random("perfbench/calibrate")
_LINES = [
    f"q{_rng.randrange(40):03d} Q0 doc{_rng.randrange(10**6):07d} {i % 500 + 1} "
    f"{_rng.random():.4f} sys{_rng.randrange(12):02d}"
    for i in range(10_000)
]


def calibrate() -> float:
    """Run the fixed workload once; return its wall time in seconds."""
    t0 = time.perf_counter()
    groups: dict[tuple[str, str], dict[str, int]] = {}
    for line in _LINES:
        query, _, doc, rank, _, system = line.split()
        groups.setdefault((system, query), {})[doc] = int(rank)
    total = Fraction(0)
    for ranks in groups.values():
        total += sum((Fraction(501 - r, 500) for r in ranks.values()), start=Fraction(0)) / len(ranks)
    ordered = sorted(doc for ranks in groups.values() for doc in ranks)
    if not total or len(ordered) != len(_LINES):
        raise AssertionError("calibration workload computed a wrong result")
    return time.perf_counter() - t0


def calibrate_for(seconds: float) -> float:
    """Repeat calibrate() until the rounds have taken `seconds`, at least once;
    return the mean time of a round."""
    times = [calibrate()]
    while sum(times) < seconds:
        times.append(calibrate())
    return sum(times) / len(times)
