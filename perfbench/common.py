"""Shared plumbing: locating the program, statistics, and the result line.

The benchmark runs from the root of a source checkout and measures the
program found under ``src/`` there — never an installed copy.  Every
figure it prints is computed here from raw samples, so the three
workloads report their metrics the same way.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Percentiles the tail metric may use, lowest first.  A run reports the
#: highest one that leaves at least ten samples beyond it.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, failed launch)."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or raise SetupError."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def program_env() -> Dict[str, str]:
    """Environment for child processes that must import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (0 < pct < 100)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with ≥ 10 samples beyond it."""
    best = None
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


def latency_summary(samples_s: Sequence[float], tail_pct: float) -> Dict:
    """Median and the fixed tail percentile of latencies, in ms."""
    ms = [s * 1000.0 for s in samples_s]
    supported = tail_percentile(len(ms))
    return {
        "samples": len(ms),
        "p50_ms": percentile(ms, 50.0),
        "tail_pct": tail_pct,
        "tail_ms": percentile(ms, tail_pct),
        "highest_supported_pct": supported,
    }


def phase_rate(rounds: Sequence) -> float:
    """Answers per second of a timed phase, from its ``(seconds,
    answered)`` rounds: all answers over the phase's wall time."""
    return sum(answered for _, answered in rounds) / sum(seconds for seconds, _ in rounds)


class SetupProbes:
    """Set-up timings spread evenly over a timed phase.

    A burst of launches in a row lands inside one spell of the shared
    host's speed; spread over the phase, they sample its spells the way
    the phase's own operations do.  The phase calls :meth:`between` at
    every round boundary: once the phase has reached the next of *count*
    evenly spaced marks (the first at its start), it takes one probe, and
    it returns the seconds it spent so that the phase can leave them out
    of its own clock.  :meth:`finish` takes any probes a phase that ended
    early left over.  *probe* returns one set-up time in seconds.
    """

    def __init__(self, probe: Callable[[], float], count: int, seconds: float) -> None:
        self.probe = probe
        self.count = count
        self.seconds = seconds
        self.values: List[float] = []

    def between(self, elapsed: float) -> float:
        if len(self.values) >= self.count:
            return 0.0
        if elapsed < self.seconds * len(self.values) / self.count:
            return 0.0
        started = time.perf_counter()
        self.values.append(self.probe())
        return time.perf_counter() - started

    def finish(self) -> List[float]:
        while len(self.values) < self.count:
            self.values.append(self.probe())
        return self.values


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, and the quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values)
        if statistics.median(values)
        else math.inf,
    }


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return peak_rss_mb_of(os.getpid())


def emit(correct: bool, attempted: int, failed: int, metrics: Dict) -> None:
    """Print the one result line the harness reads (always the last line)."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def report(doc: Dict) -> None:
    """Print one human/tool-readable detail line ahead of the result."""
    print("perfbench " + json.dumps(doc, sort_keys=True, default=str), flush=True)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def dir_bytes(path: Path) -> int:
    total = 0
    for entry in Path(path).rglob("*"):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def warn(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
