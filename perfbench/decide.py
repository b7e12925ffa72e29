"""decide_cold: cold decisions through the library front door.

One process, one thread.  Before every decision the benchmark clears the
program's caches (``repro.clear_caches()``) and arms a wall-clock cap
(SIGALRM).  A decision that reaches the cap counts as failed, and the
run records the program layer the cap interrupted.  The timed phase runs
whole rounds of the same cases, so the failed share is the same in every
run.

Run directly (``python3 perfbench/decide.py SEED``) this module is the
set-up probe: it starts an interpreter, imports the program, builds the
round's cases and prints ``ready``.
"""

from __future__ import annotations

import collections
import random
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, corpus, oracle

#: Wall-clock cap per decision.  The slowest case takes ~0.4 s here, and
#: every random draw in the pool decided within 0.25 s when it was
#: recorded, so only a fault or a much slower build reaches it.
CAP_S = 2.0

#: The cap of the two fixed F1 pairs.  They run for minutes, so they
#: reach any cap; a short one keeps this benchmark constant down to
#: ~3% of a round's time.  Even at 0.03 s both caps land inside
#: ``rewriting.xrewrite``.
FAULT_CAP_S = 0.05

#: The tail percentile: a run answers well over 1,000 decisions, so p99
#: leaves more than ten samples beyond it (p99.9 would need 10,000).
TAIL_PCT = 99.0

#: Set-up probes per run, spread evenly over the timed phase; setup_s is
#: their median.
PROBES = 7


class CapReached(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    under test can swallow it as an ordinary error."""


#: After the cap, the alarm repeats at this interval until the decision
#: has stopped: an exception raised while a generator is being finalized
#: is printed and dropped ("Exception ignored in ..."), so a single alarm
#: can be lost and the decision would run on.
_REPEAT_S = 0.05


class _Cap:
    """The armed state the SIGALRM handler reads."""

    armed = False


def _alarm(signum, frame):
    if _Cap.armed:
        raise CapReached()


def capped(seconds: float, call):
    """``(call(), None)``, or ``(None, exc)`` once *seconds* have passed."""
    try:
        _Cap.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds, _REPEAT_S)
        try:
            return call(), None
        finally:
            _Cap.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapReached as exc:
        # Also catches a repeat alarm that lands after the first one was
        # caught but before the handler was disarmed.
        return None, exc


#: Packages that are procedure layers; the shared term/atom types and the
#: kernel are helpers every layer calls, so a cap landing there is
#: charged to the innermost procedure layer above them.
_PROCEDURE_LAYERS = ("containment", "rewriting", "evaluation", "chase")


def _capped_layer(tb) -> str:
    """The innermost procedure-layer package on the interrupted stack
    (``rewriting`` for a cap in ``rewriting/xrewrite.py`` or in the
    ``rewriting/unification.py`` it calls)."""
    layer = "?"
    src = str(common.SRC)
    for frame in traceback.extract_tb(tb):
        if frame.filename.startswith(src):
            parts = Path(frame.filename).relative_to(common.SRC).with_suffix("").parts
            if len(parts) > 1 and parts[1] in _PROCEDURE_LAYERS:
                layer = parts[1]
    return layer


def setup_probe(seed: int) -> float:
    """Launch a fresh interpreter that imports the program and builds the
    round's cases; the seconds from launch to its ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), str(seed)],
        stdout=subprocess.PIPE,
        env=common.program_env(),
        cwd=str(common.ROOT),
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise common.SetupError("set-up probe failed")
    return elapsed


class Phase:
    """Samples of one timed phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.timings: List = []
        self.by_fragment: Dict[str, List[float]] = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.cap_layers: Dict[str, int] = collections.Counter()
        self.capped: Dict[str, int] = collections.Counter()
        self.results: Dict[int, object] = {}
        self.flips = 0
        self.wall = 0.0
        self.rounds = 0
        self.round_rates: List = []  # (seconds, answered) per round
        self.rss_mb = 0.0
        self.spans: Dict[str, float] = collections.defaultdict(float)
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.decision_s = 0.0
        self.rewriting_by_fragment: Dict[str, int] = collections.Counter()


def _absorb_trace(phase: Phase, case: corpus.Case, trees) -> None:
    from repro.obs import walk

    for root in trees:
        for node in walk(root):
            phase.spans[node["name"]] += node.get("self_s", 0.0)
            if node["name"] == "rewrite.xrewrite":
                attrs = node.get("attrs", {})
                phase.counters["xrewrite.generated"] += attrs.get("generated", 0)
                final = attrs.get("final_disjuncts", 0)
                phase.counters["xrewrite.final_disjuncts"] += final
                phase.rewriting_by_fragment[case.fragment] += final


def run_phase(
    cases: List[corpus.Case], seconds: float, *, traced: bool, rounds: int = 0,
    probes: Optional[common.SetupProbes] = None,
) -> Phase:
    """Whole rounds until *seconds* have passed (or exactly *rounds*).
    *probes* run between rounds, outside the phase's clock."""
    import repro
    from repro import obs
    from repro.kernel import kernel_snapshot

    phase = Phase()
    config = obs.TraceConfig(mode="always") if traced else None
    start = time.perf_counter()
    try:
        while True:
            if probes is not None:
                start += probes.between(time.perf_counter() - start)
            round_start = time.perf_counter()
            answered_before = len(phase.latencies)
            for index, case in enumerate(cases):
                # clear_caches() also resets the tracer to "off".
                repro.clear_caches()
                if config is not None:
                    obs.apply_config(config)
                phase.attempted += 1
                t0 = time.perf_counter()
                result, cap = capped(
                    FAULT_CAP_S if case.kind == "fault" else CAP_S,
                    lambda: repro.contains(case.q1, case.q2, **case.kwargs),
                )
                elapsed = time.perf_counter() - t0
                if cap is not None:
                    phase.failed += 1
                    phase.cap_layers[_capped_layer(cap.__traceback__)] += 1
                    phase.capped[case.label] += 1
                    cap = None  # its traceback holds the abandoned frames
                phase.decision_s += elapsed
                if traced:
                    _absorb_trace(phase, case, obs.drain())
                    for name, value in kernel_snapshot().items():
                        if isinstance(value, (int, float)) and name.startswith(
                            ("kernel.hom.", "kernel.plan.", "kernel.chase.",
                             "kernel.small_witness.", "kernel.witness_search.")
                        ):
                            phase.counters[name] += value
                if result is None:
                    continue
                phase.latencies.append(elapsed)
                phase.timings.append((index, elapsed))
                phase.by_fragment[case.fragment].append(elapsed)
                previous = phase.results.setdefault(index, result)
                if previous.verdict is not result.verdict:
                    phase.flips += 1
            phase.rounds += 1
            phase.round_rates.append(
                (time.perf_counter() - round_start,
                 len(phase.latencies) - answered_before)
            )
            if phase.rounds == 1:
                # Every round repeats the same cases, so the first one
                # already reaches the process's peak.
                phase.rss_mb = common.self_peak_rss_mb()
            if rounds:
                if phase.rounds >= rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    finally:
        phase.wall = time.perf_counter() - start
        repro.clear_caches()
    return phase


def check(cases: List[corpus.Case], phase: Phase, seed: int) -> oracle.Checker:
    """Properties 1–4 and 6 on the first answer of every case, plus the
    requirement that every round gave each case the same verdict."""
    checker = oracle.Checker()
    rng = random.Random(seed + 104729)
    for index, case in enumerate(cases):
        result = phase.results.get(index)
        if result is None:
            continue
        verdict = str(result.verdict)
        q1, q2 = oracle.plain_omq(case.q1), oracle.plain_omq(case.q2)
        witness = (
            oracle.plain_witness(result.witness)
            if result.witness is not None
            else None
        )
        checker.verdict(case.label, q1, q2, case.expected, verdict,
                        result.detail, witness, rng)
        if case.kind == "prop18":
            size = len(result.witness.database.atoms) if result.witness else 0
            checker.prop18(case.label, case.n, verdict, size)
    if phase.flips:
        checker.violations.append(f"{phase.flips} verdicts changed between rounds")
    return checker


def run(seed: int, seconds: float, trace: bool) -> int:
    common.import_program()
    signal.signal(signal.SIGALRM, _alarm)
    cases = corpus.decide_cases(seed)
    setup_probe(seed)  # untimed: warms the file cache
    probes = common.SetupProbes(lambda: setup_probe(seed), PROBES, seconds)
    clock = time.perf_counter()
    untraced = run_phase(cases, seconds, traced=False, probes=probes)
    setups = probes.finish()
    phases = {"timed_with_probes": time.perf_counter() - clock, "timed": untraced.wall}
    clock = time.perf_counter()
    checker = check(cases, untraced, seed)
    phases["checks"] = time.perf_counter() - clock
    answered = untraced.latencies
    tail_pct = TAIL_PCT
    summary = common.latency_summary(answered, tail_pct)
    details = {
        "workload": "decide_cold",
        "seed": seed,
        "usable_cores": common.usable_cores(),
        "cases_per_round": len(cases),
        "rounds": untraced.rounds,
        "cap_s": CAP_S,
        "fault_cap_s": FAULT_CAP_S,
        "cap_layers": dict(untraced.cap_layers),
        "capped_cases": dict(untraced.capped),
        "setup_probes_s": setups,
        "phase_s": phases,
        "latency": summary,
        "fragments": _fragment_table(untraced),
        "slowest": _slowest(cases, untraced),
        "mix": _mix(cases, untraced),
        "checks": checker.summary(),
    }
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "verdicts_per_s": common.metric(common.phase_rate(untraced.round_rates), "1/s"),
        "verdict_p50_ms": common.metric(summary["p50_ms"], "ms"),
        "verdict_tail_ms": common.metric(summary["tail_ms"], "ms"),
        "peak_rss_mb": common.metric(untraced.rss_mb, "MiB"),
    }
    correct = checker.correct
    attempted, failed = untraced.attempted, untraced.failed
    if trace:
        traced = run_phase(cases, 0, traced=True, rounds=1)
        layer = _layer_metrics(traced, untraced)
        details["traced"] = {
            "rewriting_by_fragment": dict(traced.rewriting_by_fragment),
            "span_self_s": dict(traced.spans),
        }
        metrics = layer
        attempted += traced.attempted
        failed += traced.failed
    common.report(details)
    common.emit(correct, attempted, failed, metrics)
    return 0


def _fragment_table(phase: Phase) -> Dict:
    out = {}
    for fragment, samples in sorted(phase.by_fragment.items()):
        ms = [s * 1000.0 for s in samples]
        out[fragment] = {
            "answers": len(ms),
            "p50_ms": common.percentile(ms, 50.0),
            "p95_ms": common.percentile(ms, 95.0),
        }
    return out


def _slowest(cases: List[corpus.Case], phase: Phase, count: int = 10) -> Dict:
    """The slowest answered cases of the round, by their median time."""
    times = collections.defaultdict(list)
    for index, elapsed in phase.timings:
        times[cases[index].label].append(elapsed * 1000.0)
    ranked = sorted(times.items(), key=lambda kv: -common.median(kv[1]))
    return {label: round(common.median(v), 2) for label, v in ranked[:count]}


def _mix(cases: List[corpus.Case], phase: Phase) -> Dict:
    verdicts = collections.Counter()
    methods = collections.Counter()
    unknown_by_fragment = collections.Counter()
    for index, case in enumerate(cases):
        result = phase.results.get(index)
        if result is None:
            continue
        verdicts[str(result.verdict)] += 1
        methods[result.method] += 1
        if str(result.verdict) == "unknown":
            unknown_by_fragment[case.fragment] += 1
    return {
        "per_round_verdicts": dict(verdicts),
        "per_round_methods": dict(methods),
        "per_round_unknown_by_fragment": dict(unknown_by_fragment),
        "per_round_fragments": dict(collections.Counter(c.fragment for c in cases)),
    }


def _layer_metrics(traced: Phase, untraced: Phase) -> Dict:
    """Per-layer metrics of one traced round, against the untraced timed
    phase's rounds (decide_cold runs no serve layer and no tier, so those
    metrics read 0 here)."""
    from perfbench import layers

    ops = traced.attempted
    values = layers.zeroed()
    for name in layers.SPAN_METRICS:
        span_name = name[: -len(".self_ms")]
        values[name] = traced.spans.get(span_name, 0.0) * 1000.0 / ops
    methods = collections.Counter()
    unknown = 0
    for result in traced.results.values():
        methods[result.method] += 1
        unknown += str(result.verdict) == "unknown"
    for method, count in methods.items():
        key = f"containment.method.{method}"
        if key in values:
            values[key] = float(count)
    values["containment.unknown"] = float(unknown)
    for name in layers.KERNEL_COUNTERS:
        values[name] = traced.counters.get(name, 0.0)
    values["xrewrite.generated"] = traced.counters.get("xrewrite.generated", 0.0)
    values["xrewrite.final_disjuncts"] = traced.counters.get(
        "xrewrite.final_disjuncts", 0.0
    )
    hits = traced.counters.get("kernel.plan.hits", 0.0)
    misses = traced.counters.get("kernel.plan.misses", 0.0)
    values["kernel.plan.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    traced_rate = common.phase_rate(traced.round_rates)
    untraced_rate = common.phase_rate(untraced.round_rates)
    values["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    # Every decision is one containment.decide root; what no span covers
    # is the root's own self time.
    covered = sum(v for k, v in traced.spans.items() if k != "containment.decide")
    values["trace.unattributed_pct"] = (
        100.0 * (traced.decision_s - covered) / traced.decision_s
    )
    return {k: common.metric(v, layers.UNITS[k]) for k, v in values.items()}


if __name__ == "__main__":
    common.import_program()
    corpus.decide_cases(int(sys.argv[1]))
    print("ready", flush=True)
