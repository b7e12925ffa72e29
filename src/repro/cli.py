"""Command-line interface: ``python -m repro <command> ...``.

Commands operate on *OMQ files* (see :func:`repro.core.parser.parse_omq`)::

    schema: P/1, T/1
    rules:
        P(x) -> R(x, w)
        R(x, y) -> P(y)
    query: q(x) :- R(x, y), P(y)

and on database files of facts (``R(a, b). P(b).``).

Commands:

* ``classify ONTOLOGY``          — fragment membership of a tgd file
* ``rewrite OMQ``                — UCQ rewriting (XRewrite)
* ``evaluate OMQ DATABASE``      — certain answers
* ``contains OMQ1 OMQ2``         — containment verdict (+ witness)
* ``batch FILE``                 — run a batch of jobs via the engine
* ``distributes OMQ``            — distribution over components
* ``rewritable OMQ``             — UCQ rewritability verdict
* ``minimize OMQ``               — containment-powered query minimization
* ``explain OMQ DATABASE ANSWER``— derivation forest for a certain answer
* ``catalog FILE``               — inspect an OMQ equivalence catalog
* ``witnesses FILE``             — inspect a NOT_CONTAINED witness store
* ``trace FILE``                 — pretty-print a saved decision trace
* ``profile TRACE...``           — aggregate traces into a phase profile
* ``profile diff OLD NEW``       — compare two profiles (noise-gated)
* ``serve``                      — containment-as-a-service HTTP server
* ``submit OMQ1 OMQ2``           — send a containment job to a server

``contains`` and ``rewrite`` accept ``--json`` (the machine-readable
output contract shared with ``batch``) and ``--cache-dir``/``--workers``
to route through the :class:`repro.engine.BatchEngine`.
``--cache-dir DIR`` keeps the result cache in ``DIR/repro-cache.sqlite``
(without it, results live in memory only), and
``--catalog PATH`` attaches the persistent equivalence catalog: OMQ
pairs proven equivalent in *any* earlier session answer instantly, even
after the result cache has been evicted or deleted.
``--witness-store PATH`` attaches the catalog's negative dual: every
NOT_CONTAINED verdict persists its counterexample database, and future
sessions replay stored witnesses as single hom-checks ahead of the full
decision procedures (inspect with ``repro witnesses PATH``).

``batch`` also accepts ``--stream``: results are printed the moment each
job finishes (completion order) rather than when the whole batch drains.
Duplicate α-equivalent jobs in a manifest are scheduled once — the
``engine.dedup.coalesced`` counter in ``--json`` ``stats.metrics`` counts
the absorbed copies.

``contains``, ``rewrite`` and ``batch`` accept ``--trace FILE``: every
decision is traced (phase spans, counter rollups — see :mod:`repro.obs`)
and the collected trees are written to FILE on exit.  A ``.jsonl``
extension selects the lossless JSONL tree format; anything else writes
Chrome ``trace_event`` JSON that opens directly in ``chrome://tracing``
or Perfetto.  ``repro trace FILE`` renders either format as an indented
phase tree with self/cumulative times.

``profile`` closes the loop on those trace files: ``repro profile
TRACE...`` aggregates any mix of trace files into one versioned profile
document (per-phase call counts, total/self-time percentiles, counter
rollups, fragment/verdict/method breakdowns — see
:mod:`repro.obs.profile`), and ``repro profile diff OLD NEW`` compares
two profiles with noise-floor-aware significance gating.  ``OLD``/``NEW``
may each be a profile JSON *or* a raw trace file (profiled on the fly).
``--fail-on-regression PCT`` exits 1 when any phase regresses at least
PCT per cent beyond the significance threshold's verdict — the CI gate
against ``BENCH_profile_baseline.json``.

``contains``, ``rewrite`` and ``batch`` accept ``--max-steps`` and
``--max-depth`` chase budgets.  Exhausting a budget never diverges or
errors: evaluation falls back to the truncated chase (sound, possibly
incomplete), so containment degrades to an UNKNOWN verdict carrying the
reason — the same convention the engine uses for pool failures.  XRewrite
itself never runs the chase, so on ``rewrite`` the flags are accepted for
interface uniformity (shared scripts/manifests) and have no effect.

A batch file is one job per line (``%``/``#`` comments, blank lines ok),
with paths resolved relative to the batch file::

    contains q1.omq q2.omq
    rewrite  q1.omq
    classify rules.tgd
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .applications import distributes_over_components, is_ucq_rewritable
from .containment import ContainmentResult, Verdict, contains
from .core.parser import parse_database, parse_omq, parse_tgds
from .core.serialize import containment_result_to_json, omq_to_document
from .core.terms import Constant
from .evaluation import evaluate_omq
from .explain import explain_answer, format_explanation
from .fragments import best_class, classify
from .optimize import minimize_query
from .rewriting import RewritingBudgetExceeded, RewritingResult, xrewrite
from . import obs


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# The JSON output contract (shared by contains/rewrite/batch)
# ---------------------------------------------------------------------------


def _containment_to_json(
    result: ContainmentResult, cached: Optional[bool] = None
) -> Dict[str, Any]:
    out = containment_result_to_json(result)
    if cached is not None:
        out["cached"] = cached
    return out


def _rewriting_to_json(
    result: RewritingResult, cached: Optional[bool] = None
) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "disjuncts": [str(d) for d in result.rewriting.disjuncts],
        "count": len(result.rewriting),
        "max_disjunct_size": result.rewriting.max_disjunct_size(),
        "complete": result.complete,
        "rewriting_steps": result.stats.rewriting_steps,
        "factorization_steps": result.stats.factorization_steps,
    }
    if cached is not None:
        out["cached"] = cached
    return out


def _make_engine(args):
    """A BatchEngine honoring --cache-dir/--catalog/--witness-store/
    --workers/--timeout/--trace."""
    from .engine import BatchEngine

    return BatchEngine(
        cache_dir=getattr(args, "cache_dir", None),
        workers=getattr(args, "workers", 1) or 1,
        task_timeout=getattr(args, "timeout", None),
        trace="always" if getattr(args, "trace", None) else None,
        catalog=getattr(args, "catalog", None),
        witness_store=getattr(args, "witness_store", None),
        witness_replay=getattr(args, "witness_replay", None),
    )


def _wants_engine(args) -> bool:
    """Whether the flags ask for the BatchEngine rather than a direct call."""
    return (
        getattr(args, "cache_dir", None) is not None
        or (getattr(args, "workers", 1) or 1) > 1
        or getattr(args, "catalog", None) is not None
        or getattr(args, "witness_store", None) is not None
    )


def _write_trace_file(roots: List[dict], path: str) -> None:
    fmt = obs.write_trace(roots, path)
    note = (
        "open in chrome://tracing or https://ui.perfetto.dev"
        if fmt == "chrome"
        else "render with: repro trace " + path
    )
    print(
        f"% wrote {len(roots)} decision trace(s) to {path} ({note})",
        file=sys.stderr,
    )


def _cmd_classify(args) -> int:
    sigma = parse_tgds(_read(args.ontology))
    classes = classify(sigma)
    print("classes:", ", ".join(sorted(str(c) for c in classes)))
    print("preferred:", best_class(sigma))
    return 0


def _cmd_rewrite(args) -> int:
    omq = parse_omq(_read(args.omq))
    cached: Optional[bool] = None
    trace_path = getattr(args, "trace", None)
    if _wants_engine(args):
        from .engine import RewriteJob

        with _make_engine(args) as engine:
            job_result = engine.run_batch([RewriteJob(omq, args.budget)])[0]
            traces = engine.traces()
        result, cached = job_result.value, job_result.cached
        if trace_path:
            _write_trace_file(traces, trace_path)
        if result is None:
            print(f"rewriting failed: {job_result.error}", file=sys.stderr)
            return 2
    else:
        with obs.tracing("always" if trace_path else "off"):
            try:
                result = xrewrite(omq, max_queries=args.budget)
            except RewritingBudgetExceeded as exc:
                result = exc.partial
            if trace_path:
                _write_trace_file(obs.drain(), trace_path)
    if args.json:
        print(json.dumps(_rewriting_to_json(result, cached), indent=2))
        return 0 if result.complete else 2
    if not result.complete:
        print(
            f"rewriting exceeded the budget after "
            f"{result.stats.queries_generated} queries "
            "(the OMQ may not be UCQ-rewritable)",
            file=sys.stderr,
        )
        return 2
    for disjunct in result.rewriting.disjuncts:
        print(disjunct)
    print(
        f"% {len(result.rewriting)} disjuncts, "
        f"max size {result.rewriting.max_disjunct_size()}, "
        f"{result.stats.rewriting_steps} rewriting steps",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args) -> int:
    omq = parse_omq(_read(args.omq))
    database = parse_database(_read(args.database))
    result = evaluate_omq(omq, database)
    for answer in sorted(result.answers, key=str):
        print("(" + ", ".join(t.name for t in answer) + ")")
    print(
        f"% {len(result.answers)} answers via {result.method}"
        + ("" if result.exact else " (bounded: sound, possibly incomplete)"),
        file=sys.stderr,
    )
    return 0


def _cmd_contains(args) -> int:
    q1 = parse_omq(_read(args.omq1), name="Q1")
    q2 = parse_omq(_read(args.omq2), name="Q2")
    cached: Optional[bool] = None
    trace_path = getattr(args, "trace", None)
    if _wants_engine(args):
        from .engine import ContainmentJob

        with _make_engine(args) as engine:
            job_result = engine.run_batch(
                [
                    ContainmentJob(
                        q1,
                        q2,
                        rewriting_budget=args.budget,
                        chase_max_steps=args.max_steps,
                        chase_max_depth=args.max_depth,
                    )
                ]
            )[0]
            traces = engine.traces()
        result, cached = job_result.value, job_result.cached
        if trace_path:
            _write_trace_file(traces, trace_path)
    else:
        with obs.tracing("always" if trace_path else "off"):
            result = contains(
                q1,
                q2,
                rewriting_budget=args.budget,
                chase_max_steps=args.max_steps,
                chase_max_depth=args.max_depth,
            )
            if trace_path:
                _write_trace_file(obs.drain(), trace_path)
    if args.json:
        print(json.dumps(_containment_to_json(result, cached), indent=2))
    else:
        print(result)
        if result.verdict is Verdict.NOT_CONTAINED:
            print("witness database:")
            for atom in sorted(result.witness.database, key=str):
                print("  ", atom)
    if result.verdict is Verdict.NOT_CONTAINED:
        return 1
    if result.verdict is Verdict.UNKNOWN:
        return 2
    return 0


def _parse_batch_file(
    path: str,
    max_steps: int = 200_000,
    max_depth: Optional[int] = None,
):
    """Parse a batch manifest into engine jobs plus display labels."""
    from .engine import ClassifyJob, ContainmentJob, RewriteJob

    base = Path(path).resolve().parent
    jobs: List[Any] = []
    labels: List[str] = []
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), 1
    ):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        parts = line.split()
        kind, operands = parts[0].lower(), parts[1:]
        if kind == "contains" and len(operands) == 2:
            q1 = parse_omq(_read(str(base / operands[0])), name=operands[0])
            q2 = parse_omq(_read(str(base / operands[1])), name=operands[1])
            jobs.append(
                ContainmentJob(
                    q1,
                    q2,
                    chase_max_steps=max_steps,
                    chase_max_depth=max_depth,
                )
            )
            labels.append(f"contains {operands[0]} ⊆ {operands[1]}")
        elif kind == "rewrite" and len(operands) == 1:
            omq = parse_omq(_read(str(base / operands[0])), name=operands[0])
            jobs.append(RewriteJob(omq))
            labels.append(f"rewrite {operands[0]}")
        elif kind == "classify" and len(operands) == 1:
            sigma = parse_tgds(_read(str(base / operands[0])))
            jobs.append(ClassifyJob(tuple(sigma)))
            labels.append(f"classify {operands[0]}")
        else:
            raise ValueError(
                f"{path}:{lineno}: unrecognized batch line: {line!r}"
            )
    return jobs, labels


def _batch_entry_json(job_result, label: str, index: int) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "index": index,
        "job": label,
        "kind": job_result.job.kind,
        "cached": job_result.cached,
        "coalesced": job_result.coalesced,
        "error": job_result.error,
    }
    value = job_result.value
    if job_result.job.kind == "containment":
        entry.update(_containment_to_json(value))
    elif job_result.job.kind == "rewrite" and value is not None:
        entry.update(_rewriting_to_json(value))
    elif job_result.job.kind == "classify" and value is not None:
        entry["classes"] = sorted(str(c) for c in value.classes)
        entry["best"] = str(value.best)
    return entry


def _batch_entry_text(job_result, label: str, index: int) -> str:
    suffix = " (cached)" if job_result.cached else ""
    if job_result.coalesced and not job_result.cached:
        suffix = " (deduplicated)"
    value = job_result.value
    if job_result.job.kind == "containment":
        body = f"{value.verdict} via {value.method}"
        if job_result.error:
            body += f" [{job_result.error}]"
    elif job_result.error is not None:
        body = f"failed: {job_result.error}"
    elif job_result.job.kind == "rewrite":
        body = (
            f"{len(value.rewriting)} disjuncts, "
            f"{'complete' if value.complete else 'partial'}"
        )
    else:
        body = (
            f"classes {','.join(sorted(str(c) for c in value.classes))}, "
            f"preferred {value.best}"
        )
    return f"[{index}] {label}: {body}{suffix}"


def _cmd_batch(args) -> int:
    from .containment.result import Verdict as V

    try:
        jobs, labels = _parse_batch_file(
            args.batch_file, args.max_steps, args.max_depth
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not jobs:
        print("batch file contains no jobs", file=sys.stderr)
        return 2
    stream = getattr(args, "stream", False)
    with _make_engine(args) as engine:
        if stream:
            # Progress lines go out as workers finish, not when the whole
            # batch drains; with --json they go to stderr so stdout stays
            # a single machine-readable document.
            handles = engine.submit_batch(jobs)
            index_of = {id(h): i for i, h in enumerate(handles)}
            progress_out = sys.stderr if args.json else sys.stdout
            for n, handle in enumerate(engine.as_completed(handles), 1):
                i = index_of[id(handle)]
                line = _batch_entry_text(handle.result(), labels[i], i)
                print(f"[{n}/{len(jobs)}] {line}", file=progress_out, flush=True)
            results = [h.result() for h in handles]
        else:
            results = engine.run_batch(jobs)
        stats = engine.stats()
        if getattr(args, "trace", None):
            _write_trace_file(engine.traces(), args.trace)
    degraded = 0
    for r in results:
        if r.error is not None:
            degraded += 1
        elif (
            r.job.kind == "containment" and r.value.verdict is V.UNKNOWN
        ):
            degraded += 1
    if args.json:
        print(
            json.dumps(
                {
                    "jobs": [
                        _batch_entry_json(r, label, i)
                        for i, (r, label) in enumerate(zip(results, labels))
                    ],
                    "stats": stats,
                },
                indent=2,
            )
        )
    else:
        if not stream:  # streamed lines were already printed on arrival
            for i, (r, label) in enumerate(zip(results, labels)):
                print(_batch_entry_text(r, label, i))
        cache = stats["cache"]
        print(
            f"% {len(jobs)} jobs, {args.workers or 1} worker(s), "
            f"hit rate {cache['hit_rate']:.0%}, "
            f"{degraded} degraded",
            file=sys.stderr,
        )
    return 2 if degraded else 0


def _cmd_distributes(args) -> int:
    omq = parse_omq(_read(args.omq))
    result = distributes_over_components(omq)
    print(f"distributes: {result.distributes}")
    print(f"reason: {result.reason}")
    if result.witness_component:
        print(f"witness component: {result.witness_component}")
    return 0 if result.distributes else (1 if result.distributes is False else 2)


def _cmd_rewritable(args) -> int:
    omq = parse_omq(_read(args.omq))
    result = is_ucq_rewritable(omq)
    print(f"UCQ rewritable: {result.rewritable}")
    print(f"reason: {result.reason}")
    if result.rewriting is not None and args.show:
        for disjunct in result.rewriting.disjuncts:
            print(" ", disjunct)
    return 0 if result.rewritable else (1 if result.rewritable is False else 2)


def _cmd_minimize(args) -> int:
    omq = parse_omq(_read(args.omq))
    minimized, report = minimize_query(omq)
    print(omq_to_document(minimized), end="")
    print(f"% {report}", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    from .chase import ChaseBudgetExceeded

    omq = parse_omq(_read(args.omq))
    database = parse_database(_read(args.database))
    answer = tuple(Constant(c) for c in args.answer)
    try:
        explanation = explain_answer(
            omq, database, answer, max_steps=args.budget
        )
    except ChaseBudgetExceeded:
        print(
            "the chase of this ontology does not terminate; explanations "
            "are only available for terminating-chase ontologies",
            file=sys.stderr,
        )
        return 2
    if explanation is None:
        print("not a certain answer", file=sys.stderr)
        return 1
    print(format_explanation(explanation))
    return 0


def _cmd_catalog(args) -> int:
    """Inspect a cross-session OMQ equivalence catalog.

    Reads the file read-only: a catalog with stale stamps is listed, not
    rebuilt, and a file that is not a catalog is left as it is.
    """
    from .engine.catalog import OMQCatalog

    if not Path(args.catalog_file).exists():
        print(f"no catalog at {args.catalog_file}", file=sys.stderr)
        return 2
    try:
        stats, groups = OMQCatalog.inspect(args.catalog_file)
    except ValueError as exc:
        print(
            f"cannot read catalog {args.catalog_file}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "stats": stats,
                    "groups": {
                        rep: list(members)
                        for rep, members in groups.items()
                    },
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{stats['hashes']} hashes, {stats['edges']} containment edges, "
        f"{stats['groups']} equivalence group(s) covering "
        f"{stats['grouped_hashes']} hashes"
        + _stale_note(stats, "opening it as a catalog would rebuild it")
    )
    for rep, members in groups.items():
        print(f"group {rep[:16]}… ({len(members)} members):")
        for member in members:
            marker = "*" if member == rep else " "
            print(f"  {marker} {member}")
    return 0


def _stale_note(stats: dict, consequence: str) -> str:
    """The listing's note on a store whose stamps are not current."""
    if stats["current"]:
        return ""
    return (
        f" [stale stamps: schema={stats['schema_version'] or '?'}"
        f" canon={stats['canon_version'] or '?'} — {consequence}]"
    )


def _cmd_witnesses(args) -> int:
    """Inspect a cross-session NOT_CONTAINED witness store.

    Streams rows straight off the sqlite file (read-only, bounded by
    ``--limit``): a store with a million rows costs O(limit) memory, and
    a version-mismatched file is listed, not discarded.
    """
    from .engine.witness_store import WitnessStore

    if not Path(args.witness_file).exists():
        print(f"no witness store at {args.witness_file}", file=sys.stderr)
        return 2
    try:
        stats, rows = WitnessStore.inspect(args.witness_file, limit=args.limit)
    except ValueError as exc:
        print(
            f"cannot read witness store {args.witness_file}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        # Materializes at most --limit rows; the store itself is never
        # loaded wholesale.
        print(
            json.dumps({"stats": stats, "witnesses": list(rows)}, indent=2)
        )
        return 0
    print(
        f"{stats['entries']} stored witness(es) over "
        f"{stats['lhs_keys']} LHS / {stats['rhs_keys']} RHS canonical "
        f"hash(es)" + _stale_note(stats, "replay would rebuild this file")
    )
    shown = 0
    for entry in rows:
        shown += 1
        answer = ", ".join(entry["answer"])
        origin = entry["origin"]
        sig = entry["lhs_sig"] or entry["db_sig"] or "?"
        print(
            f"  {entry['lhs'][:16]}… ⊄ {entry['rhs'][:16]}…  "
            f"D: {entry['atoms']} atom(s), c̄ = ({answer})  "
            f"[{origin}; sig {sig}]"
        )
    if args.limit is not None and stats["entries"] > shown:
        print(f"  … {stats['entries'] - shown} more (raise --limit)")
    return 0


def _cmd_trace(args) -> int:
    try:
        roots = obs.load_trace(args.trace_file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load trace {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    print(
        obs.format_trace(
            roots,
            show_attrs=not args.no_attrs,
            show_rollup=not args.no_rollup,
        )
    )
    return 0


def _cmd_profile(args) -> int:
    """``repro profile TRACE...`` / ``repro profile diff OLD NEW``."""
    inputs = list(args.inputs)
    if inputs and inputs[0] == "diff":
        return _profile_diff(args, inputs[1:])
    acc = obs.ProfileAccumulator()
    for path in inputs:
        try:
            acc.add_roots(obs.load_trace(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot load trace {path}: {exc}", file=sys.stderr)
            return 2
    meta: Dict[str, Any] = {"sources": inputs}
    if args.workload:
        meta["workload"] = args.workload
    if args.noise_floor is not None:
        meta["noise_floor_pct"] = args.noise_floor
    profile = acc.profile(meta=meta)
    if args.out:
        Path(args.out).write_text(
            json.dumps(profile, indent=2) + "\n", encoding="utf-8"
        )
        print(f"% wrote profile to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(profile, indent=2))
    else:
        print(obs.format_profile(profile, top=args.top))
    return 0


def _profile_diff(args, operands: List[str]) -> int:
    if len(operands) != 2:
        print("usage: repro profile diff OLD NEW", file=sys.stderr)
        return 2
    try:
        old = obs.load_profile(operands[0])
        new = obs.load_profile(operands[1])
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load profile: {exc}", file=sys.stderr)
        return 2
    diff = obs.profile_diff(
        old,
        new,
        metric=args.metric,
        noise_floor_pct=args.noise_floor,
        min_change_pct=args.min_change,
    )
    if args.report:
        Path(args.report).write_text(
            json.dumps(diff, indent=2) + "\n", encoding="utf-8"
        )
        print(f"% wrote diff report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(obs.format_diff(diff))
    if args.fail_on_regression is not None:
        failures = obs.diff_regressions(diff, args.fail_on_regression)
        if failures:
            for name, change in failures:
                print(
                    f"FAIL: phase {name!r} regressed {change:+.1f}% "
                    f"(gate: {args.fail_on_regression:g}%)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"% no phase regressed beyond {args.fail_on_regression:g}%",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve.server import ServeConfig
    from .serve.server import run as serve_run

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        task_timeout=args.timeout,
        cache_dir=args.cache_dir,
        catalog=args.catalog,
        witness_store=args.witness_store,
        witness_replay=args.witness_replay,
        tenants_file=args.tenants,
        deadline_floor_s=args.deadline_floor,
        drain_grace_s=args.drain_grace,
        allow_test_jobs=args.allow_test_jobs,
        trace_mode=args.trace_mode,
        trace_sample=args.trace_sample,
        max_traces=args.max_traces,
    )
    return serve_run(config)


def _cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError

    try:
        q1_text = Path(args.omq1).read_text(encoding="utf-8")
        q2_text = Path(args.omq2).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read OMQ file: {exc}", file=sys.stderr)
        return 2
    doc: dict = {"kind": "containment", "q1": q1_text, "q2": q2_text,
                 "tenant": args.tenant}
    if args.deadline_ms is not None:
        doc["deadline_ms"] = args.deadline_ms
    if args.priority is not None:
        doc["priority"] = args.priority
    if args.budget is not None:
        doc["rewriting_budget"] = args.budget
    try:
        with ServeClient.from_url(args.url) as client:
            if args.no_wait:
                record = client.submit(doc)
            else:
                record = client.run(doc, timeout=args.wait_timeout)
    except (ServeError, OSError, TimeoutError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    print(f"job {record['id']} [{record['tenant']}] {record['label']}")
    if record.get("state") != "done":
        print(f"  state: {record['state']} (poll GET /v1/jobs/{record['id']})")
        return 0
    flags = []
    if record.get("cached"):
        flags.append("cached")
    if record.get("coalesced"):
        flags.append("coalesced")
    if record.get("error"):
        flags.append(f"error={record['error']}")
    result = record.get("result") or {}
    verdict = result.get("verdict", "?")
    print(
        f"  {verdict} via {result.get('method', '?')} "
        f"in {record.get('duration_ms', 0.0):.1f}ms"
        + (f"  [{', '.join(flags)}]" if flags else "")
    )
    if result.get("detail"):
        print(f"  {result['detail']}")
    return 0 if not record.get("error") else 1


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="trace every decision and write the span trees to FILE "
        "(.jsonl = JSONL trees; otherwise Chrome trace_event JSON for "
        "chrome://tracing / Perfetto)",
    )


def _add_engine_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--catalog", metavar="PATH", default=None,
        help="persistent OMQ equivalence catalog; proven-equivalent "
        "queries share cache rows and short-circuit across sessions "
        "(inspect with: repro catalog PATH)",
    )
    p.add_argument(
        "--witness-store", metavar="PATH", default=None,
        dest="witness_store",
        help="persistent NOT_CONTAINED witness store; stored "
        "counterexamples are replayed as cheap hom-checks ahead of the "
        "full decision procedures (inspect with: repro witnesses PATH)",
    )
    p.add_argument(
        "--witness-replay", default="structural", dest="witness_replay",
        choices=("exact", "structural", "off"),
        help="witness replay: exact = the exact pair and same-LHS/"
        "same-RHS witnesses only, structural (default) = also replay "
        "signature-compatible witnesses via two fresh hom-checks, "
        "off = record but never replay",
    )


def _add_chase_budget_flags(p: argparse.ArgumentParser, note: str = "") -> None:
    p.add_argument(
        "--max-steps", type=int, default=200_000, dest="max_steps",
        help="chase step budget; exhaustion degrades to UNKNOWN/partial"
        + note,
    )
    p.add_argument(
        "--max-depth", type=int, default=None, dest="max_depth",
        help="chase depth cut-off (bounded guarded strategy)" + note,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Containment for rule-based ontology-mediated queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="fragment membership of a tgd file")
    p.add_argument("ontology")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rewrite", help="UCQ-rewrite an OMQ file")
    p.add_argument("omq")
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--cache-dir", default=None, help="persistent result cache")
    p.add_argument("--workers", type=int, default=1)
    _add_engine_backend_flags(p)
    _add_chase_budget_flags(
        p, " (accepted for interface parity; XRewrite never chases)"
    )
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("evaluate", help="certain answers over a database")
    p.add_argument("omq")
    p.add_argument("database")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("contains", help="decide Q1 ⊆ Q2")
    p.add_argument("omq1")
    p.add_argument("omq2")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--cache-dir", default=None, help="persistent result cache")
    p.add_argument("--workers", type=int, default=1)
    _add_engine_backend_flags(p)
    _add_chase_budget_flags(p)
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser(
        "batch", help="run a manifest of jobs through the batch engine"
    )
    p.add_argument("batch_file", help="one job per line; see module docs")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None, help="persistent result cache")
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-task seconds (workers > 1 only)",
    )
    _add_engine_backend_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--stream", action="store_true",
        help="print each result as it completes instead of waiting for "
        "the whole batch (with --json, progress lines go to stderr)",
    )
    _add_chase_budget_flags(p)
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("distributes", help="distribution over components")
    p.add_argument("omq")
    p.set_defaults(func=_cmd_distributes)

    p = sub.add_parser("rewritable", help="UCQ rewritability of an OMQ")
    p.add_argument("omq")
    p.add_argument("--show", action="store_true", help="print the rewriting")
    p.set_defaults(func=_cmd_rewritable)

    p = sub.add_parser("minimize", help="containment-powered minimization")
    p.add_argument("omq")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("explain", help="derivation forest for an answer")
    p.add_argument("omq")
    p.add_argument("database")
    p.add_argument("answer", nargs="*", help="answer constants, in order")
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "catalog", help="inspect a cross-session OMQ equivalence catalog"
    )
    p.add_argument("catalog_file", help="a --catalog sqlite file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "witnesses",
        help="inspect a cross-session NOT_CONTAINED witness store",
    )
    p.add_argument("witness_file", help="a --witness-store sqlite file")
    p.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="list at most N rows (the stats still cover the whole store)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_witnesses)

    p = sub.add_parser(
        "serve",
        help="run the containment-as-a-service HTTP server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8718,
        help="listen port (0 picks a free port)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-task seconds (workers > 1 only)",
    )
    p.add_argument("--cache-dir", default=None, help="persistent result cache")
    _add_engine_backend_flags(p)
    p.add_argument(
        "--tenants", metavar="FILE", default=None,
        help="JSON tenant policies: {name: {weight, priority, "
        "default_deadline_ms}} (editable live via PUT /v1/tenants)",
    )
    p.add_argument(
        "--deadline-floor", type=float, default=0.25, dest="deadline_floor",
        help="seconds below which no fresh decision is attempted — "
        "tighter deadlines degrade to UNKNOWN('deadline') immediately",
    )
    p.add_argument(
        "--drain-grace", type=float, default=5.0, dest="drain_grace",
        help="seconds to wait for in-flight requests on SIGTERM",
    )
    p.add_argument(
        "--allow-test-jobs", action="store_true", dest="allow_test_jobs",
        help="admit kind:'sleep' jobs (load tests and benchmarks only)",
    )
    p.add_argument(
        "--trace-mode", choices=("off", "always", "per-job"),
        default="off", dest="trace_mode",
        help="span-trace served decisions; traced spans feed the live "
        "GET /v1/debug/profile telemetry",
    )
    p.add_argument(
        "--trace-sample", type=int, default=10, dest="trace_sample",
        help="with --trace-mode per-job, trace every Nth submission",
    )
    p.add_argument(
        "--max-traces", type=int, default=512, dest="max_traces",
        help="bound on retained span trees (oldest dropped first)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a containment job to a running server"
    )
    p.add_argument("omq1")
    p.add_argument("omq2")
    p.add_argument(
        "--url", default="http://127.0.0.1:8718",
        help="server base URL (default %(default)s)",
    )
    p.add_argument("--tenant", default="default")
    p.add_argument(
        "--deadline-ms", type=int, default=None, dest="deadline_ms",
        help="latency budget; misses answer UNKNOWN('deadline')",
    )
    p.add_argument(
        "--priority", choices=("high", "normal", "low"), default=None
    )
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--no-wait", action="store_true", dest="no_wait",
        help="return the job id immediately instead of polling",
    )
    p.add_argument(
        "--wait-timeout", type=float, default=120.0, dest="wait_timeout",
        help="seconds to poll before giving up",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "trace", help="pretty-print a saved decision trace file"
    )
    p.add_argument("trace_file", help="a --trace output (.jsonl or Chrome)")
    p.add_argument(
        "--no-attrs", action="store_true", help="hide span attributes"
    )
    p.add_argument(
        "--no-rollup", action="store_true", help="hide the counter rollup"
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="aggregate span traces into a per-phase profile, or diff "
        "two profiles with noise-gated verdicts",
    )
    p.add_argument(
        "inputs", nargs="+", metavar="TRACE",
        help="trace files (.jsonl or Chrome JSON) to aggregate — or "
        "'diff OLD NEW' where OLD/NEW are profile JSON or trace files",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the profile document to FILE (JSON)",
    )
    p.add_argument(
        "--report", metavar="FILE", default=None,
        help="diff mode: also write the diff report to FILE (JSON)",
    )
    p.add_argument(
        "--top", type=int, default=0,
        help="show only the N phases with the most self time",
    )
    p.add_argument(
        "--workload", default=None,
        help="workload tag recorded in the profile's meta block",
    )
    p.add_argument(
        "--metric", choices=obs.profile.DIFF_METRICS, default="self_share",
        help="diff mode: phase metric to compare — self_share (share of "
        "all self time; machine-portable, the default), self_mean, or "
        "total_mean (wall clock; same-machine A/B only)",
    )
    p.add_argument(
        "--noise-floor", type=float, default=None, dest="noise_floor",
        help="measured machine noise floor in %% (bench_obs_overhead's "
        "noise_floor_pct); default: the profiles' recorded floor, else "
        f"{obs.profile.DEFAULT_NOISE_FLOOR_PCT:g}",
    )
    p.add_argument(
        "--min-change", type=float, dest="min_change",
        default=obs.profile.DEFAULT_MIN_CHANGE_PCT,
        help="changes below this %% are never significant (default "
        "%(default)s); the significance threshold is "
        "max(2 x noise floor, this)",
    )
    p.add_argument(
        "--fail-on-regression", type=float, default=None,
        dest="fail_on_regression", metavar="PCT",
        help="diff mode: exit 1 if any phase's verdict is 'regressed' "
        "with a change of at least PCT %% (the CI gate)",
    )
    p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
