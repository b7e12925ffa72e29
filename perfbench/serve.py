"""serve_fresh and serve_replay: answers from a ``repro serve`` replica.

The replica runs in its own process; the benchmark talks to it only over
the HTTP protocol.  One client keeps one request in flight and opens at
most two sockets: a keep-alive connection for POSTs, and one for the SSE
stream of a job that was not answered inline (read with the program's
own ``ServeClient.stream``).  Request bodies are serialised before the
timed phase.  A served answer is timed from the
POST to the response that carries it: the POST itself when the answer
comes back inline, else the ``result`` event of the job's SSE stream
(never by polling — ``ServeClient.wait`` polls every 50 ms, fault F4).

* ``serve_fresh`` — sqlite cache, catalog and witness store on, two pool
  workers with a task timeout; every request is a pair the replica has
  never seen, so each walks the replay ladder to a miss, crosses the
  pool, and writes its verdict to the tiers.
* ``serve_replay`` — an untimed earlier session fills the tiers; a new
  replica with the default in-process executor reopens them, and every
  request is a new spelling of a pair that session answered: exact
  repeats, α-renamings, redundant-atom variants of NOT_CONTAINED pairs
  (the structural witness rung) and pairs whose sides were proven
  equivalent (the catalog).
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import common, corpus, layers, oracle

#: Replica boots per run, spread evenly over the timed phase; setup_s is
#: their median.  Each boots a new replica on its own copy of the tiers
#: the timed replica started from, and stops it again.
PROBES = 7

#: Seconds a pool task may run before the worker is replaced.
TASK_TIMEOUT_S = 10

#: Untimed requests that start the pool's workers before timing.
WARMUP = 8

#: Fresh pairs prepared per run: room for about twice the rate measured
#: here over a 20 s phase, plus the traced pass.
FRESH_PAIRS = 2400

#: Requests in serve_replay's list: more than a 20 s run sends, so a run
#: does not wrap around into spellings it has already re-recorded.
REPLAY_REQUESTS = 12_000

#: Requests per round: every round has the same make-up (serve_fresh: one
#: cycle of family pairs; serve_replay: the 10-slot spelling pattern and
#: two large ontologies), and a timed phase runs whole rounds.
ROUND = {"serve_fresh": corpus.FRESH_ROUND, "serve_replay": 100}

#: Requests in the traced runs (fixed work, so counts compare).
TRACED_REQUESTS = {"serve_fresh": 400, "serve_replay": 1500}

#: peak_rss_mb is read after this many answers (fixed work: a replica's
#: memory grows with every request it keeps in its job table, so a read
#: at the end of a timed phase would charge a faster program for
#: answering more).
RSS_AFTER = {"serve_fresh": 400, "serve_replay": 3000}

#: Tail percentile per workload: the highest with ≥ 10 samples beyond it
#: at the sample counts a run collects (README: reference figures).
TAIL_PCT = {"serve_fresh": 95.0, "serve_replay": 99.0}


# -- HTTP ------------------------------------------------------------------

POST_HEADERS = {"Content-Type": "application/json", "Accept": "application/json"}


class Client:
    """One keep-alive connection for POSTs and GETs, and the program's own
    ``ServeClient.stream`` for a job's SSE stream (one short-lived socket
    per stream)."""

    def __init__(self, port: int) -> None:
        from repro.serve.client import ServeClient

        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.streams = ServeClient("127.0.0.1", port, timeout=120)

    def send(self, method: str, path: str, body: Optional[bytes] = None,
             headers: Dict[str, str] = POST_HEADERS) -> Tuple[int, Dict]:
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else {}

    def get(self, path: str) -> Dict:
        status, doc = self.send("GET", path, headers={"Accept": "application/json"})
        if status != 200:
            raise common.SetupError(f"GET {path} -> {status}")
        return doc

    def result(self, job_id: str) -> Dict:
        """The job document of the job's ``result`` event."""
        for event, doc in self.streams.stream(job_id, timeout=120):
            if event == "result":
                return doc
        raise ConnectionError(f"stream of {job_id} ended before its result")

    def close(self) -> None:
        self.conn.close()


def post_body(doc: Dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


# -- the replica process ---------------------------------------------------------


class Replica:
    """One ``repro serve`` process over a tier directory."""

    def __init__(self, workdir: Path, tiers: Path, workers: int, traced: bool) -> None:
        self.workdir = workdir
        self.tiers = tiers
        self.workers = workers
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.timers_path = workdir / "timers.json"

    def argv(self) -> List[str]:
        flags = [
            "serve", "--port", "0", "--drain-grace", "2",
            "--cache-dir", str(self.tiers / "cache"),
            "--catalog", str(self.tiers / "catalog.sqlite"),
            "--witness-store", str(self.tiers / "witnesses.sqlite"),
        ]
        if self.workers > 1:
            flags += ["--workers", str(self.workers),
                      "--timeout", str(TASK_TIMEOUT_S)]
        if self.traced:
            flags += ["--trace-mode", "always", "--max-traces", "64"]
            return [sys.executable, str(common.BENCH_DIR / "replica.py"),
                    str(self.timers_path)] + flags
        return [sys.executable, "-m", "repro"] + flags

    def start(self) -> float:
        """Launch; returns seconds from launch to the first healthy answer."""
        log_path = self.workdir / "replica.log"
        log = open(log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv(), stdout=subprocess.DEVNULL, stderr=log,
            cwd=str(self.workdir), env=common.program_env(),
        )
        log.close()
        pattern = re.compile(r"listening on [^ ]*:(\d+)")
        while True:
            match = pattern.search(log_path.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.perf_counter() - started > 60:
                raise common.SetupError(
                    "replica did not start:\n" + log_path.read_text(encoding="utf-8")[-2000:]
                )
            time.sleep(0.002)
        from repro.serve.client import ServeClient, ServeError

        while True:
            client = ServeClient("127.0.0.1", self.port, timeout=5)
            try:
                client.health()
                return time.perf_counter() - started
            except (OSError, http.client.HTTPException, ServeError):
                if time.perf_counter() - started > 60:
                    raise
                time.sleep(0.002)
            finally:
                client.close()

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None


# -- one request ------------------------------------------------------------


@dataclass
class Answer:
    """One request: its index in the request list, the client-timed
    latency and POST round trip (s), whether the POST carried the answer,
    the job document, and the job's error (None when answered)."""

    index: int
    latency: float
    submit: float
    inline: bool
    doc: Dict
    error: Optional[str]

    @property
    def result(self) -> Dict:
        return self.doc.get("result") or {}

    @property
    def verdict(self) -> str:
        return self.result.get("verdict", "")


def ask(client: Client, body: bytes, index: int) -> Answer:
    t0 = time.perf_counter()
    status, doc = client.send("POST", "/v1/jobs", body)
    submit = time.perf_counter() - t0
    if status not in (200, 202):
        return Answer(index, submit, submit, True, doc, f"HTTP {status}")
    inline = doc.get("state") == "done"
    if not inline:
        doc = client.result(doc["id"])
    latency = time.perf_counter() - t0
    error = doc.get("error")
    return Answer(index, latency, submit, inline, doc, error)


class Drive:
    """One closed-loop pass: answers, and the wall time of each round."""

    def __init__(self) -> None:
        self.answers: List[Answer] = []
        self.rounds: List[Tuple[float, int]] = []  # (seconds, answered)
        self.rss_mb: Optional[float] = None


def drive(client: Client, requests: List[bytes], start: int, seconds: float, *,
          round_size: int, count: int = 0, replica: Optional[Replica] = None,
          rss_after: int = 0, stop: int = 0,
          probes: Optional[common.SetupProbes] = None) -> Drive:
    """Closed loop, one request in flight, in rounds of *round_size*
    requests: whole rounds until *seconds* have passed (or until *count*
    requests), and never past index *stop* when it is set.  Wraps around
    the list (serve_replay only).  With *replica* set, its peak RSS is
    read once *rss_after* requests have been answered.  *probes* run
    between rounds, outside the phase's clock."""
    out = Drive()
    t0 = time.perf_counter()
    i = start
    while not stop or i + round_size <= stop:
        if probes is not None:
            t0 += probes.between(time.perf_counter() - t0)
        r0 = time.perf_counter()
        answered = 0
        for _ in range(round_size):
            answer = ask(client, requests[i % len(requests)], i % len(requests))
            out.answers.append(answer)
            answered += answer.error is None
            i += 1
            if replica is not None and out.rss_mb is None and len(out.answers) >= rss_after:
                out.rss_mb = replica.peak_rss_mb()
        out.rounds.append((time.perf_counter() - r0, answered))
        if count:
            if len(out.answers) >= count:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    if replica is not None and out.rss_mb is None:
        out.rss_mb = replica.peak_rss_mb()  # the run fell short of rss_after
    return out


# -- inputs -------------------------------------------------------------------


def with_redundant_atom(omq, rng: random.Random):
    """*omq* plus a copy of one query atom over fresh variables (folds
    back onto the original: same semantics, new canonical hash)."""
    from repro.core.atoms import Atom
    from repro.core.omq import OMQ
    from repro.core.queries import CQ
    from repro.core.terms import Variable

    q = omq.query
    template = rng.choice(sorted(q.body, key=str))
    salt = rng.randrange(10_000)
    copy = Atom(template.predicate,
                tuple(Variable(f"r{salt}_{i}") for i in range(template.arity)))
    return OMQ(omq.data_schema, omq.sigma,
               CQ(q.head, tuple(q.body) + (copy,), q.name), name=omq.name)


def fill_cases(seed: int) -> List[corpus.Case]:
    """What the earlier session answers: the path family all-pairs (one
    signature group holding more NOT_CONTAINED witnesses than the
    witness store's scan limit of 8), random pairs with predicates
    renamed per pair (signature groups of one), random specialized
    pairs, equivalent pairs asked in both directions, and one large
    ontology (127 rules) against itself."""
    from repro.generators import (
        linear_witness_family,
        non_recursive_doubling,
        random_omq,
        random_omq_pair,
    )

    rng = random.Random(seed)
    cases = []
    for i in range(1, 6):
        for j in range(1, 6):
            cases.append(corpus.Case(
                f"path({i})-vs-({j})", "linear", "path",
                linear_witness_family(i), linear_witness_family(j)))
    for k in range(48):
        fragment = corpus.SERVE_FRAGMENTS[k % len(corpus.SERVE_FRAGMENTS)]
        q1, q2, _ = random_omq_pair(fragment, rng, "independent")
        suffix = f"_g{k}"
        cases.append(corpus.Case(
            f"random/{fragment}/g{k}", fragment, "random",
            corpus.rename_predicates(q1, suffix), corpus.rename_predicates(q2, suffix)))
    for k in range(16):
        fragment = corpus.SERVE_FRAGMENTS[k % len(corpus.SERVE_FRAGMENTS)]
        q1, q2, expected = random_omq_pair(fragment, rng, "specialized")
        cases.append(corpus.Case(f"specialized/{fragment}/{k}", fragment,
                                 "random", q1, q2, expected))
    big = non_recursive_doubling(7)
    cases.append(corpus.Case("big/non_recursive_doubling(7)", "non_recursive",
                             "big", big, big, "equivalent"))
    for k in range(12):
        fragment = corpus.SERVE_FRAGMENTS[k % len(corpus.SERVE_FRAGMENTS)]
        if fragment == "propositional":
            fragment = "linear"
        a = corpus.rename_predicates(random_omq(fragment, rng), f"_e{k}")
        b = with_redundant_atom(a, rng)
        cases.append(corpus.Case(f"equiv/{fragment}/{k}", fragment, "equiv",
                                 a, b, "equivalent"))
        cases.append(corpus.Case(f"equiv/{fragment}/{k}'", fragment, "equiv",
                                 b, a, "equivalent"))
    return cases


def replay_requests(seed: int, fill: List[corpus.Case], verdicts: List[str]):
    """The replay request list: (base fill index, spelling kind, q1, q2)."""
    from repro.generators import alpha_rename

    rng = random.Random(seed + 31337)
    refuted = [i for i, c in enumerate(fill)
               if c.kind == "random" and verdicts[i] == "not-contained"]
    equiv = [i for i, c in enumerate(fill) if c.kind == "equiv"]
    big = [i for i, c in enumerate(fill) if c.kind == "big"]
    every = [i for i, c in enumerate(fill) if c.kind != "big"]
    out = []
    while len(out) < REPLAY_REQUESTS:
        slot = len(out) % 10
        if len(out) % 50 == 49:
            # Two in a hundred requests carry a large ontology: parsing
            # and canonical hashing then take tens of ms.
            i = big[0]
            out.append((i, "big", alpha_rename(fill[i].q1, rng),
                        alpha_rename(fill[i].q2, rng)))
        elif slot < 3:
            i = rng.choice(every)
            out.append((i, "exact", fill[i].q1, fill[i].q2))
        elif slot < 6:
            i = rng.choice(every)
            out.append((i, "alpha", alpha_rename(fill[i].q1, rng),
                        alpha_rename(fill[i].q2, rng)))
        elif slot < 8 and refuted:
            i = rng.choice(refuted)
            out.append((i, "redundant",
                        alpha_rename(with_redundant_atom(fill[i].q1, rng), rng),
                        alpha_rename(with_redundant_atom(fill[i].q2, rng), rng)))
        else:
            i = rng.choice(equiv)
            out.append((i, "catalog", alpha_rename(fill[i].q1, rng),
                        alpha_rename(fill[i].q2, rng)))
    return out


# -- checks ---------------------------------------------------------------------


def library_verdicts(pairs) -> List[Any]:
    """The library's answers with every tier off (one call each, caches
    cleared before each)."""
    import repro

    out = []
    for q1, q2 in pairs:
        repro.clear_caches()
        out.append(repro.contains(q1, q2))
    return out


def check_answers(checker: oracle.Checker, items, rng: random.Random) -> None:
    """items: (label, q1, q2, expected, answer, library_result)."""
    for label, q1, q2, expected, answer, library in items:
        result = answer.result
        verdict = result.get("verdict", "")
        witness = result.get("witness")
        checker.verdict(
            label, oracle.plain_omq(q1), oracle.plain_omq(q2), expected,
            verdict, result.get("detail", ""),
            oracle.json_witness(witness) if witness else None, rng,
        )
        if library is not None:
            checker.agrees(label, verdict, str(library.verdict))


# -- workloads ------------------------------------------------------------------


class Session:
    """A scratch directory for one run's tiers, logs and timers."""

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="perfbench-", dir=str(common.ROOT)))

    def dir(self, name: str) -> Path:
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def boot(session: Session, name: str, tiers: Path, workers: int,
         traced: bool = False) -> Tuple[Replica, float]:
    """A running replica over *tiers*, and the seconds its boot took."""
    replica = Replica(session.dir(name), tiers, workers, traced)
    try:
        return replica, replica.start()
    except BaseException:
        replica.stop()
        raise


def boot_probe(session: Session, name: str, source: Optional[Path],
               workers: int) -> Callable[[], float]:
    """One set-up probe: boot a replica on a new copy of *source* (an
    empty tier directory when None), time it, stop it."""
    numbers = itertools.count()

    def probe() -> float:
        n = next(numbers)
        tiers = session.dir(f"{name}-probe-{n}-tiers")
        if source is not None:
            shutil.copytree(source, tiers, dirs_exist_ok=True)
        replica, elapsed = boot(session, f"{name}-probe-{n}", tiers, workers)
        replica.stop()
        return elapsed

    return probe


def _answered(answers: List[Answer]) -> List[Answer]:
    return [a for a in answers if a.error is None]


def _mix(answers: List[Answer]) -> Dict:
    tiers = collections.Counter()
    methods = collections.Counter()
    verdicts = collections.Counter()
    for a in answers:
        method = a.result.get("method", "")
        methods[method] += 1
        verdicts[a.verdict] += 1
        if method == "witness-replay":
            tiers["witness"] += 1
        elif method == "catalog-equivalence":
            tiers["catalog"] += 1
        elif a.doc.get("cached"):
            tiers["cache"] += 1
        else:
            tiers["fresh"] += 1
    return {"tier": dict(tiers), "method": dict(methods), "verdict": dict(verdicts)}


def end_to_end(run: Drive, setups, tail_pct) -> Tuple[Dict, Dict]:
    answered = _answered(run.answers)
    summary = common.latency_summary([a.latency for a in answered], tail_pct)
    summary["rounds"] = len(run.rounds)
    summary["round_rates"] = [round(n / t, 1) for t, n in run.rounds]
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "verdicts_per_s": common.metric(common.phase_rate(run.rounds), "1/s"),
        "verdict_p50_ms": common.metric(summary["p50_ms"], "ms"),
        "verdict_tail_ms": common.metric(summary["tail_ms"], "ms"),
        "peak_rss_mb": common.metric(run.rss_mb, "MiB"),
    }
    return metrics, summary


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    session = Session()
    try:
        if workload == "serve_fresh":
            return _fresh(session, seed, seconds, trace)
        return _replay(session, seed, seconds, trace)
    finally:
        session.close()


def _fresh(session: Session, seed: int, seconds: float, trace: bool) -> int:
    cases = corpus.fresh_cases(seed, FRESH_PAIRS)
    requests = [post_body(corpus.document((c.q1, c.q2))) for c in cases]
    tiers = session.dir("tiers")
    # The timed replica's own boot is untimed: it warms the file cache.
    replica, _ = boot(session, "fresh", tiers, 2)
    probes = common.SetupProbes(boot_probe(session, "fresh", None, 2), PROBES, seconds)
    try:
        client = Client(replica.port)
        warm = drive(client, requests, 0, 0, round_size=WARMUP, count=WARMUP).answers
        # A phase that would use up the pairs the traced pass needs ends
        # early, at a round boundary (only a much faster build gets there).
        run = drive(client, requests, WARMUP, seconds, round_size=ROUND["serve_fresh"],
                    replica=replica, rss_after=RSS_AFTER["serve_fresh"],
                    stop=len(requests) - WARMUP - TRACED_REQUESTS["serve_fresh"],
                    probes=probes)
        answers = run.answers
        client.close()
    finally:
        replica.stop()
    setups = probes.finish()
    metrics, summary = end_to_end(run, setups, TAIL_PCT["serve_fresh"])
    checked = warm + answers

    def base(a: Answer) -> str:
        # Family pairs differ from their (i, j) base pair only by
        # predicate and variable names, so each base is decided once.
        case = cases[a.index]
        return case.label if case.kind == "family" else f"#{a.index}"

    bases: Dict[str, Tuple[Any, Any]] = {}
    for a in checked:
        bases.setdefault(base(a), (cases[a.index].q1, cases[a.index].q2))
    library = dict(zip(bases, library_verdicts(list(bases.values()))))
    checker = oracle.Checker()
    check_answers(
        checker,
        [(cases[a.index].label, cases[a.index].q1, cases[a.index].q2,
          cases[a.index].expected, a, library[base(a)]) for a in checked],
        random.Random(seed + 104729),
    )
    details = {
        "workload": "serve_fresh", "seed": seed,
        "usable_cores": common.usable_cores(),
        "setup_probes_s": setups, "latency": summary,
        "inline_answers": sum(a.inline for a in answers),
        "mix": _mix(_answered(answers)),
        "fragments": _fragment_table(answers, cases),
        "kinds": _by_kind(answers, lambda a: cases[a.index].kind),
        "tiers_disk_bytes": common.dir_bytes(tiers),
        "checks": checker.summary(),
    }
    attempted, failed = len(answers), len(answers) - len(_answered(answers))
    if trace:
        metrics, traced_details = _traced(
            session, "serve_fresh", requests, None, 2, WARMUP + len(answers), run)
        details["traced"] = traced_details
        attempted += traced_details["attempted"]
        failed += traced_details["failed"]
    common.report(details)
    common.emit(checker.correct, attempted, failed, metrics)
    return 0


def _by_kind(answers: List[Answer], kind_of) -> Dict:
    """Answer count, median and p99 latency per request kind."""
    by = collections.defaultdict(list)
    for a in _answered(answers):
        by[kind_of(a)].append(a.latency * 1000.0)
    return {
        k: {"answers": len(v), "p50_ms": common.percentile(v, 50.0),
            "p99_ms": common.percentile(v, 99.0)}
        for k, v in sorted(by.items())
    }


def _fragment_table(answers: List[Answer], cases) -> Dict:
    by = collections.defaultdict(list)
    unknown = collections.Counter()
    for a in _answered(answers):
        fragment = cases[a.index].fragment
        by[fragment].append(a.latency * 1000.0)
        unknown[fragment] += a.verdict == "unknown"
    return {
        f: {"answers": len(v), "p50_ms": common.percentile(v, 50.0),
            "p99_ms": common.percentile(v, 99.0), "unknown": unknown[f]}
        for f, v in sorted(by.items())
    }


def _fill(session: Session, seed: int, tiers: Path):
    """The untimed earlier session that fills *tiers*."""
    fill = fill_cases(seed)
    replica, _ = boot(session, "fill", tiers, 1)
    try:
        client = Client(replica.port)
        answers = drive(client, [post_body(corpus.document((c.q1, c.q2))) for c in fill],
                        0, 0, round_size=len(fill), count=len(fill)).answers
        client.close()
    finally:
        replica.stop()
    bad = [a for a in answers if a.error is not None]
    if bad:
        raise common.SetupError(f"fill session failed: {bad[0].doc}")
    return fill, answers


def _replay(session: Session, seed: int, seconds: float, trace: bool) -> int:
    filled = session.dir("filled")
    fill, fill_answers = _fill(session, seed, filled)
    verdicts = [a.verdict for a in fill_answers]
    plan = replay_requests(seed, fill, verdicts)
    requests = [post_body(corpus.document((q1, q2))) for _, _, q1, q2 in plan]
    tiers = session.dir("tiers")
    shutil.copytree(filled, tiers, dirs_exist_ok=True)
    # The timed replica's own boot is untimed: it warms the file cache.
    replica, _ = boot(session, "replay", tiers, 1)
    probes = common.SetupProbes(boot_probe(session, "replay", filled, 1), PROBES, seconds)
    try:
        client = Client(replica.port)
        run = drive(client, requests, 0, seconds, round_size=ROUND["serve_replay"],
                    replica=replica, rss_after=RSS_AFTER["serve_replay"],
                    probes=probes)
        answers = run.answers
        client.close()
    finally:
        replica.stop()
    setups = probes.finish()
    metrics, summary = end_to_end(run, setups, TAIL_PCT["serve_replay"])
    checker = oracle.Checker()
    rng = random.Random(seed + 104729)
    library = library_verdicts([(c.q1, c.q2) for c in fill])
    # Every fill answer and one answer per (pair, spelling kind) go
    # through the oracle; every replay answer is held to the library's
    # verdict for its pair.
    items = [(c.label, c.q1, c.q2, c.expected, a, lib)
             for c, a, lib in zip(fill, fill_answers, library)]
    seen = set()
    fresh_answers = 0
    for a in answers:
        base, kind, q1, q2 = plan[a.index]
        case = fill[base]
        if not a.doc.get("cached") and a.result.get("method") not in (
                "witness-replay", "catalog-equivalence"):
            fresh_answers += 1
        if (base, kind) in seen:
            checker.agrees(case.label, a.verdict, str(library[base].verdict))
            continue
        seen.add((base, kind))
        items.append((f"{case.label}/{kind}", q1, q2, case.expected, a, library[base]))
    check_answers(checker, items, rng)
    details = {
        "workload": "serve_replay", "seed": seed,
        "usable_cores": common.usable_cores(),
        "setup_probes_s": setups, "latency": summary,
        "fill_pairs": len(fill),
        "fill_mix": _mix(fill_answers),
        "mix": _mix(_answered(answers)),
        "spellings": _by_kind(answers, lambda a: plan[a.index][1]),
        "answers_not_from_tiers": fresh_answers,
        "tiers_disk_bytes": common.dir_bytes(tiers),
        "checks": checker.summary(),
    }
    attempted, failed = len(answers), len(answers) - len(_answered(answers))
    if trace:
        metrics, traced_details = _traced(session, "serve_replay", requests, filled, 1,
                                          0, run)
        details["traced"] = traced_details
        attempted += traced_details["attempted"]
        failed += traced_details["failed"]
    common.report(details)
    common.emit(checker.correct, attempted, failed, metrics)
    return 0


# -- traced runs ----------------------------------------------------------------


def _traced_pass(session, workload, requests, filled, workers, start):
    """Fixed work through the benchmark's replica with timers and span
    tracing, over a fresh copy of the tiers the timed phase started from."""
    tiers = session.dir(f"{workload}-traced-tiers")
    if filled is not None:
        shutil.copytree(filled, tiers, dirs_exist_ok=True)
    replica, _ = boot(session, f"{workload}-traced", tiers, workers, traced=True)
    try:
        client = Client(replica.port)
        if filled is None:
            drive(client, requests, start, 0, round_size=WARMUP, count=WARMUP)
            start += WARMUP
        run = drive(client, requests, start, 0, round_size=ROUND[workload],
                    count=TRACED_REQUESTS[workload])
        snap = client.get("/metrics")["metrics"]
        profile = client.get("/v1/debug/profile")["profile"]
        client.close()
    finally:
        replica.stop()
    dump = json.loads((replica.workdir / "timers.json").read_text(encoding="utf-8"))
    return run, snap, profile, dump, common.dir_bytes(tiers)


def _traced(session, workload, requests, filled, workers, start, timed: Drive):
    """Per-layer metrics: the traced pass, plus client-side timings and
    the untraced rate from the same run's (untraced) timed phase."""
    run, snap, profile, dump, disk = _traced_pass(
        session, workload, requests, filled, workers, start)
    answers = run.answers
    plain_ok = _answered(timed.answers)
    timers = dump["timers"]
    values = layers.zeroed()
    posts = len(answers)
    values["serve.submit_ms"] = common.percentile([a.submit * 1000 for a in plain_ok], 50.0)
    handoff = [(a.latency - a.doc.get("duration_ms", 0) / 1000.0) * 1000
               for a in plain_ok if not a.inline]
    values["serve.handoff_ms"] = common.percentile(handoff, 50.0) if handoff else 0.0
    for metric_name, timer in (("parser.parse_ms", "parser.parse"),
                               ("canon.hash_ms", "canon.hash"),
                               ("witness.replay_ms", "witness.replay"),
                               ("catalog.lookup_ms", "catalog.lookup"),
                               ("cache.get_ms", "cache.get")):
        values[metric_name] = timers.get(timer, {}).get("self_s", 0.0) * 1000.0 / posts
    for name in layers.TIER_COUNTERS:
        value = snap.get(name, 0)
        values[name] = float(value if not isinstance(value, dict) else value.get("count", 0))
    replays = snap.get("engine.witness.replays", 0)
    values["witness.replay_yield"] = (
        snap.get("engine.witness.hits", 0) / replays if replays else 0.0)
    values["tiers.disk_bytes"] = float(disk)
    wait = snap.get("engine.scheduler.queue_wait")
    values["engine.scheduler.queue_wait"] = (
        wait["total_s"] * 1000.0 / wait["count"] if wait and wait.get("count") else 0.0)
    values["pool.tasks"] = float(snap.get("engine.containment.runs", 0)) if workers > 1 else 0.0
    values["pool.failures"] = float(snap.get("engine.containment.failures", 0))
    ok = _answered(answers)
    values["pool.busy_s"] = (
        sum(a.doc.get("duration_ms", 0) for a in ok if not a.doc.get("cached")) / 1000.0
        if workers > 1 else 0.0)
    spans = profile.get("spans", {})
    for name in layers.SPAN_METRICS:
        block = spans.get(name[: -len(".self_ms")])
        values[name] = block["self"]["sum_s"] * 1000.0 / posts if block else 0.0
    counters = profile.get("counters", {})
    for name in layers.KERNEL_COUNTERS:
        short = name[len("kernel."):]
        values[name] = float(snap.get(name, 0)) + float(counters.get(short, 0))
    for a in ok:
        key = f"containment.method.{a.result.get('method', '')}"
        if key in values:
            values[key] += 1
        values["containment.unknown"] += a.verdict == "unknown"
    rewrite = spans.get("rewrite.xrewrite")
    for name in ("xrewrite.generated", "xrewrite.final_disjuncts"):
        values[name] = float(dump["rewriting"].get(name, 0))
    hits, misses = snap.get("kernel.plan.hits", 0), snap.get("kernel.plan.misses", 0)
    values["kernel.plan.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # The same number of rounds from the start of the untraced timed
    # phase: serve_replay's traced pass repeats exactly those requests.
    plain_rate = common.phase_rate(timed.rounds[: len(run.rounds)])
    traced_rate = common.phase_rate(run.rounds)
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate
    total = sum(a.latency for a in answers)
    job = spans.get("job.containment")
    covered = (
        timers.get("serve.handle", {}).get("inclusive_s", 0.0)
        + timers.get("serve.write", {}).get("inclusive_s", 0.0)
        + (job["total"]["sum_s"] if job else 0.0)
    )
    values["trace.unattributed_pct"] = 100.0 * (total - covered) / total
    details = {
        "attempted": len(answers),
        "failed": len(answers) - len(ok),
        "requests": posts,
        "timers": timers,
        "xrewrite_spans": rewrite["count"] if rewrite else 0,
    }
    return {k: common.metric(v, layers.UNITS[k]) for k, v in values.items()}, details
