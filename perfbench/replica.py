"""A ``repro serve`` replica with the benchmark's timers installed.

    python3 perfbench/replica.py TIMERS_JSON serve [repro serve flags...]

Runs the program's own CLI entry (``repro.cli.main``) after wrapping the
public entry points of the layers that have no span of their own:

* ``serve.handle`` — ``ServeApp.handle_request`` (HTTP request handling);
* ``serve.write`` — ``repro.serve.http.write_response`` for plain
  (non-streaming) responses;
* ``parser.parse`` — ``parse_job_spec`` as the app calls it (job
  documents → engine jobs, both OMQ documents parsed);
* ``canon.hash`` — ``hash_omq`` as the jobs call it (canonical keys);
* ``witness.replay`` — ``WitnessStore.replay``;
* ``catalog.lookup`` — ``OMQCatalog.equivalent`` and ``OMQCatalog.rep``;
* ``cache.get`` — ``ResultCache.get``.

It also totals the rewriting size the traced jobs report (the
``generated`` and ``final_disjuncts`` attributes of every
``rewrite.xrewrite`` span), which the live profile does not aggregate.

Timers nest: each records its inclusive time and its self time (minus
nested timers), per thread.  When the replica exits, the totals are
written to TIMERS_JSON.  Work inside pool workers is not timed here; its
span trees ride back with each result and reach ``/v1/debug/profile``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List


class Timers:
    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.rewriting: Dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def leave(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        self.count[name] += 1
        self.inclusive[name] += elapsed
        self.self_s[name] += elapsed - nested

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, started)

        return timed

    def to_json(self) -> Dict:
        return {
            "timers": {
                name: {
                    "count": self.count[name],
                    "inclusive_s": self.inclusive[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.count)
            },
            "rewriting": dict(self.rewriting),
        }


def install(timers: Timers) -> None:
    from repro.engine import cache, catalog, jobs, witness_store
    from repro.serve import app, http

    app.parse_job_spec = timers.wrap("parser.parse", app.parse_job_spec)
    jobs.hash_omq = timers.wrap("canon.hash", jobs.hash_omq)
    store = witness_store.WitnessStore
    store.replay = timers.wrap("witness.replay", store.replay)
    cat = catalog.OMQCatalog
    cat.equivalent = timers.wrap("catalog.lookup", cat.equivalent)
    cat.rep = timers.wrap("catalog.lookup", cat.rep)
    results = cache.ResultCache
    results.get = timers.wrap("cache.get", results.get)

    handle = app.ServeApp.handle_request

    @functools.wraps(handle)
    async def handle_request(self, request):
        # The app resolves every route without suspending, so the timer
        # stack of the event-loop thread stays well nested.
        started = timers.enter()
        try:
            return await handle(self, request)
        finally:
            timers.leave("serve.handle", started)

    app.ServeApp.handle_request = handle_request

    write = http.write_response

    @functools.wraps(write)
    async def write_response(writer, response, *, keep_alive):
        if response.stream is not None:
            return await write(writer, response, keep_alive=keep_alive)
        started = time.perf_counter()
        try:
            return await write(writer, response, keep_alive=keep_alive)
        finally:
            elapsed = time.perf_counter() - started
            timers.count["serve.write"] += 1
            timers.inclusive["serve.write"] += elapsed
            timers.self_s["serve.write"] += elapsed

    http.write_response = write_response

    from repro.obs import profile, walk

    add_root = profile.ProfileAccumulator.add_root

    @functools.wraps(add_root)
    def add_traced_job(self, root):
        for node in walk(root):
            if node["name"] == "rewrite.xrewrite":
                attrs = node.get("attrs", {})
                timers.rewriting["xrewrite.generated"] += attrs.get("generated", 0)
                timers.rewriting["xrewrite.final_disjuncts"] += attrs.get(
                    "final_disjuncts", 0
                )
        return add_root(self, root)

    profile.ProfileAccumulator.add_root = add_traced_job


def main(argv: List[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    timers = Timers()
    install(timers)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(timers.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
