"""The result cache front, with and without its disk layer.

Every test here runs against ``memory`` (no ``cache_dir``: no disk layer
at all) and ``sqlite`` (the WAL file under ``cache_dir``).  Whatever the
disk layer cannot do the front must *degrade* from, never crash: a bad
payload costs a miss, contention costs a transient error, and the memory
layer keeps serving throughout.

The durable-store contract the cache shares with the catalog and the
witness store (stamps, damage, locks, foreign files, full disks) is
``test_store.py``; sqlite regressions of the cache itself stay in
``test_engine_cache.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.containment.result import ContainmentResult, Verdict, contained
from repro.engine import cache as cache_module
from repro.engine.cache import ResultCache

LAYERS = ("memory", "sqlite")
DISK_LAYERS = ("sqlite",)


def make_cache(backend, tmp_path, **kwargs):
    cache_dir = str(tmp_path) if backend == "sqlite" else None
    return ResultCache(cache_dir, **kwargs)


@pytest.fixture(params=LAYERS)
def any_backend(request):
    return request.param


@pytest.fixture(params=DISK_LAYERS)
def disk_backend(request):
    return request.param


class TestConformance:
    def test_roundtrip_hit_and_miss(self, any_backend, tmp_path):
        cache = make_cache(any_backend, tmp_path)
        assert cache.get("k") == (False, None)
        cache.put("k", {"answer": 42})
        assert cache.get("k") == (True, {"answer": 42})
        assert cache.stats()["backend"] == any_backend
        cache.close()

    def test_lru_eviction_in_memory_layer(self, any_backend, tmp_path):
        cache = make_cache(any_backend, tmp_path, memory_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        # Evicted keys remain reachable iff the disk layer persists bytes.
        found, value = cache.get("b")
        if cache.persistent:
            assert (found, value) == (True, 2)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        cache.close()

    def test_persistence_across_reopen(self, any_backend, tmp_path):
        c1 = make_cache(any_backend, tmp_path)
        persistent = c1.persistent
        assert persistent == (any_backend in DISK_LAYERS)
        c1.put("k", contained("test-method", "detail"))
        c1.close()
        c2 = make_cache(any_backend, tmp_path)
        found, value = c2.get("k")
        if persistent:
            assert found
            assert isinstance(value, ContainmentResult)
            assert value.verdict is Verdict.CONTAINED
        else:
            assert not found
        c2.close()

    def test_clear_empties_both_layers(self, any_backend, tmp_path):
        cache = make_cache(any_backend, tmp_path)
        cache.put("k", "v")
        cache.clear()
        assert cache.get("k") == (False, None)
        assert cache.stats()["disk_entries"] in (0, None)
        cache.close()

    def test_clear_memory_keeps_disk(self, disk_backend, tmp_path):
        cache = make_cache(disk_backend, tmp_path)
        cache.put("k", "v")
        cache.clear_memory()
        assert cache.get("k") == (True, "v")
        assert cache.stats()["disk_hits"] == 1
        cache.close()

    def test_unpicklable_value_stays_in_memory(self, any_backend, tmp_path):
        cache = make_cache(any_backend, tmp_path)
        value = lambda: None  # noqa: E731 - deliberately unpicklable
        cache.put("k", value)
        assert cache.get("k") == (True, value)
        cache.clear_memory()
        assert cache.get("k") == (False, None)
        cache.close()

    def test_corrupt_payload_degrades_to_miss(self, disk_backend, tmp_path):
        """Bytes that fail to unpickle cost exactly one miss — the bad
        entry is dropped, everything else keeps working."""
        cache = make_cache(disk_backend, tmp_path)
        cache.put("good", "v")
        cache.put("bad", "w")
        cache._write_payload("bad", b"\x00not a pickle\xff")
        cache.clear_memory()
        assert cache.get("bad") == (False, None)
        assert cache.get("good") == (True, "v")
        # The poisoned row was deleted, not left to fail forever.
        cache.put("bad", "fresh")
        cache.clear_memory()
        assert cache.get("bad") == (True, "fresh")
        cache.close()

    def test_version_bump_invalidates_silently(
        self, disk_backend, tmp_path, monkeypatch
    ):
        """A schema-version bump must hide (or discard) old entries — it
        must never serve stale bytes across structural changes."""
        c1 = make_cache(disk_backend, tmp_path)
        c1.put("k", "old-format")
        c1.close()
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", "999-test")
        c2 = make_cache(disk_backend, tmp_path)
        assert c2.get("k") == (False, None)
        c2.put("k", "new-format")
        c2.clear_memory()
        assert c2.get("k") == (True, "new-format")
        c2.close()

    def test_store_count_matches_entries(self, disk_backend, tmp_path):
        cache = make_cache(disk_backend, tmp_path)
        for i in range(7):
            cache.put(f"k{i}", i)
        assert cache.stats()["disk_entries"] == 7
        cache.close()


class TestTwoProcessContention:
    def test_two_processes_share_one_cache_dir(self, disk_backend, tmp_path):
        """Two concurrent writers hammer one cache_dir.  Neither process
        may 'recover' (i.e. delete) shared state, and every row must
        survive — WAL plus the busy timeout."""
        script = (
            "import json, sys\n"
            "from repro.engine.cache import ResultCache\n"
            "tag, cache_dir = sys.argv[1:3]\n"
            "cache = ResultCache(cache_dir)\n"
            "for i in range(40):\n"
            "    cache.put(f'{tag}:{i}', {'tag': tag, 'i': i})\n"
            "    cache.get(f'{tag}:{i}')\n"
            "stats = cache.stats()\n"
            "cache.close()\n"
            "print(json.dumps({'recoveries': stats['recoveries'],\n"
            "                  'persistent': stats['persistent']}))\n"
        )
        repo_root = Path(__file__).resolve().parent.parent
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, str(tmp_path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=repo_root,
                env={"PYTHONPATH": str(repo_root / "src")},
            )
            for tag in ("a", "b")
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))
        assert [r["recoveries"] for r in reports] == [0, 0]
        assert all(r["persistent"] for r in reports)

        survivor = make_cache(disk_backend, tmp_path)
        assert survivor.stats()["disk_entries"] == 80
        assert survivor.get("a:0") == (True, {"tag": "a", "i": 0})
        assert survivor.get("b:39") == (True, {"tag": "b", "i": 39})
        assert survivor.recoveries == 0
        survivor.close()
