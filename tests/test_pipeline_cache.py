"""Content fingerprints and the on-disk result cache."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.solvers import SolverConfig
from repro.pipeline.cache import CACHE_ENV_VAR, ResultCache, default_cache
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
    traffic_fingerprint,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic
from repro.traffic.stride import stride_traffic
from repro.util.hashing import stable_digest


@pytest.fixture
def instance():
    topo = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
    traffic = random_permutation_traffic(topo, seed=4)
    return topo, traffic


class TestFingerprints:
    def test_topology_fingerprint_stable(self, instance):
        topo, _ = instance
        assert topology_fingerprint(topo) == topology_fingerprint(topo)

    def test_same_content_same_fingerprint(self):
        a = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
        b = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_name_excluded(self):
        a = random_regular_topology(10, 4, seed=3, name="alpha")
        b = random_regular_topology(10, 4, seed=3, name="beta")
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_different_graph_different_fingerprint(self):
        a = random_regular_topology(10, 4, seed=3)
        b = random_regular_topology(10, 4, seed=4)
        assert topology_fingerprint(a) != topology_fingerprint(b)

    def test_capacity_matters(self, instance):
        topo, _ = instance
        before = topology_fingerprint(topo)
        link = topo.links[0]
        topo.remove_link(link.u, link.v)
        topo.add_link(link.u, link.v, capacity=2.5)
        assert topology_fingerprint(topo) != before

    def test_traffic_fingerprint(self, instance):
        topo, traffic = instance
        same = random_permutation_traffic(topo, seed=4)
        other = random_permutation_traffic(topo, seed=5)
        assert traffic_fingerprint(traffic) == traffic_fingerprint(same)
        assert traffic_fingerprint(traffic) != traffic_fingerprint(other)

    def test_traffic_name_excluded(self, instance):
        topo, _ = instance
        a = stride_traffic(topo, stride=1, name="x")
        b = stride_traffic(topo, stride=1, name="y")
        assert traffic_fingerprint(a) == traffic_fingerprint(b)

    def test_solver_fingerprint_includes_options(self):
        a = solver_fingerprint(SolverConfig.make("path_lp", k=4))
        b = solver_fingerprint(SolverConfig.make("path_lp", k=8))
        c = solver_fingerprint(SolverConfig.make("path_lp", k=4))
        assert a != b
        assert a == c

    def test_solver_fingerprint_includes_version(self, monkeypatch):
        from repro.flow import solvers

        config = SolverConfig.make("path_lp", k=4)
        before = solver_fingerprint(config)
        backend = solvers.get_solver("path_lp")
        monkeypatch.setitem(
            solvers._REGISTRY,
            "path_lp",
            dataclasses.replace(backend, version=backend.version + 1),
        )
        assert solver_fingerprint(config) != before

    def test_lp_backends_are_version_2(self):
        # The default LP method moved from dual simplex to interior point,
        # which can move low bits and vertex solutions of every LP backend.
        from repro.flow import solvers

        for name in ("edge_lp", "path_lp", "estimate_sampled_lp"):
            config = SolverConfig.make(name)
            assert solvers.get_solver(name).version == 2, name
            assert solver_fingerprint(config) == stable_digest(
                {**config.to_dict(), "version": 2}
            ), name
        assert solvers.get_solver("estimate_bound").version == 1

    def test_version_bump_misses_cache(self, tmp_path, monkeypatch):
        from repro.flow import solvers
        from repro.pipeline.engine import run_grid
        from repro.pipeline.scenario import (
            ScenarioGrid,
            TopologySpec,
            TrafficSpec,
        )

        grid = ScenarioGrid(
            name="version-bump",
            topologies=(
                TopologySpec.make(
                    "rrg", network_degree=4, servers_per_switch=2
                ),
            ),
            traffics=(TrafficSpec.make("permutation"),),
            solvers=(SolverConfig("estimate_bound"),),
            sizes=(10,),
            seeds=1,
        )
        cold = run_grid(grid, cache_dir=str(tmp_path))
        warm = run_grid(grid, cache_dir=str(tmp_path))
        assert [c.cache_hit for c in cold.cells] == [False]
        assert [c.cache_hit for c in warm.cells] == [True]
        backend = solvers.get_solver("estimate_bound")
        monkeypatch.setitem(
            solvers._REGISTRY,
            "estimate_bound",
            dataclasses.replace(backend, version=backend.version + 1),
        )
        bumped = run_grid(grid, cache_dir=str(tmp_path))
        assert [c.cache_hit for c in bumped.cells] == [False]
        assert bumped.cells[0].throughput == cold.cells[0].throughput

    def test_result_key_composition(self):
        key = result_key("t" * 64, "m" * 64, "s" * 64)
        assert len(key) == 64
        assert key != result_key("t" * 64, "m" * 64, "x" * 64)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        result = max_concurrent_flow(topo, traffic)
        cache.put(key, result, meta={"note": "test"})
        assert key in cache
        restored = cache.get(key)
        assert restored is not None
        assert restored.throughput == result.throughput
        assert restored.arc_capacities == result.arc_capacities
        assert cache.hits == 1
        assert cache.misses == 1

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        from repro.flow.result import ThroughputResult

        cache.put("aa" + "0" * 62, ThroughputResult(throughput=1.0))
        cache.put("bb" + "0" * 62, ThroughputResult(throughput=2.0))
        assert len(cache) == 2

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cc" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "dd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": -1, "result": {}}), encoding="utf-8"
        )
        assert cache.get(key) is None

    def test_valid_json_wrong_shape_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": 1, "unexpected": True}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_default_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert default_cache() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path

    def test_default_cache_memoized_per_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert default_cache() is default_cache()


class TestStaleEntryEviction:
    """Unreadable/mismatched entries are deleted at read time: a miss
    whose recompute never gets ``put`` (worker crash) must not leave the
    stale file behind to be re-parsed forever."""

    def test_corrupt_entry_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ff" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_schema_mismatch_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": -1, "result": {}}), encoding="utf-8"
        )
        assert cache.get(key) is None
        assert not path.exists()
        assert key not in cache

    def test_wrong_shape_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": 1, "unexpected": True}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert not path.exists()

    def test_plain_miss_leaves_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        assert cache.get(key) is None
        assert not cache._path(key).exists()

    def test_good_entry_survives_read(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path)
        key = "aa" + "1" * 62
        cache.put(key, ThroughputResult(throughput=1.5))
        assert cache.get(key) is not None
        assert cache._path(key).exists()

    def test_non_utf8_entry_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ba" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe not utf-8")
        assert cache.get(key) is None
        assert not path.exists()


class TestLruCap:
    """Opt-in ``max_entries`` bound: puts beyond the cap evict the
    least-recently-used entries; the default stays unbounded."""

    @staticmethod
    def _key(index: int) -> str:
        return f"{index:02x}" * 32

    @staticmethod
    def _age(cache, key, seconds):
        """Backdate an entry's mtime so recency ordering is deterministic
        (sub-second writes can otherwise tie)."""
        import os
        import time

        path = cache._path(key)
        stamp = time.time() - seconds
        os.utime(path, (stamp, stamp))

    def _fill(self, cache, count):
        from repro.flow.result import ThroughputResult

        for index in range(count):
            cache.put(self._key(index), ThroughputResult(throughput=index))
            self._age(cache, self._key(index), seconds=100 - index)

    def test_default_stays_unbounded(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.max_entries is None
        self._fill(cache, 5)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_put_evicts_oldest_beyond_cap(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path, max_entries=2)
        self._fill(cache, 2)
        cache.put(self._key(2), ThroughputResult(throughput=2.0))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(self._key(0)) is None  # the oldest went
        assert cache.get(self._key(1)) is not None
        assert cache.get(self._key(2)) is not None

    def test_get_refreshes_recency(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path, max_entries=2)
        self._fill(cache, 2)
        assert cache.get(self._key(0)) is not None  # touch the oldest
        cache.put(self._key(2), ThroughputResult(throughput=2.0))
        # Entry 1 is now the least recently used, not entry 0.
        assert cache.get(self._key(0)) is not None
        assert cache.get(self._key(1)) is None

    def test_overfull_pre_existing_dir_trimmed(self, tmp_path):
        from repro.flow.result import ThroughputResult

        unbounded = ResultCache(tmp_path)
        self._fill(unbounded, 4)
        bounded = ResultCache(tmp_path, max_entries=2)
        bounded.put(self._key(4), ThroughputResult(throughput=4.0))
        assert len(bounded) == 2
        assert bounded.evictions == 3
        assert bounded.get(self._key(4)) is not None

    def test_bounded_cache_still_round_trips(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, max_entries=8)
        result = max_concurrent_flow(topo, traffic)
        key = self._key(7)
        cache.put(key, result)
        restored = cache.get(key)
        assert restored is not None
        assert restored.throughput == result.throughput

    def test_rejects_non_positive_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)


class TestInProcessMemo:
    """The LRU memo fronting the disk store: hit accounting, mutation
    safety, and the ``memo_size`` knob."""

    @staticmethod
    def _key(index: int) -> str:
        return f"{index:02x}" * 32

    def test_second_get_is_a_memo_hit(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        result = max_concurrent_flow(topo, traffic)
        cache.put(self._key(0), result)
        first = cache.get(self._key(0))
        second = cache.get(self._key(0))
        assert first.throughput == second.throughput == result.throughput
        stats = cache.stats()
        # put() memoizes, so neither get touched the disk.
        assert stats["memo_hits"] == 2
        assert stats["disk_hits"] == 0
        assert stats["hits"] == 2

    def test_fresh_instance_promotes_disk_hit_to_memo(self, tmp_path, instance):
        topo, traffic = instance
        writer = ResultCache(tmp_path)
        writer.put(self._key(0), max_concurrent_flow(topo, traffic))
        reader = ResultCache(tmp_path)
        reader.get(self._key(0))
        reader.get(self._key(0))
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["memo_hits"] == 1

    def test_memoized_results_are_mutation_safe(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        cache.put(self._key(0), max_concurrent_flow(topo, traffic))
        first = cache.get(self._key(0))
        first.arc_flows.clear()
        second = cache.get(self._key(0))
        assert second.arc_flows  # fresh containers per get

    def test_memo_size_zero_disables_memo(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, memo_size=0)
        cache.put(self._key(0), max_concurrent_flow(topo, traffic))
        cache.get(self._key(0))
        cache.get(self._key(0))
        stats = cache.stats()
        assert stats["memo_hits"] == 0
        assert stats["disk_hits"] == 2
        assert stats["memo_entries"] == 0

    def test_memo_evicts_least_recently_used(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, memo_size=2)
        result = max_concurrent_flow(topo, traffic)
        for index in range(3):
            cache.put(self._key(index), result)
        assert cache.stats()["memo_entries"] == 2
        cache.get(self._key(0))  # evicted from memo, still on disk
        assert cache.stats()["disk_hits"] == 1

    def test_payload_memo_respects_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_payload(self._key(0), "routes", {"value": 1})
        assert cache.get_payload(self._key(0), kind="routes") == {"value": 1}
        assert cache.stats()["memo_hits"] == 1
        # A kind mismatch must not serve the memoized payload.
        assert cache.get_payload(self._key(0), kind="other") is None

    def test_negative_memo_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="memo_size"):
            ResultCache(tmp_path, memo_size=-1)


class TestFaultInjection:
    """Damaged entries read as misses, are evicted and leave the memo
    clean; a write that fails midway (a full disk) propagates and leaves
    neither a temp file nor an entry behind."""

    KEY = "5e" + "0" * 62

    @staticmethod
    def _truncate(path):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    @staticmethod
    def _non_utf8(path):
        path.write_bytes(b"\xff\xfe" + path.read_bytes())

    @staticmethod
    def _future_schema(path):
        from repro.pipeline.cache import CACHE_SCHEMA_VERSION

        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry), encoding="utf-8")

    @pytest.mark.parametrize("damage", ["_truncate", "_non_utf8", "_future_schema"])
    @pytest.mark.parametrize("entry_kind", [None, "routes"])
    def test_damaged_entry_is_evicted_miss(self, tmp_path, damage, entry_kind):
        from repro.flow.result import ThroughputResult

        writer = ResultCache(tmp_path)
        if entry_kind is None:
            writer.put(self.KEY, ThroughputResult(throughput=1.5))
        else:
            writer.put_payload(self.KEY, entry_kind, {"value": 1})
        path = writer._path(self.KEY)
        getattr(self, damage)(path)
        reader = ResultCache(tmp_path)
        for _ in range(2):  # the second read must not find a memoized copy
            if entry_kind is None:
                assert reader.get(self.KEY) is None
            else:
                assert reader.get_payload(self.KEY, kind=entry_kind) is None
            assert not path.exists()
        stats = reader.stats()
        assert (stats["hits"], stats["misses"], stats["memo_entries"]) == (0, 2, 0)

    def test_payload_of_the_wrong_kind_is_evicted_miss(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put_payload(self.KEY, "routes", {"value": 1})
        path = writer._path(self.KEY)
        reader = ResultCache(tmp_path)
        assert reader.get_payload(self.KEY, kind="other") is None
        assert not path.exists()
        # The right kind now misses too: the entry is gone, not memoized.
        assert reader.get_payload(self.KEY, kind="routes") is None
        assert reader.stats()["memo_entries"] == 0

    def test_payload_entry_read_as_a_result_is_evicted_miss(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put_payload(self.KEY, "routes", {"value": 1})
        reader = ResultCache(tmp_path)
        assert reader.get(self.KEY) is None
        assert not writer._path(self.KEY).exists()
        assert reader.stats()["memo_entries"] == 0

    @pytest.mark.parametrize("method", ["put", "put_payload"])
    def test_full_disk_midway_through_put(self, tmp_path, monkeypatch, method):
        import errno

        from repro.flow.result import ThroughputResult
        from repro.pipeline import cache as cache_module

        def full_disk(entry, handle):
            handle.write(json.dumps(entry)[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cache_module.json, "dump", full_disk)
        with pytest.raises(OSError) as failure:
            if method == "put":
                cache.put(self.KEY, ThroughputResult(throughput=1.5))
            else:
                cache.put_payload(self.KEY, "routes", {"value": 1})
        monkeypatch.undo()
        assert failure.value.errno == errno.ENOSPC
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert self.KEY not in cache
        assert cache.get(self.KEY) is None
        assert cache.get_payload(self.KEY, kind="routes") is None
        assert cache.stats()["memo_entries"] == 0
