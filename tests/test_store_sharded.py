"""ShardedBackend: layout, migration, shard journals, CAS rotation."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import StoreCorruptionError, StoreError
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.sim.runner import replicate
from repro.store import (
    DiskStore,
    FileLock,
    ShardedBackend,
    ShardJournal,
    migrate_store,
    open_store,
)
from repro.store.cli import main as store_cli


@pytest.fixture
def results():
    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
    return replicate(ProbabilisticRelay(0.5), cfg, 4, seed=7)


@pytest.fixture
def keys(results):
    from repro.store import task_key
    from repro.utils.rng import as_seed_sequence

    cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
    children = as_seed_sequence(7).spawn(4)
    return [
        task_key(ProbabilisticRelay(0.5), cfg, child, "vector", "phase")
        for child in children
    ]


def assert_same(a, b):
    np.testing.assert_array_equal(a.new_informed_by_slot, b.new_informed_by_slot)
    np.testing.assert_array_equal(a.broadcasts_by_slot, b.broadcasts_by_slot)
    assert a.seed_entropy == b.seed_entropy


class TestLayout:
    def test_put_lands_in_first_hex_char_shard(self, tmp_path, results, keys):
        store = ShardedBackend(tmp_path / "s")
        store.put(keys[0], [results[0]])
        shard_dir = tmp_path / "s" / "shards" / keys[0][0]
        assert (shard_dir / "objects" / keys[0][:2] / f"{keys[0]}.json").exists()

    def test_round_trip_bit_identical(self, tmp_path, results, keys):
        store = ShardedBackend(tmp_path / "s")
        for key, res in zip(keys, results):
            store.put(key, [res])
        for key, res in zip(keys, results):
            (back,) = store.get(key)
            assert_same(res, back)

    def test_open_store_dispatches_on_marker(self, tmp_path):
        DiskStore(tmp_path / "classic")
        ShardedBackend(tmp_path / "sharded")
        assert isinstance(open_store(tmp_path / "classic"), DiskStore)
        assert isinstance(open_store(tmp_path / "sharded"), ShardedBackend)
        # A fresh directory defaults to the classic layout.
        assert isinstance(open_store(tmp_path / "new"), DiskStore)

    def test_sharded_marker_rejected_by_diskstore(self, tmp_path):
        ShardedBackend(tmp_path / "s")
        with pytest.raises(StoreError, match="unsupported store schema"):
            DiskStore(tmp_path / "s")

    def test_classic_marker_rejected_by_sharded(self, tmp_path):
        DiskStore(tmp_path / "c")
        with pytest.raises(StoreError, match="migrate"):
            ShardedBackend(tmp_path / "c")

    def test_keys_sorted_and_delete(self, tmp_path, results, keys):
        store = ShardedBackend(tmp_path / "s")
        for key, res in zip(keys, results):
            store.put(key, [res])
        assert list(store.keys()) == sorted(keys)
        assert store.delete(keys[0])
        assert not store.delete(keys[0])
        assert keys[0] not in store

    def test_stats_per_shard_breakdown(self, tmp_path, results, keys):
        store = ShardedBackend(tmp_path / "s")
        for key, res in zip(keys, results):
            store.put(key, [res])
        stats = store.stats()
        assert stats["entries"] == len(keys)
        assert set(stats["shards"]) == set("0123456789abcdef")
        per_shard = sum(s["entries"] for s in stats["shards"].values())
        assert per_shard == len(keys)
        for key in keys:
            assert stats["shards"][key[0]]["entries"] >= 1

    def test_verify_clean_and_corrupt(self, tmp_path, results, keys):
        store = ShardedBackend(tmp_path / "s")
        store.put(keys[0], [results[0]])
        assert store.verify() == []
        path = store.path_for(keys[0])
        path.write_text(path.read_text()[:-40])
        assert [k for k, _ in store.verify()] == [keys[0]]


class TestMigrate:
    def test_migrated_entries_byte_identical(self, tmp_path, results, keys):
        classic = DiskStore(tmp_path / "c")
        for key, res in zip(keys, results):
            classic.put(key, [res])
        classic.flush_index()
        report = migrate_store(tmp_path / "c", tmp_path / "s")
        assert report["entries"] == len(keys)
        sharded = open_store(tmp_path / "s")
        assert isinstance(sharded, ShardedBackend)
        for key in keys:
            assert (
                classic.path_for(key).read_bytes()
                == sharded.path_for(key).read_bytes()
            )
        assert sharded.verify() == []

    def test_migrate_moves_sweep_journals(self, tmp_path, results, keys):
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
        classic = DiskStore(tmp_path / "c")
        replicate(ProbabilisticRelay(0.5), cfg, 4, seed=7, store=classic)
        journals = sorted(p.name for p in classic.journals_dir.glob("*.jsonl"))
        assert journals
        migrate_store(tmp_path / "c", tmp_path / "s")
        sharded = open_store(tmp_path / "s")
        assert (
            sorted(p.name for p in sharded.journals_dir.glob("*.jsonl"))
            == journals
        )

    def test_migrate_refuses_sharded_source_and_dirty_target(self, tmp_path):
        ShardedBackend(tmp_path / "s")
        with pytest.raises(StoreError, match="already sharded"):
            migrate_store(tmp_path / "s", tmp_path / "t")
        DiskStore(tmp_path / "c")
        (tmp_path / "dirty").mkdir()
        (tmp_path / "dirty" / "junk").write_text("x")
        with pytest.raises(StoreError, match="not empty"):
            migrate_store(tmp_path / "c", tmp_path / "dirty")

    def test_warm_replay_after_migration(self, tmp_path):
        cfg = SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=15))
        classic = DiskStore(tmp_path / "c")
        first = replicate(ProbabilisticRelay(0.5), cfg, 4, seed=7, store=classic)
        classic.flush_index()
        migrate_store(tmp_path / "c", tmp_path / "s")
        # A path now opens sharded and serves every task from cache.
        again = replicate(
            ProbabilisticRelay(0.5), cfg, 4, seed=7, store=tmp_path / "s"
        )
        for a, b in zip(first, again, strict=True):
            assert_same(a, b)


class TestShardJournal:
    def test_append_and_read_back(self, tmp_path):
        journal = ShardJournal(tmp_path / "j")
        journal.append("put", "a" * 64, 100)
        journal.append("delete", "b" * 64)
        ops = list(journal.entries())
        assert [e["op"] for e in ops] == ["put", "delete"]
        assert ops[0]["nbytes"] == 100

    def test_rotation_at_size_cap(self, tmp_path):
        journal = ShardJournal(tmp_path / "j", max_segment_bytes=200)
        for i in range(20):
            journal.append("put", f"{i:064x}", i)
        assert len(journal.segments()) > 1
        assert [e["key"] for e in journal.entries()] == [
            f"{i:064x}" for i in range(20)
        ]

    def test_rotation_cas_loser_appends_to_winner(self, tmp_path):
        a = ShardJournal(tmp_path / "j", max_segment_bytes=1)
        b = ShardJournal(tmp_path / "j", max_segment_bytes=1)
        a.append("put", "a" * 64, 1)
        b.append("put", "b" * 64, 2)
        # Every record is recorded exactly once across both views.
        assert sorted(e["key"] for e in a.entries()) == ["a" * 64, "b" * 64]

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = ShardJournal(tmp_path / "j")
        journal.append("put", "a" * 64, 1)
        journal.append("put", "b" * 64, 2)
        seg = journal.segments()[-1]
        text = seg.read_text()
        seg.write_text(text[: text.rindex('{"key"') + 9])  # tear the last line
        assert [e["key"] for e in journal.entries()] == ["a" * 64]

    def test_malformed_interior_line_raises(self, tmp_path):
        journal = ShardJournal(tmp_path / "j")
        journal.append("put", "a" * 64, 1)
        seg = journal.segments()[-1]
        with seg.open("a") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"op": "put", "key": "b" * 64, "nbytes": 2}) + "\n")
        with pytest.raises(StoreCorruptionError, match="malformed shard journal"):
            list(journal.entries())

    def test_empty_segment_from_crashed_rotation_tolerated(self, tmp_path):
        journal = ShardJournal(tmp_path / "j", max_segment_bytes=1)
        journal.append("put", "a" * 64, 1)
        # Simulate a crash between segment create and header write.
        torn = journal.directory / "seg-00000099.jsonl"
        torn.touch()
        assert [e["key"] for e in journal.entries()] == ["a" * 64]
        # The next append lands in a fresh segment after the torn one.
        journal.append("put", "b" * 64, 2)
        assert sorted(e["key"] for e in journal.entries()) == ["a" * 64, "b" * 64]


class TestFileLock:
    def test_exclusive_within_reentry(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with lock:
            assert lock.held
            with pytest.raises(StoreError, match="already held"):
                lock.acquire()
        assert not lock.held

    def test_release_without_acquire_is_noop(self, tmp_path):
        FileLock(tmp_path / ".lock").release()

    def test_threads_wait_for_the_holder(self, tmp_path):
        """A second thread blocks until the holder releases, rather than
        failing with 'already held'."""
        lock = FileLock(tmp_path / ".lock")
        order = []
        with lock:
            waiter = threading.Thread(target=lambda: _hold(lock, order))
            waiter.start()
            waiter.join(timeout=0.2)
            assert waiter.is_alive()  # blocked on the lock
            order.append("holder")
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert order == ["holder", "waiter"]
        assert not lock.held

    def test_threads_put_to_one_shard(self, tmp_path, results):
        """More writer threads than cores on one shard, with a short
        switch interval: no put fails and none is lost from the index or
        the shard journal."""
        store = ShardedBackend(tmp_path / "s")
        keys = [f"a{i:063x}" for i in range(48)]  # all in shard "a"
        n_threads = 4
        errors = []

        def put(part):
            try:
                for key in part:
                    store.put(key, [results[0]])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=put, args=(keys[i::n_threads],))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(store.get(key) is not None for key in keys)
        journaled = [e["key"] for e in store.shard_journal(keys[0]).entries()]
        assert sorted(journaled) == keys


def _hold(lock, order):
    with lock:
        order.append("waiter")


class TestCli:
    def test_stats_shows_shards(self, tmp_path, results, keys, capsys):
        store = ShardedBackend(tmp_path / "s")
        store.put(keys[0], [results[0]])
        assert store_cli(["stats", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert f"shard {keys[0][0]}: 1 entries" in out

    def test_stats_degrades_on_legacy_store(self, tmp_path, results, keys, capsys):
        classic = DiskStore(tmp_path / "c")
        classic.put(keys[0], [results[0]])
        classic.flush_index()
        assert store_cli(["stats", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "shard " not in out

    def test_stats_json_includes_shards(self, tmp_path, results, keys, capsys):
        store = ShardedBackend(tmp_path / "s")
        store.put(keys[0], [results[0]])
        assert store_cli(["stats", str(tmp_path / "s"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shards"][keys[0][0]]["entries"] == 1

    def test_migrate_subcommand(self, tmp_path, results, keys, capsys):
        classic = DiskStore(tmp_path / "c")
        for key, res in zip(keys, results):
            classic.put(key, [res])
        classic.flush_index()
        code = store_cli(["migrate", str(tmp_path / "c"), str(tmp_path / "s")])
        assert code == 0
        assert f"migrated {len(keys)} entries" in capsys.readouterr().out
        assert isinstance(open_store(tmp_path / "s"), ShardedBackend)

    def test_migrate_refuses_bad_source(self, tmp_path, capsys):
        ShardedBackend(tmp_path / "s")
        code = store_cli(["migrate", str(tmp_path / "s"), str(tmp_path / "t")])
        assert code == 2
        assert "already sharded" in capsys.readouterr().err

    def test_verify_and_gc_work_on_sharded(self, tmp_path, results, keys, capsys):
        store = ShardedBackend(tmp_path / "s")
        for key, res in zip(keys, results):
            store.put(key, [res])
        store.flush_index()
        assert store_cli(["verify", str(tmp_path / "s")]) == 0
        # Leave a stale tmp file; gc must sweep shard objects dirs too.
        tmp_file = store.path_for(keys[0]).with_suffix(".json.tmp")
        tmp_file.parent.mkdir(parents=True, exist_ok=True)
        tmp_file.write_text("junk")
        assert store_cli(["gc", str(tmp_path / "s"), "--max-bytes", "0"]) == 0
        assert not tmp_file.exists()
        assert list(store.keys()) == []
