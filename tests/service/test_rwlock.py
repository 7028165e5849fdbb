"""Reader-writer lock semantics and broker read concurrency."""

from __future__ import annotations

import threading
import time

from repro.core.families import Family
from repro.cqa.engine import CqaEngine
from repro.datagen.generators import GRID_FDS, grid_instance
from repro.service.broker import RequestBroker
from repro.service.rwlock import ReadWriteLock


class TestReadWriteLock:
    def test_two_readers_overlap(self):
        lock = ReadWriteLock()
        barrier = threading.Barrier(2, timeout=5)
        overlapped = []

        def reader():
            with lock.read():
                overlapped.append(barrier.wait())

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        # Both readers reached the barrier while holding the read lock.
        assert len(overlapped) == 2
        assert lock.concurrent_reads >= 1

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []

        def writer():
            with lock.write():
                order.append("write-start")
                time.sleep(0.05)
                order.append("write-end")

        with lock.read():
            thread = threading.Thread(target=writer)
            thread.start()
            time.sleep(0.02)
            order.append("read-held")
        thread.join(timeout=5)
        assert order.index("read-held") < order.index("write-start")
        assert order == ["read-held", "write-start", "write-end"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        release_first_reader = threading.Event()
        second_reader_done = threading.Event()
        sequence = []

        def first_reader():
            with lock.read():
                sequence.append("r1")
                release_first_reader.wait(timeout=5)

        def writer():
            with lock.write():
                sequence.append("w")

        def second_reader():
            with lock.read():
                sequence.append("r2")
            second_reader_done.set()

        reader1 = threading.Thread(target=first_reader)
        reader1.start()
        while "r1" not in sequence:
            time.sleep(0.001)
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.02)  # writer is now waiting on the active reader
        reader2 = threading.Thread(target=second_reader)
        reader2.start()
        time.sleep(0.02)
        # Writer preference: the late reader queues behind the writer.
        assert "r2" not in sequence
        release_first_reader.set()
        writer_thread.join(timeout=5)
        reader1.join(timeout=5)
        assert second_reader_done.wait(timeout=5)
        reader2.join(timeout=5)
        assert sequence == ["r1", "w", "r2"]


class TestBrokerReadConcurrency:
    def _broker(self):
        broker = RequestBroker()
        broker.register("grid", grid_instance(3, 2), GRID_FDS)
        return broker

    def test_two_threads_stress_reads(self):
        """Two threads hammer read-only queries; answers stay correct
        and no deadlock or cache corruption occurs."""
        broker = self._broker()
        queries = ["EXISTS y . R(x, y)", "EXISTS x . R(x, y)"]
        reference = {
            query: CqaEngine(grid_instance(3, 2), GRID_FDS).certain_answers(
                query
            )
            for query in queries
        }
        errors = []

        def worker(query):
            try:
                for _ in range(25):
                    result = broker.query(query)
                    assert result.outcome.certain == reference[query].certain
                    assert result.outcome.possible == reference[query].possible
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(query,)) for query in queries
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert broker.stats()["databases"]["grid"]["queries"] >= 2
        broker.close()

    def test_concurrent_reads_counter_reports_overlap(self):
        """Rendezvous two readers inside the read section so the
        overlap is deterministic, then check the stats counter."""
        broker = self._broker()
        barrier = threading.Barrier(2, timeout=10)
        original = RequestBroker._execute

        def rendezvous(self, *args):
            barrier.wait()
            return original(self, *args)

        RequestBroker._execute = rendezvous
        try:
            threads = [
                threading.Thread(
                    target=broker.query, args=("EXISTS y . R(x, y)",)
                ),
                threading.Thread(
                    target=broker.query, args=("EXISTS x . R(x, y)",)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            RequestBroker._execute = original
        stats = broker.stats()
        assert stats["concurrent_reads"] >= 1
        assert stats["databases"]["grid"]["concurrent_reads"] >= 1
        broker.close()

    def test_updates_still_exclusive_and_invalidate(self):
        broker = self._broker()
        first = broker.query("EXISTS y . R(x, y)")
        assert first.cached is False
        instance = grid_instance(3, 2)
        row = sorted(instance.rows)[0]
        broker.delete(row)
        after = broker.query("EXISTS y . R(x, y)")
        assert after.cached is False  # the update evicted the entry
        from repro.datagen.generators import GRID_SCHEMA
        from repro.relational.instance import RelationInstance

        remaining = RelationInstance.from_values(
            GRID_SCHEMA,
            [other.values for other in instance.rows if other != row],
        )
        reference = CqaEngine(remaining, GRID_FDS).certain_answers(
            "EXISTS y . R(x, y)"
        )
        assert after.outcome.certain == reference.certain
        assert after.outcome.possible == reference.possible
        broker.close()
