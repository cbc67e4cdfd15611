"""The pluggable prediction-cache backends (``repro.cache``).

Covers the factory/auto resolution, the shared multi-writer backend's
collision and attribution semantics, and — the distributed-tier
correctness core — a multi-process stress test: N processes hammering
the same fingerprint namespace must produce no torn reads, no lost
quarantines, and loads byte-identical to a serial write.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheBackend,
    DiskPredictionCache,
    SharedPredictionCache,
    create_backend,
    resolve_backend_kind,
)
from repro.experiments import experiment1_session


KEY = "a" * 64


@pytest.fixture()
def predictions():
    return experiment1_session(partition_count=2).export_predictions()


# ----------------------------------------------------------------------
# factory and protocol
# ----------------------------------------------------------------------
class TestFactory:
    def test_kinds_resolve(self):
        assert resolve_backend_kind("disk") == "disk"
        assert resolve_backend_kind("shared") == "shared"
        assert resolve_backend_kind("auto", writers=1) == "disk"
        assert resolve_backend_kind("auto", writers=4) == "shared"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            create_backend("redis", tmp_path)

    def test_create_backend_builds_the_right_class(self, tmp_path):
        assert isinstance(
            create_backend("disk", tmp_path), DiskPredictionCache
        )
        assert isinstance(
            create_backend("shared", tmp_path), SharedPredictionCache
        )
        auto = create_backend("auto", tmp_path, writers=3)
        assert isinstance(auto, SharedPredictionCache)

    def test_both_backends_satisfy_the_protocol(self, tmp_path):
        for kind in ("disk", "shared"):
            assert isinstance(
                create_backend(kind, tmp_path), CacheBackend
            )


# ----------------------------------------------------------------------
# shared backend semantics
# ----------------------------------------------------------------------
class TestSharedBackend:
    def test_round_trip_and_stats_shape(self, tmp_path, predictions):
        cache = SharedPredictionCache(tmp_path, writer_id="me:1")
        cache.store(KEY, predictions)
        loaded = cache.load(KEY)
        assert loaded == {
            k: list(v) for k, v in sorted(predictions.items())
        }
        stats = cache.stats()
        assert stats["backend"] == "shared"
        assert stats["writer_id"] == "me:1"
        assert stats["hits_local"] == 1
        assert stats["hits_remote"] == 0

    def test_remote_hit_attribution(self, tmp_path, predictions):
        writer = SharedPredictionCache(tmp_path, writer_id="host:1")
        reader = SharedPredictionCache(tmp_path, writer_id="host:2")
        writer.store(KEY, predictions)
        assert reader.load(KEY) is not None
        assert reader.stats()["hits_remote"] == 1
        assert reader.stats()["hits_local"] == 0

    def test_identical_collision_discarded(self, tmp_path, predictions):
        first = SharedPredictionCache(tmp_path, writer_id="host:1")
        second = SharedPredictionCache(tmp_path, writer_id="host:2")
        first.store(KEY, predictions)
        second.store(KEY, predictions)
        assert second.stats()["collisions_discarded"] == 1
        assert second.stats()["collisions_replaced"] == 0
        # The surviving entry is still the first writer's.
        assert second.load(KEY) is not None
        assert second.stats()["hits_remote"] == 1

    def test_differing_collision_replaced(self, tmp_path, predictions):
        first = SharedPredictionCache(tmp_path, writer_id="host:1")
        second = SharedPredictionCache(tmp_path, writer_id="host:2")
        first.store(KEY, predictions)
        smaller = {name: preds[:1] for name, preds in predictions.items()}
        second.store(KEY, smaller)
        assert second.stats()["collisions_replaced"] == 1
        loaded = second.load(KEY)
        assert loaded is not None
        assert all(len(preds) == 1 for preds in loaded.values())

    def test_disk_backend_entry_upgrades_cleanly(
        self, tmp_path, predictions
    ):
        # A directory previously owned by the single-writer backend:
        # digestless, writerless entries must read as remote hits and
        # an identical shared write must still be discarded.
        DiskPredictionCache(tmp_path).store(KEY, predictions)
        shared = SharedPredictionCache(tmp_path, writer_id="host:9")
        assert shared.load(KEY) is not None
        assert shared.stats()["hits_remote"] == 1
        shared.store(KEY, predictions)
        assert shared.stats()["collisions_discarded"] == 1

    def test_quarantine_preserved_under_shared(self, tmp_path):
        cache = SharedPredictionCache(tmp_path)
        path = cache.path_for(KEY)
        path.write_bytes(b"not a pickle")
        assert cache.load(KEY) is None
        assert cache.stats()["quarantined"] == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert not path.exists()

    def test_keys_match_disk_backend(self, tmp_path):
        session = experiment1_session(partition_count=2)
        disk = DiskPredictionCache(tmp_path / "a")
        shared = SharedPredictionCache(tmp_path / "b")
        assert disk.key_for(
            "fp", session.library, session.clocks
        ) == shared.key_for("fp", session.library, session.clocks)


# ----------------------------------------------------------------------
# multi-process stress: concurrent writers on one namespace
# ----------------------------------------------------------------------
def _hammer(directory, key, payload_sizes, results):
    """One writer process: interleave stores and loads on ``key``."""
    from repro.cache import SharedPredictionCache
    from repro.experiments import experiment1_session

    predictions = experiment1_session(
        partition_count=2
    ).export_predictions()
    cache = SharedPredictionCache(directory)
    outcome = {"bad_loads": 0, "loads": 0, "stores": 0}
    try:
        for size in payload_sizes:
            trimmed = {
                name: preds[: max(1, size)]
                for name, preds in predictions.items()
            }
            cache.store(key, trimmed)
            outcome["stores"] += 1
            loaded = cache.load(key)
            outcome["loads"] += 1
            if loaded is not None:
                # Any successfully loaded entry must be one of the
                # well-formed documents some writer produced — i.e.
                # every partition trimmed to the same length.
                lengths = {len(preds) for preds in loaded.values()}
                if len(lengths) != 1:
                    outcome["bad_loads"] += 1
        outcome["quarantined"] = cache.stats()["quarantined"]
    except Exception as exc:  # pragma: no cover - failure diagnostics
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    results.put(outcome)


class TestMultiProcessStress:
    def test_concurrent_writers_never_tear(self, tmp_path):
        """N processes × M interleaved store/load on one key.

        No load may observe a torn or mixed entry (the atomic-rename +
        validation contract), nothing may quarantine (no writer ever
        produces a corrupt entry), and the final entry must be
        byte-identical to a serial write of the same document.
        """
        ctx = multiprocessing.get_context("spawn")
        results = ctx.Queue()
        sizes = [1, 2, 1, 2, 1]
        procs = [
            ctx.Process(
                target=_hammer,
                args=(str(tmp_path), KEY, sizes, results),
            )
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        for outcome in outcomes:
            assert "error" not in outcome, outcome
            assert outcome["bad_loads"] == 0, outcome
            assert outcome["quarantined"] == 0, outcome
            assert outcome["loads"] == len(sizes)

        # Byte-identity vs a serial write: the survivor is whichever
        # size won the last race; rewrite it serially and compare the
        # backend's own content digests (sha256 of the pickled sorted
        # prediction lists — the same bytes the collision logic keys
        # on), plus structural equality of the loaded documents.
        survivor = SharedPredictionCache(tmp_path)
        final = survivor.load(KEY)
        assert final is not None
        serial_dir = tmp_path / "serial"
        serial = SharedPredictionCache(serial_dir)
        serial.store(KEY, final)
        replayed = serial.load(KEY)
        assert replayed == final
        assert SharedPredictionCache._digest(
            replayed
        ) == SharedPredictionCache._digest(final)

    def test_lost_quarantine_impossible(self, tmp_path):
        """Two caches tripping over one corrupt entry quarantine once.

        ``os.replace`` to the quarantine name is atomic: exactly one
        reader wins the rename, the other sees a clean miss — the
        corrupt bytes always survive in the ``.corrupt`` file.
        """
        a = SharedPredictionCache(tmp_path)
        b = SharedPredictionCache(tmp_path)
        path = a.path_for(KEY)
        path.write_bytes(b"\x80garbage")
        assert a.load(KEY) is None
        assert b.load(KEY) is None
        quarantine = path.with_name(path.name + ".corrupt")
        assert quarantine.read_bytes() == b"\x80garbage"
        # One quarantine actually happened; the second reader missed
        # on FileNotFoundError without double-counting.
        assert a.stats()["quarantined"] + b.stats()["quarantined"] == 1


# ----------------------------------------------------------------------
# property: any op interleaving keeps every load well-formed
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),  # writer index
            st.sampled_from(["store1", "store2", "load", "corrupt"]),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_shared_cache_op_sequences_stay_consistent(tmp_path_factory, ops):
    """Sequential interleavings of writers on one directory.

    Drives three writer instances (as the scheduler of a real fleet
    would) through an arbitrary op sequence; every load must be either
    a miss or a well-formed document equal to the latest surviving
    store, and corruption must always land in quarantine.
    """
    tmp_path = tmp_path_factory.mktemp("shared-ops")
    predictions = experiment1_session(
        partition_count=2
    ).export_predictions()
    doc1 = {k: list(v)[:1] for k, v in sorted(predictions.items())}
    doc2 = {k: list(v)[:2] for k, v in sorted(predictions.items())}
    writers = [
        SharedPredictionCache(tmp_path, writer_id=f"w:{i}")
        for i in range(3)
    ]
    last_stored = None
    for index, op in ops:
        cache = writers[index]
        if op == "store1":
            cache.store(KEY, doc1)
            last_stored = doc1
        elif op == "store2":
            cache.store(KEY, doc2)
            last_stored = doc2
        elif op == "corrupt":
            cache.path_for(KEY).write_bytes(b"junk")
            last_stored = None
        else:
            loaded = cache.load(KEY)
            if last_stored is None:
                assert loaded is None
            else:
                assert loaded == last_stored
    total_quarantined = sum(
        c.stats()["quarantined"] for c in writers
    )
    corrupted_then_read = 0
    pending = False
    for _, op in ops:
        if op == "corrupt":
            pending = True
        elif op == "load" and pending:
            corrupted_then_read += 1
            pending = False
        elif op in ("store1", "store2"):
            pending = False
    assert total_quarantined >= corrupted_then_read
