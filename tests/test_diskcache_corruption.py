"""Corruption and crash-recovery properties of the disk cache + engine.

The contract under test: *no defective byte sequence on disk can fail a
check* — every corruption is a quarantined miss followed by a clean
rewrite — *no writer sharing the directory can tear an entry* (a
``chop check`` and a server may share one ``--disk-cache``) — and *no
single worker death can change a result* — the killed shard's serial
retry merges back byte-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.workers as workers_module
from repro.cache import DiskPredictionCache
from repro.engine import EvaluationEngine
from repro.experiments import experiment1_session, experiment2_session
from repro.resilience import FAULTS_ENV

KEY = "a" * 64


@pytest.fixture()
def session():
    return experiment1_session(partition_count=2)


def result_doc(result):
    doc = result.to_dict()
    doc.pop("cpu_seconds", None)
    return doc


class TestCorruptEntries:
    def _stored(self, tmp_path, session):
        cache = DiskPredictionCache(tmp_path)
        key = cache.key_for("fp", session.library, session.clocks)
        cache.store(key, session.export_predictions())
        return cache, key

    def test_truncated_file_is_miss_quarantined_rewritten(
        self, tmp_path, session
    ):
        cache, key = self._stored(tmp_path, session)
        path = cache.path_for(key)
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])

        assert cache.load(key) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.stats()["quarantined"] == 1

        cache.store(key, session.export_predictions())
        assert cache.load(key) is not None

    def test_garbage_bytes_are_a_miss(self, tmp_path, session):
        cache, key = self._stored(tmp_path, session)
        cache.path_for(key).write_bytes(b"\x80\x04garbage" * 7)
        assert cache.load(key) is None
        assert cache.stats()["quarantined"] == 1

    def test_wrong_payload_shape_is_a_miss(self, tmp_path, session):
        cache, key = self._stored(tmp_path, session)
        with cache.path_for(key).open("wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        assert cache.load(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path, session):
        cache, key = self._stored(tmp_path, session)
        payload = {
            "version": cache.version,
            "key": "someone-elses-key",
            "predictions": session.export_predictions(),
        }
        with cache.path_for(key).open("wb") as handle:
            pickle.dump(payload, handle)
        assert cache.load(key) is None

    def test_repeat_corruption_keeps_one_quarantine_file(
        self, tmp_path, session
    ):
        cache, key = self._stored(tmp_path, session)
        for round_no in range(3):
            cache.path_for(key).write_bytes(b"\x00bad%d" % round_no)
            assert cache.load(key) is None
        corrupts = [
            name for name in os.listdir(tmp_path)
            if name.endswith(".corrupt")
        ]
        # os.replace overwrites the single per-key quarantine file, so
        # repeated corruption cannot fill the disk with tombstones.
        assert len(corrupts) == 1
        assert cache.stats()["quarantined"] == 3

    @given(junk=st.binary(min_size=0, max_size=256))
    @settings(max_examples=25, deadline=None)
    def test_any_junk_bytes_degrade_to_a_miss(self, junk):
        import tempfile

        session = experiment1_session(partition_count=2)
        with tempfile.TemporaryDirectory() as tmp:
            cache = DiskPredictionCache(tmp)
            key = cache.key_for("fp", session.library, session.clocks)
            cache.path_for(key).write_bytes(junk)
            # Whatever the bytes, load never raises and never returns
            # junk: either a structurally valid payload was forged
            # (impossible for arbitrary junk this small) or it's a miss.
            assert cache.load(key) is None
            cache.store(key, session.export_predictions())
            assert cache.load(key) is not None

    def test_entry_with_extra_fields_loads(self, tmp_path, session):
        # Entries that carry more than version, key and predictions
        # (a writer id and a content digest, say) are still hits.
        cache = DiskPredictionCache(tmp_path)
        predictions = session.export_predictions()
        payload = {
            "version": cache.version,
            "key": KEY,
            "predictions": dict(sorted(predictions.items())),
            "writer": "host:1",
            "digest": "0" * 64,
        }
        with cache.path_for(KEY).open("wb") as handle:
            pickle.dump(payload, handle)
        assert cache.load(KEY) == payload["predictions"]
        assert cache.stats()["quarantined"] == 0


# ----------------------------------------------------------------------
# many writers on one directory
# ----------------------------------------------------------------------
def _trimmed(predictions, size):
    """Every partition's prediction list cut to its first ``size``."""
    return {
        name: list(preds)[: max(1, size)]
        for name, preds in sorted(predictions.items())
    }


def _hammer(directory, key, payload_sizes, results):
    """One writer process: interleave stores and loads on ``key``."""
    from repro.cache import DiskPredictionCache
    from repro.experiments import experiment1_session

    predictions = experiment1_session(
        partition_count=2
    ).export_predictions()
    cache = DiskPredictionCache(directory)
    outcome = {"bad_loads": 0, "loads": 0, "stores": 0}
    try:
        for size in payload_sizes:
            cache.store(key, _trimmed(predictions, size))
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
    def test_concurrent_writers_never_tear(self, tmp_path, session):
        """N processes × M interleaved store/load on one key.

        No load may observe a torn or mixed entry (the atomic-rename +
        validation contract), nothing may quarantine (no writer ever
        produces a corrupt entry), and the final entry must be one of
        the documents the writers stored, equal to a serial write of
        it read back.
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

        # The survivor is whichever size won the last race.
        final = DiskPredictionCache(tmp_path).load(KEY)
        predictions = session.export_predictions()
        assert final in [_trimmed(predictions, size) for size in (1, 2)]
        serial = DiskPredictionCache(tmp_path / "serial")
        serial.store(KEY, final)
        assert serial.load(KEY) == final

    def test_lost_quarantine_impossible(self, tmp_path):
        """Two caches tripping over one corrupt entry quarantine once.

        ``os.replace`` to the quarantine name is atomic: exactly one
        reader wins the rename, the other sees a clean miss — the
        corrupt bytes always survive in the ``.corrupt`` file.
        """
        a = DiskPredictionCache(tmp_path)
        b = DiskPredictionCache(tmp_path)
        path = a.path_for(KEY)
        path.write_bytes(b"\x80garbage")
        assert a.load(KEY) is None
        assert b.load(KEY) is None
        quarantine = path.with_name(path.name + ".corrupt")
        assert quarantine.read_bytes() == b"\x80garbage"
        # One quarantine actually happened; the second reader missed
        # on FileNotFoundError without double-counting.
        assert a.stats()["quarantined"] + b.stats()["quarantined"] == 1


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

    Drives three cache instances over one directory (a CLI check and
    servers sharing a ``--disk-cache``) through an arbitrary op
    sequence; every load must be either a miss or a well-formed
    document equal to the latest surviving store, and corruption must
    always land in quarantine.
    """
    tmp_path = tmp_path_factory.mktemp("shared-ops")
    predictions = experiment1_session(
        partition_count=2
    ).export_predictions()
    doc1 = _trimmed(predictions, 1)
    doc2 = _trimmed(predictions, 2)
    writers = [DiskPredictionCache(tmp_path) for _ in range(3)]
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


class TestKilledShardProperty:
    @pytest.fixture(scope="class")
    def serial_baseline(self):
        session = experiment2_session(partition_count=3)
        return result_doc(session.check(heuristic="enumeration"))

    @given(shard_index=st.integers(min_value=0, max_value=7))
    @settings(max_examples=5, deadline=None)
    def test_any_killed_shard_merges_byte_identical(
        self, serial_baseline, shard_index
    ):
        """Property: whichever shard dies, the merged result is the
        serial result — recovery is invisible in the output."""
        session = experiment2_session(partition_count=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workers_module, "MIN_COMBINATIONS", 1)
            patch.setenv(FAULTS_ENV, f"shard={shard_index}")
            engine = EvaluationEngine(workers=2)
            survived = session.check(
                heuristic="enumeration", engine=engine
            )
        assert result_doc(survived) == serial_baseline
        assert engine.stats()["shards_retried"] >= 1
