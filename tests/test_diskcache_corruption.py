"""Corruption and crash-recovery properties of the disk cache + engine.

The contract under test: *no defective byte sequence on disk can fail a
check* — every corruption is a quarantined miss followed by a clean
rewrite — and *no single worker death can change a result* — the killed
shard's serial retry merges back byte-identical.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.workers as workers_module
from repro.cache import DiskPredictionCache
from repro.engine import EvaluationEngine
from repro.experiments import experiment1_session, experiment2_session
from repro.resilience import FAULTS_ENV


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
