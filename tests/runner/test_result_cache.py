"""Tests for the entry codecs, run through the one result store."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner.cache import (
    SCHEMA_VERSION,
    decode_hitmask,
    decode_trace,
    encode_hitmask,
    encode_trace,
    ensure_cache,
)
from repro.runner.fingerprint import array_digest, trace_fingerprint
from repro.store import SQLiteStore
from repro.ycsb.client import RunResult


@pytest.fixture
def cache(tmp_path):
    """A fresh store in a temp file."""
    store = SQLiteStore(tmp_path / "cache")
    yield store
    store.close()


def stored(cache, kind, fingerprint) -> bytes:
    """The encoded bytes one entry holds."""
    return bytes(cache._row(kind, fingerprint)["body"])


def overwrite(cache, kind, fingerprint, body) -> None:
    """Replace one entry's bytes below the codec (rot, or an older build)."""
    if isinstance(body, str):
        body = body.encode()
    cache.db.write_txn(lambda conn: conn.execute(
        "UPDATE entries SET body = ? WHERE kind = ? AND fingerprint = ?",
        (body, kind, fingerprint),
    ))


@pytest.fixture
def result():
    """A representative RunResult with float percentile keys."""
    return RunResult(
        workload="w", engine="redis", n_requests=100, n_reads=60,
        n_writes=40, runtime_ns=1.5e8, avg_read_ns=1200.5,
        avg_write_ns=1500.25,
        latency_percentiles_ns={50.0: 900.0, 99.0: 4000.125},
        repeats=3, runtime_std_ns=12.5, concurrency=2,
    )


class TestResults:
    def test_roundtrip_is_exact(self, cache, result):
        cache.put_result("fp1", result)
        assert cache.get_result("fp1") == result

    def test_percentile_keys_restored_as_floats(self, cache, result):
        cache.put_result("fp1", result)
        got = cache.get_result("fp1")
        assert set(got.latency_percentiles_ns) == {50.0, 99.0}

    def test_missing_returns_none(self, cache):
        assert cache.get_result("nope") is None

    def test_schema_mismatch_invalidates(self, cache, result):
        cache.put_result("fp1", result)
        payload = json.loads(stored(cache, "results", "fp1"))
        payload["schema"] = SCHEMA_VERSION + 1
        overwrite(cache, "results", "fp1", json.dumps(payload))
        assert cache.get_result("fp1") is None
        assert cache.stats().total_quarantined == 0  # stale, not corrupt

    def test_corrupt_json_returns_none(self, cache, result):
        cache.put_result("fp1", result)
        overwrite(cache, "results", "fp1", "{not json")
        assert cache.get_result("fp1") is None


def assert_traces_equal(got, want):
    assert got.name == want.name
    for field in ("keys", "is_read", "record_sizes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestNpzCodec:
    """The deflate-1 writer changes bytes on disk, never what is read."""

    def test_savez_compressed_trace_blob_still_decodes(
        self, cache, small_trace, savez_compressed_blob,
    ):
        old = savez_compressed_blob(
            name=small_trace.name, keys=small_trace.keys,
            is_read=small_trace.is_read,
            record_sizes=small_trace.record_sizes,
            checksum=trace_fingerprint(small_trace),
        )
        assert old != encode_trace(small_trace)
        got, reason = decode_trace(old)
        assert reason is None
        assert_traces_equal(got, small_trace)
        # ... and as an entry an older build left in the store
        cache.put_trace("t1", small_trace)
        overwrite(cache, "traces", "t1", old)
        assert_traces_equal(cache.get_trace("t1"), small_trace)

    def test_savez_compressed_hitmask_blob_still_decodes(
        self, savez_compressed_blob,
    ):
        mask = np.random.default_rng(3).random(5_000) < 0.3
        old = savez_compressed_blob(mask=mask, checksum=array_digest(mask))
        got, reason = decode_hitmask(old)
        assert reason is None
        assert got.dtype == np.bool_ and np.array_equal(got, mask)

    def test_new_blobs_decode_to_what_the_old_ones_did(self, small_trace):
        got, reason = decode_trace(encode_trace(small_trace))
        assert reason is None
        assert_traces_equal(got, small_trace)
        assert trace_fingerprint(got) == trace_fingerprint(small_trace)
        mask = np.random.default_rng(3).random(5_000) < 0.3
        got, reason = decode_hitmask(encode_hitmask(mask))
        assert reason is None
        assert got.dtype == np.bool_ and np.array_equal(got, mask)

    @pytest.mark.parametrize("kind", ["trace", "hitmask"])
    def test_any_flipped_byte_is_corruption_or_harmless(
        self, kind, small_trace,
    ):
        # never an exception, never a different value: a flip either
        # fails the parse / CRC / checksum or sits in zip metadata
        # nothing reads
        if kind == "trace":
            value, encode, decode = small_trace, encode_trace, decode_trace
            digest = trace_fingerprint
        else:
            value = np.random.default_rng(3).random(5_000) < 0.3
            encode, decode = encode_hitmask, decode_hitmask
            digest = array_digest
        blob = encode(value)
        reasons = set()
        for pos in range(0, len(blob), 7):
            bad = blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]
            got, reason = decode(bad)
            assert (got is None) != (reason is None)
            assert got is None or digest(got) == digest(value)
            reasons.add(reason)
        assert "truncated or unparseable NPZ" in reasons

    def test_flipped_byte_in_cache_entry_is_quarantined(
        self, cache, small_trace,
    ):
        cache.put_trace("t1", small_trace)
        blob = stored(cache, "traces", "t1")
        mid = len(blob) // 2
        overwrite(
            cache, "traces", "t1",
            blob[:mid] + bytes([blob[mid] ^ 0xFF]) + blob[mid + 1:],
        )
        assert cache.get_trace("t1") is None
        assert cache.stats().quarantined["traces"] == 1
        assert cache.stats().entries["traces"] == 0


class TestTraces:
    def test_roundtrip(self, cache, small_trace):
        cache.put_trace("t1", small_trace)
        got = cache.get_trace("t1")
        assert got.name == small_trace.name
        assert np.array_equal(got.keys, small_trace.keys)
        assert np.array_equal(got.is_read, small_trace.is_read)
        assert np.array_equal(got.record_sizes, small_trace.record_sizes)

    def test_missing_returns_none(self, cache):
        assert cache.get_trace("nope") is None


class TestHitmasks:
    def test_roundtrip(self, cache):
        mask = np.array([True, False, True])
        cache.put_hitmask("h1", mask)
        assert np.array_equal(cache.get_hitmask("h1"), mask)

    def test_missing_returns_none(self, cache):
        assert cache.get_hitmask("nope") is None


class TestVerdicts:
    PAYLOAD = {"status": "pass", "n_fast_keys": 42, "points": [1, 2, 3]}

    def test_roundtrip(self, cache):
        cache.put_verdict("v1", self.PAYLOAD)
        assert cache.get_verdict("v1") == self.PAYLOAD

    def test_missing_returns_none(self, cache):
        assert cache.get_verdict("nope") is None

    def test_corrupt_json_quarantined(self, cache):
        cache.put_verdict("v1", self.PAYLOAD)
        overwrite(cache, "verdicts", "v1", "{not json")
        assert cache.get_verdict("v1") is None
        # quarantined, not left to rot
        assert cache.stats().entries["verdicts"] == 0
        assert cache.stats().quarantined["verdicts"] == 1

    def test_checksum_mismatch_rejected(self, cache):
        cache.put_verdict("v1", self.PAYLOAD)
        payload = json.loads(stored(cache, "verdicts", "v1"))
        payload["verdict"]["status"] = "reject"
        overwrite(cache, "verdicts", "v1", json.dumps(payload))
        assert cache.get_verdict("v1") is None

    def test_counted_by_stats_and_verify(self, cache):
        cache.put_verdict("v1", self.PAYLOAD)
        assert cache.stats().entries["verdicts"] == 1
        report = cache.verify()
        assert report.ok
        assert report.checked["verdicts"] == 1


class TestMaintenance:
    def test_stats_counts_kinds(self, cache, result, small_trace):
        cache.put_result("a", result)
        cache.put_result("b", result)
        cache.put_trace("t", small_trace)
        stats = cache.stats()
        assert stats.entries["results"] == 2
        assert stats.entries["traces"] == 1
        assert stats.entries["hitmasks"] == 0
        assert stats.total_entries == 3
        assert stats.total_bytes > 0
        assert len(stats.lines()) == 5

    def test_empty_cache_stats(self, cache):
        assert cache.stats().total_entries == 0

    def test_clear_removes_everything(self, cache, result):
        cache.put_result("a", result)
        assert cache.clear() == 1
        assert cache.get_result("a") is None
        assert cache.stats().total_entries == 0

    def test_clear_empty_is_safe(self, cache):
        assert cache.clear() == 0


class TestEnsureCache:
    def test_passthrough_and_coercion(self, cache, tmp_path):
        assert ensure_cache(None) is None
        assert ensure_cache(cache) is cache
        # any path is the SQLite file, whatever its suffix
        for name in ("other", "other.db"):
            built = ensure_cache(tmp_path / name)
            assert type(built) is SQLiteStore
            assert built.root == tmp_path / name and built.root.is_file()
            built.close()

    def test_uncreatable_directory_is_a_configuration_error(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("a file, neither a directory nor a database")
        for bad in (plain, plain / "sub"):
            with pytest.raises(ConfigurationError, match=str(bad)):
                ensure_cache(bad)

    def test_existing_directory_is_a_configuration_error(self, tmp_path):
        # what a left-over v2 file tree looks like to the one store
        tree = tmp_path / ".mnemo-cache"
        (tree / "v2" / "results").mkdir(parents=True)
        with pytest.raises(ConfigurationError, match="v2 file-tree") as exc:
            ensure_cache(tree)
        assert str(tree) in str(exc.value)
        assert sorted(p.name for p in tree.rglob("*")) == ["results", "v2"]
