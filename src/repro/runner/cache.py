"""On-disk content-addressed experiment cache with integrity checking.

Layout (all under the cache root, default ``.mnemo-cache/``)::

    .mnemo-cache/
      v2/                     <- schema version; bumping it orphans old entries
        results/<fp>.json     <- RunResult payloads (checksummed JSON)
        traces/<fp>.npz       <- generated traces (keys / is_read / sizes)
        hitmasks/<fp>.npz     <- LLC hit masks keyed by (trace, LLC) digest
        verdicts/<fp>.json    <- guard ValidationVerdict payloads (JSON)
        quarantine/<kind>/    <- corrupt entries, moved aside for autopsy

Fingerprints come from :mod:`repro.runner.fingerprint`; an entry is valid
forever because its key covers everything that determines its content.
Invalidation therefore reduces to three rules: (1) bumping
``SCHEMA_VERSION`` orphans every old entry, (2) any change to an
experiment's inputs changes its fingerprint, so stale entries are simply
never looked up again, and (3) ``clear()`` drops everything explicitly.

Writes are atomic (temp file + ``os.replace``) so concurrent workers in
a parallel grid can share one cache directory without corruption.

Integrity: every entry carries a checksum of its own content — a JSON
canonical-form digest for results, the trace content fingerprint for
traces, an array digest for hit masks.  A read that fails to parse or
fails its checksum (a truncated write from a killed machine, bit rot, a
mangled rsync) is *quarantined* — moved to ``quarantine/<kind>/`` — and
reported as a miss, so the caller transparently recomputes it; strict
caches raise :class:`~repro.errors.CacheCorruptionError` instead.
``verify()`` walks every entry up front (the ``python -m repro cache
verify`` CLI), and ``stats()`` counts what quarantine holds.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.errors import CacheCorruptionError, ConfigurationError
from repro.runner.fingerprint import array_digest, trace_fingerprint
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

#: Cache schema version; bump when the on-disk format or the
#: fingerprint canonicalisation changes incompatibly.  v2 added
#: per-entry checksums.
SCHEMA_VERSION = 2

#: Default cache directory name (relative to the working directory).
DEFAULT_CACHE_DIR = ".mnemo-cache"

_KINDS = ("results", "traces", "hitmasks", "verdicts")


def _atomic_write(path: Path, data: bytes) -> None:
    import tempfile  # file-tree writes only; a SQLite store never gets here

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_checksum(body) -> str:
    """SHA-256 of a JSON value in canonical form.

    Callers must pass a value that already round-tripped through JSON
    (string keys only), so writer and reader canonicalise identically.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- entry codecs ----------------------------------------------------------
#
# The on-the-wire form of every entry kind, shared by the file-tree cache
# below and the SQLite store (:mod:`repro.store`): results and verdicts
# are checksummed JSON envelopes, traces and hit masks are checksummed
# NPZ byte strings.  Decoders return ``(value, corruption_reason)``; a
# stale-schema envelope decodes to ``(None, None)`` — a miss, not
# corruption — so schema bumps orphan entries in both backends alike.
# Because both backends persist the identical encoded bytes, migrating
# entries between them is bit-preserving by construction.


def encode_result(result: RunResult) -> dict:
    """Envelope a run result as schema-stamped, checksummed JSON."""
    # round-trip through JSON so the stored checksum is computed on
    # exactly the value a reader will re-canonicalise (string keys)
    body = json.loads(json.dumps(asdict(result)))
    return {
        "schema": SCHEMA_VERSION,
        "checksum": _json_checksum(body),
        "result": body,
    }


def decode_result(payload) -> "tuple[RunResult | None, str | None]":
    """Validate a result envelope: ``(result, corruption reason)``."""
    if not isinstance(payload, dict):
        return None, "payload is not an object"
    if payload.get("schema") != SCHEMA_VERSION:
        return None, None  # stale schema: a miss, not corruption
    body = payload.get("result")
    checksum = payload.get("checksum")
    if not isinstance(body, dict) or not isinstance(checksum, str):
        return None, "missing result/checksum fields"
    if _json_checksum(body) != checksum:
        return None, "checksum mismatch"
    body = dict(body)
    try:
        body["latency_percentiles_ns"] = {
            float(q): v for q, v in body["latency_percentiles_ns"].items()
        }
        return RunResult(**body), None
    except (KeyError, TypeError, ValueError):
        return None, "malformed result body"


def encode_verdict(payload: dict) -> dict:
    """Envelope a guard-verdict payload as checksummed JSON."""
    # round-trip through JSON so the stored checksum is computed on
    # exactly the value a reader will re-canonicalise
    body = json.loads(json.dumps(payload))
    return {
        "schema": SCHEMA_VERSION,
        "checksum": _json_checksum(body),
        "verdict": body,
    }


def decode_verdict(payload) -> "tuple[dict | None, str | None]":
    """Validate a verdict envelope: ``(payload, corruption reason)``."""
    if not isinstance(payload, dict):
        return None, "payload is not an object"
    if payload.get("schema") != SCHEMA_VERSION:
        return None, None  # stale schema: a miss, not corruption
    body = payload.get("verdict")
    checksum = payload.get("checksum")
    if not isinstance(body, dict) or not isinstance(checksum, str):
        return None, "missing verdict/checksum fields"
    if _json_checksum(body) != checksum:
        return None, "checksum mismatch"
    return body, None


def _npz_bytes(**arrays) -> bytes:
    """Pack arrays as the compressed NPZ byte string ``np.load`` reads.

    What ``np.savez_compressed`` writes, but at deflate level 1 instead
    of 6: a quarter of the encode time for ~7 % more bytes, which is
    what makes storing a trace cost no more than generating it.
    """
    import zipfile  # cold `profile` runs without a store never get here

    buf = io.BytesIO()
    with zipfile.ZipFile(
        buf, "w", zipfile.ZIP_DEFLATED, compresslevel=1,
    ) as archive:
        for name, array in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(
                    fh, np.asanyarray(array), allow_pickle=False,
                )
    return buf.getvalue()


def encode_trace(trace: Trace) -> bytes:
    """Serialise a trace as a checksummed compressed NPZ byte string."""
    return _npz_bytes(
        name=trace.name,
        keys=trace.keys,
        is_read=trace.is_read,
        record_sizes=trace.record_sizes,
        checksum=trace_fingerprint(trace),
    )


def decode_trace(data: bytes) -> "tuple[Trace | None, str | None]":
    """Validate a trace NPZ byte string: ``(trace, corruption reason)``."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            trace = Trace(
                name=str(npz["name"]),
                keys=npz["keys"],
                is_read=npz["is_read"],
                record_sizes=npz["record_sizes"],
            )
            checksum = str(npz["checksum"])
    except Exception:
        # a rotted blob surfaces as whatever the zip, zlib or .npy header
        # parser trips over (BadZipFile, zlib.error, NotImplementedError,
        # TokenError, ...); at this boundary every one of them is corruption
        return None, "truncated or unparseable NPZ"
    if trace_fingerprint(trace) != checksum:
        return None, "checksum mismatch"
    return trace, None


def encode_hitmask(mask: np.ndarray) -> bytes:
    """Serialise an LLC hit mask as a checksummed NPZ byte string."""
    mask = np.asarray(mask, dtype=bool)
    return _npz_bytes(mask=mask, checksum=array_digest(mask))


def decode_hitmask(data: bytes) -> "tuple[np.ndarray | None, str | None]":
    """Validate a hit-mask NPZ byte string: ``(mask, corruption reason)``."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            mask = npz["mask"]
            checksum = str(npz["checksum"])
    except Exception:  # as in decode_trace: any parse failure is corruption
        return None, "truncated or unparseable NPZ"
    if array_digest(mask) != checksum:
        return None, "checksum mismatch"
    return mask, None


class CacheStats:
    """Per-kind entry counts, byte totals and quarantine census."""

    def __init__(
        self,
        entries: dict[str, int],
        bytes_: dict[str, int],
        quarantined: dict[str, int] | None = None,
    ):
        self.entries = entries
        self.bytes = bytes_
        self.quarantined = quarantined or {kind: 0 for kind in _KINDS}

    @property
    def total_entries(self) -> int:
        """Entries across all kinds."""
        return sum(self.entries.values())

    @property
    def total_bytes(self) -> int:
        """Bytes across all kinds."""
        return sum(self.bytes.values())

    @property
    def total_quarantined(self) -> int:
        """Quarantined entries across all kinds."""
        return sum(self.quarantined.values())

    def lines(self) -> list[str]:
        """Human-readable summary rows (kind, entries, size)."""
        out = []
        for kind in _KINDS:
            out.append(
                f"{kind:<10} {self.entries[kind]:>6} entries "
                f"{self.bytes[kind] / 1e6:>10.2f} MB"
            )
        out.append(
            f"{'total':<10} {self.total_entries:>6} entries "
            f"{self.total_bytes / 1e6:>10.2f} MB"
        )
        if self.total_quarantined:
            out.append(
                f"{'quarantine':<10} {self.total_quarantined:>6} entries "
                f"(corrupt, will be recomputed on demand)"
            )
        return out


@dataclass(frozen=True)
class CacheVerifyReport:
    """Result of a full checksum walk over the cache."""

    checked: dict[str, int] = field(default_factory=dict)
    corrupt: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every checked entry passed its checksum."""
        return not any(self.corrupt.values())

    @property
    def total_checked(self) -> int:
        """Entries examined across all kinds."""
        return sum(self.checked.values())

    @property
    def total_corrupt(self) -> int:
        """Entries that failed integrity checks."""
        return sum(len(v) for v in self.corrupt.values())

    def lines(self) -> list[str]:
        """Human-readable verification summary."""
        out = []
        for kind in _KINDS:
            n_corrupt = len(self.corrupt.get(kind, ()))
            status = "ok" if n_corrupt == 0 else f"{n_corrupt} corrupt"
            out.append(
                f"{kind:<10} {self.checked.get(kind, 0):>6} checked  {status}"
            )
        out.append(
            f"{'total':<10} {self.total_checked:>6} checked  "
            + ("all entries intact" if self.ok
               else f"{self.total_corrupt} corrupt entries quarantined")
        )
        return out


class ResultCache:
    """Content-addressed store for run results, traces and hit masks.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).  Defaults to
        ``.mnemo-cache`` in the current working directory.
    strict:
        When True, reads of corrupt entries raise
        :class:`~repro.errors.CacheCorruptionError` (after
        quarantining) instead of silently recomputing.
    """

    def __init__(
        self, root: str | Path = DEFAULT_CACHE_DIR, strict: bool = False,
    ):
        self.root = Path(root)
        self.strict = strict
        self._base = self.root / f"v{SCHEMA_VERSION}"

    # -- paths ----------------------------------------------------------------

    def _path(self, kind: str, fingerprint: str, suffix: str) -> Path:
        return self._base / kind / f"{fingerprint}{suffix}"

    def _ensure(self, kind: str) -> None:
        (self._base / kind).mkdir(parents=True, exist_ok=True)

    # -- integrity ------------------------------------------------------------

    def _quarantine(self, kind: str, path: Path) -> None:
        telemetry.count("cache.quarantine", kind=kind)
        qdir = self._base / "quarantine" / kind
        qdir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except OSError:  # pragma: no cover - racing worker moved it first
            pass

    def _corrupt(self, kind: str, path: Path, reason: str) -> None:
        """Quarantine a corrupt entry; raise in strict mode.

        Returns None so getters can ``return self._corrupt(...)`` and
        the caller sees an ordinary miss, recomputing transparently.
        """
        telemetry.event(
            "cache.corrupt", kind=kind, entry=path.name, reason=reason,
        )
        self._quarantine(kind, path)
        if self.strict:
            raise CacheCorruptionError(f"{path}: {reason}")
        return None

    @staticmethod
    def _lookup(kind: str, hit: bool) -> None:
        """Count one cache probe's outcome (off-path telemetry)."""
        telemetry.count(
            "cache.lookup", kind=kind, outcome="hit" if hit else "miss",
        )

    # -- run results ----------------------------------------------------------

    def _load_result_file(self, path: Path):
        """Load + validate one result entry: (result, corruption reason)."""
        try:
            payload = json.loads(path.read_bytes())
        except OSError:
            return None, "unreadable"
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "unparseable JSON"
        return decode_result(payload)

    def get_result(self, fingerprint: str) -> RunResult | None:
        """Load a cached :class:`~repro.ycsb.client.RunResult` (or None).

        Corrupt entries are quarantined and reported as a miss (strict
        caches raise :class:`~repro.errors.CacheCorruptionError`).
        """
        path = self._path("results", fingerprint, ".json")
        if not path.exists():
            self._lookup("results", hit=False)
            return None
        result, reason = self._load_result_file(path)
        if reason is not None:
            self._lookup("results", hit=False)
            return self._corrupt("results", path, reason)
        self._lookup("results", hit=result is not None)
        return result

    def put_result(self, fingerprint: str, result: RunResult) -> Path:
        """Persist a run result; returns the written path."""
        self._ensure("results")
        telemetry.count("cache.write", kind="results")
        path = self._path("results", fingerprint, ".json")
        payload = encode_result(result)
        _atomic_write(path, json.dumps(payload, indent=1).encode())
        return path

    # -- traces ---------------------------------------------------------------

    def _load_trace_file(self, path: Path):
        """Load + validate one trace entry: (trace, corruption reason)."""
        try:
            data = path.read_bytes()
        except OSError:
            return None, "unreadable"
        return decode_trace(data)

    def get_trace(self, fingerprint: str) -> Trace | None:
        """Load a cached generated trace (or None); quarantines corruption."""
        path = self._path("traces", fingerprint, ".npz")
        if not path.exists():
            self._lookup("traces", hit=False)
            return None
        trace, reason = self._load_trace_file(path)
        if reason is not None:
            self._lookup("traces", hit=False)
            return self._corrupt("traces", path, reason)
        self._lookup("traces", hit=True)
        return trace

    def put_trace(self, fingerprint: str, trace: Trace) -> Path:
        """Persist a generated trace; returns the written path."""
        self._ensure("traces")
        telemetry.count("cache.write", kind="traces")
        path = self._path("traces", fingerprint, ".npz")
        _atomic_write(path, encode_trace(trace))
        return path

    # -- guard verdicts -------------------------------------------------------

    def _load_verdict_file(self, path: Path):
        """Load + validate one verdict entry: (payload, corruption reason).

        Verdicts are stored as opaque checksummed JSON objects — the
        guard layer owns their structure
        (:meth:`repro.guard.validator.ValidationVerdict.to_payload`),
        the cache only guarantees integrity.
        """
        try:
            payload = json.loads(path.read_bytes())
        except OSError:
            return None, "unreadable"
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "unparseable JSON"
        return decode_verdict(payload)

    def get_verdict(self, fingerprint: str) -> dict | None:
        """Load a cached guard-verdict payload (or None).

        Corrupt entries are quarantined and reported as a miss (strict
        caches raise :class:`~repro.errors.CacheCorruptionError`).
        """
        path = self._path("verdicts", fingerprint, ".json")
        if not path.exists():
            self._lookup("verdicts", hit=False)
            return None
        body, reason = self._load_verdict_file(path)
        if reason is not None:
            self._lookup("verdicts", hit=False)
            return self._corrupt("verdicts", path, reason)
        self._lookup("verdicts", hit=body is not None)
        return body

    def put_verdict(self, fingerprint: str, payload: dict) -> Path:
        """Persist a guard-verdict payload; returns the written path."""
        self._ensure("verdicts")
        telemetry.count("cache.write", kind="verdicts")
        path = self._path("verdicts", fingerprint, ".json")
        envelope = encode_verdict(payload)
        _atomic_write(path, json.dumps(envelope, indent=1).encode())
        return path

    # -- hit masks ------------------------------------------------------------

    def _load_hitmask_file(self, path: Path):
        """Load + validate one hit-mask entry: (mask, corruption reason)."""
        try:
            data = path.read_bytes()
        except OSError:
            return None, "unreadable"
        return decode_hitmask(data)

    def get_hitmask(self, fingerprint: str) -> np.ndarray | None:
        """Load a cached LLC hit mask (or None); quarantines corruption."""
        path = self._path("hitmasks", fingerprint, ".npz")
        if not path.exists():
            self._lookup("hitmasks", hit=False)
            return None
        mask, reason = self._load_hitmask_file(path)
        if reason is not None:
            self._lookup("hitmasks", hit=False)
            return self._corrupt("hitmasks", path, reason)
        self._lookup("hitmasks", hit=True)
        return mask

    def put_hitmask(self, fingerprint: str, mask: np.ndarray) -> Path:
        """Persist an LLC hit mask; returns the written path."""
        self._ensure("hitmasks")
        telemetry.count("cache.write", kind="hitmasks")
        path = self._path("hitmasks", fingerprint, ".npz")
        _atomic_write(path, encode_hitmask(mask))
        return path

    # -- maintenance ----------------------------------------------------------

    def _entries(self, kind: str) -> list[Path]:
        directory = self._base / kind
        if not directory.is_dir():
            return []
        return sorted(
            p for p in directory.iterdir() if not p.name.startswith(".tmp-")
        )

    def stats(self) -> CacheStats:
        """Entry counts, byte totals and quarantine census (current schema)."""
        entries = {}
        bytes_ = {}
        quarantined = {}
        for kind in _KINDS:
            files = self._entries(kind)
            entries[kind] = len(files)
            bytes_[kind] = sum(p.stat().st_size for p in files)
            qdir = self._base / "quarantine" / kind
            quarantined[kind] = (
                sum(1 for _ in qdir.iterdir()) if qdir.is_dir() else 0
            )
        return CacheStats(entries, bytes_, quarantined)

    def verify(self, repair: bool = True) -> CacheVerifyReport:
        """Walk every entry and validate its checksum.

        With ``repair=True`` (default) corrupt entries are moved to
        quarantine so subsequent runs recompute them; with
        ``repair=False`` the walk only reports.
        """
        loaders = {
            "results": self._load_result_file,
            "traces": self._load_trace_file,
            "hitmasks": self._load_hitmask_file,
            "verdicts": self._load_verdict_file,
        }
        checked = {}
        corrupt = {}
        for kind in _KINDS:
            bad = []
            files = self._entries(kind)
            checked[kind] = len(files)
            for path in files:
                _, reason = loaders[kind](path)
                if reason is not None:
                    bad.append(path.name)
                    if repair:
                        self._quarantine(kind, path)
            corrupt[kind] = tuple(bad)
        return CacheVerifyReport(checked=checked, corrupt=corrupt)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        n = self.stats().total_entries
        if self.root.is_dir():
            import shutil

            shutil.rmtree(self.root)
        return n


#: File-name suffixes that make a cache path mean "SQLite store".
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: The 16-byte magic every SQLite database file starts with.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_path(path: Path) -> bool:
    """True when *path* names a SQLite store (by suffix or file magic)."""
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return True
    if not path.is_file():
        return False
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
    except OSError:
        return False


def ensure_cache(cache: "ResultCache | str | Path | None") -> ResultCache | None:
    """Coerce a cache argument: pass through, build from a path, or None.

    Paths naming a SQLite database (by suffix — ``.db`` / ``.sqlite`` /
    ``.sqlite3`` — or by file magic) build the durable
    :class:`~repro.store.SQLiteStore`; anything else builds the v2
    file-tree cache.  The detection is what lets pool workers rebuild
    the coordinator's store from the bare path in the task payload.
    A path that cannot be opened or created is a
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    if cache is None or isinstance(cache, ResultCache):
        return cache
    path = Path(cache)
    if is_sqlite_path(path):
        from repro.store.store import SQLiteStore

        return SQLiteStore(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot open cache {path}: {exc}") from exc
    return ResultCache(path)
