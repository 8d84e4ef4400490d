"""Entry codecs and census types of the result store.

The on-the-wire form of everything :class:`~repro.store.SQLiteStore`
persists, kept apart from the SQL so the bytes can be reasoned about
(and timed) on their own.  Every entry carries a checksum of its own
content — a JSON canonical-form digest for results, the trace content
fingerprint for traces, an array digest for hit masks —
so a read that fails to parse or fails its checksum is recognised as
corruption and recomputed instead of believed.

:func:`ensure_cache` is the one coercion every ``cache=`` argument in
the library goes through.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.runner.fingerprint import array_digest, trace_fingerprint
from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

#: Entry schema version; bump when the encoded form or the
#: fingerprint canonicalisation changes incompatibly.  v2 added
#: per-entry checksums.
SCHEMA_VERSION = 2

#: The entry kinds, in the order censuses print them.  Rows of any
#: other kind (older builds also wrote ``verdicts``) are neither
#: counted nor verified; ``clear()`` still drops them.
_KINDS = ("results", "traces", "hitmasks")


def _json_checksum(body) -> str:
    """SHA-256 of a JSON value in canonical form.

    Callers must pass a value that already round-tripped through JSON
    (string keys only), so writer and reader canonicalise identically.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- entry codecs ----------------------------------------------------------
#
# Results are checksummed JSON envelopes, traces and hit
# masks are checksummed NPZ byte strings.  Decoders return ``(value,
# corruption_reason)``; a stale-schema envelope decodes to ``(None,
# None)`` — a miss, not corruption — so a schema bump orphans entries
# without quarantining them.


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


def _npz_bytes(**arrays) -> bytes:
    """Pack arrays as the compressed NPZ byte string ``np.load`` reads.

    What ``np.savez_compressed`` writes, but at deflate level 1 instead
    of 6: a quarter of the encode time for ~7 % more bytes.  Even so a
    paper-scale trace takes about twice as long to encode as to
    generate, which is why the runner no longer stores traces.
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


def ensure_cache(cache):
    """Coerce a cache argument: None or a store passes through, a path opens.

    Any path *is* the SQLite file of a
    :class:`~repro.store.SQLiteStore`, whatever its suffix (created on
    first use) — which is what lets pool workers rebuild the
    coordinator's store from the bare path in the task payload.  A path
    that cannot be opened or created, an existing directory included,
    is a :class:`~repro.errors.ConfigurationError` naming it.
    """
    if cache is None:
        return None
    from repro.store.store import SQLiteStore

    if isinstance(cache, SQLiteStore):
        return cache
    return SQLiteStore(cache)
