"""Entry codecs and census types of the result store.

The payload form of everything :class:`~repro.store.SQLiteStore`
persists, kept apart from the SQL so the bytes can be reasoned about
(and timed) on their own.  :data:`CODECS` holds one ``(encode,
decode)`` pair per entry kind: a value becomes a payload and back.
The store seals each payload under one SHA-256 digest and stamps the
row with :data:`SCHEMA_VERSION`; no payload carries a checksum or a
schema of its own.

:func:`ensure_cache` is the one coercion every ``cache=`` argument in
the library goes through.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from repro.ycsb.client import RunResult
from repro.ycsb.workload import Trace

#: Entry schema version, stored in each row's ``schema`` column; bump
#: when a payload form or the fingerprint canonicalisation changes
#: incompatibly.  v3 moved the checksum out of the payloads into one
#: digest over the stored bytes; v4 orphans the results measured before
#: the kernel's sums became exact, v5 those whose percentiles took Phi
#: from :func:`math.erfc` per value (their last bits differ).
SCHEMA_VERSION = 5


# -- entry codecs ----------------------------------------------------------
#
# Results are compact canonical JSON, traces and hit masks are NPZ byte
# strings.  A decoder raises on a payload it cannot read; the store
# only hands it payloads whose digest matched.


def encode_result(result: RunResult) -> bytes:
    """A run result's fields as compact, key-sorted JSON."""
    return json.dumps(
        vars(result), sort_keys=True, separators=(",", ":"),
    ).encode()


def decode_result(payload: bytes) -> RunResult:
    """The run result of an :func:`encode_result` payload."""
    body = json.loads(payload)
    body["latency_percentiles_ns"] = {
        float(q): v for q, v in body["latency_percentiles_ns"].items()
    }
    return RunResult(**body)


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
    """A trace's arrays as a compressed NPZ byte string."""
    return _npz_bytes(
        name=trace.name,
        keys=trace.keys,
        is_read=trace.is_read,
        record_sizes=trace.record_sizes,
    )


def decode_trace(payload: bytes) -> Trace:
    """The trace of an :func:`encode_trace` payload."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        return Trace(
            name=str(npz["name"]),
            keys=npz["keys"],
            is_read=npz["is_read"],
            record_sizes=npz["record_sizes"],
        )


def encode_hitmask(mask: np.ndarray) -> bytes:
    """An LLC hit mask as a compressed NPZ byte string."""
    return _npz_bytes(mask=np.asarray(mask, dtype=bool))


def decode_hitmask(payload: bytes) -> np.ndarray:
    """The hit mask of an :func:`encode_hitmask` payload."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        return npz["mask"]


#: ``kind -> (encode, decode)``, in the order censuses print the kinds.
#: Rows of any other kind (older builds also wrote ``verdicts``) are
#: neither counted nor verified; ``clear()`` still drops them.
CODECS = {
    "results": (encode_result, decode_result),
    "traces": (encode_trace, decode_trace),
    "hitmasks": (encode_hitmask, decode_hitmask),
}


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
        self.quarantined = quarantined or {kind: 0 for kind in CODECS}

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
        for kind in CODECS:
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
    """Result of a full digest walk over the cache."""

    checked: dict[str, int] = field(default_factory=dict)
    corrupt: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every checked entry passed its digest check."""
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
        for kind in CODECS:
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
    first use).  A path
    that cannot be opened or created, an existing directory included,
    is a :class:`~repro.errors.ConfigurationError` naming it.
    """
    if cache is None:
        return None
    from repro.store.store import SQLiteStore

    if isinstance(cache, SQLiteStore):
        return cache
    return SQLiteStore(cache)
