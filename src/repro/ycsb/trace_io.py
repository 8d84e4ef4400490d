"""Trace persistence.

Mnemo's interface takes "the target workload, in a form of a key
sequence and the corresponding request type" (Section IV).  These
helpers serialise a :class:`~repro.ycsb.workload.Trace` to a two-part
CSV layout — a request file (``key,op``) and a dataset file
(``key,size``) — and load it back; an NPZ round-trip is also provided
for large traces (binary, compressed, checksummed).

Every load failure — unreadable file, truncated archive, malformed row,
non-integer field — surfaces as a :class:`~repro.errors.WorkloadError`
naming the offending file, never a bare ``ValueError``/``OSError``; the
fault-tolerant runner relies on that to classify trace problems as
non-retryable instead of burning retry attempts on them.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.errors import WorkloadError
from repro.ycsb.workload import Trace

def save_trace_csv(trace: Trace, directory: str | Path) -> tuple[Path, Path]:
    """Write ``<name>.requests.csv`` and ``<name>.dataset.csv``.

    Returns the two paths (requests file, dataset file).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    req_path = directory / f"{trace.name}.requests.csv"
    data_path = directory / f"{trace.name}.dataset.csv"

    with req_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "op"])
        ops = np.where(trace.is_read, "READ", "UPDATE")
        writer.writerows(zip(trace.keys.tolist(), ops.tolist()))

    with data_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "size_bytes"])
        writer.writerows(enumerate(trace.record_sizes.tolist()))

    return req_path, data_path


def _int_field(path: Path, row: list[str], index: int, what: str) -> int:
    try:
        return int(row[index])
    except ValueError:
        raise WorkloadError(
            f"{path}: non-integer {what} {row[index]!r} in row {row}"
        ) from None


def load_trace_csv(
    requests_path: str | Path,
    dataset_path: str | Path,
    name: str | None = None,
) -> Trace:
    """Load a trace written by :func:`save_trace_csv`.

    Raises :class:`~repro.errors.WorkloadError` on unreadable files,
    bad headers, malformed rows or non-integer fields.
    """
    requests_path = Path(requests_path)
    dataset_path = Path(dataset_path)

    keys, is_read = [], []
    try:
        with requests_path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["key", "op"]:
                raise WorkloadError(
                    f"{requests_path}: unexpected header {header}"
                )
            for row in reader:
                if len(row) != 2:
                    raise WorkloadError(
                        f"{requests_path}: malformed row {row}"
                    )
                keys.append(_int_field(requests_path, row, 0, "key"))
                op = row[1].upper()
                if op not in ("READ", "UPDATE", "INSERT", "WRITE"):
                    raise WorkloadError(
                        f"{requests_path}: unknown op {row[1]!r}"
                    )
                is_read.append(op == "READ")
    except OSError as exc:
        raise WorkloadError(f"{requests_path}: unreadable ({exc})") from exc

    sizes_by_key: dict[int, int] = {}
    try:
        with dataset_path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["key", "size_bytes"]:
                raise WorkloadError(
                    f"{dataset_path}: unexpected header {header}"
                )
            for row in reader:
                if len(row) != 2:
                    raise WorkloadError(f"{dataset_path}: malformed row {row}")
                key = _int_field(dataset_path, row, 0, "key")
                sizes_by_key[key] = _int_field(
                    dataset_path, row, 1, "size"
                )
    except OSError as exc:
        raise WorkloadError(f"{dataset_path}: unreadable ({exc})") from exc

    n_keys = max(sizes_by_key) + 1 if sizes_by_key else 0
    if set(sizes_by_key) != set(range(n_keys)):
        raise WorkloadError(f"{dataset_path}: key space is not dense 0..{n_keys - 1}")
    record_sizes = np.array([sizes_by_key[k] for k in range(n_keys)], dtype=np.int64)

    if name is None:
        name = requests_path.stem.removesuffix(".requests")
    return Trace(
        name=name,
        keys=np.array(keys, dtype=np.int64),
        is_read=np.array(is_read, dtype=bool),
        record_sizes=record_sizes,
    )


def save_trace_npz(trace: Trace, path: str | Path) -> Path:
    """Write a trace as a single compressed NPZ archive.

    The archive carries the trace's content fingerprint so that
    :func:`load_trace_npz` can detect silent truncation or bit rot, not
    just unreadable archives.
    """
    from repro.runner.fingerprint import trace_fingerprint

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.savez_compressed(
            fh,
            name=np.asarray(trace.name),
            keys=trace.keys,
            is_read=trace.is_read,
            record_sizes=trace.record_sizes,
            checksum=np.asarray(trace_fingerprint(trace)),
        )
    return path


def load_trace_npz(path: str | Path) -> Trace:
    """Load a trace written by :func:`save_trace_npz`.

    Raises :class:`~repro.errors.WorkloadError` when the archive is
    missing, truncated, missing arrays, or fails its checksum.
    """
    import zipfile  # np.load needs it for any archive; nothing else here does

    from repro.runner.fingerprint import trace_fingerprint

    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as npz:
            missing = [
                k for k in ("name", "keys", "is_read", "record_sizes")
                if k not in npz
            ]
            if missing:
                raise WorkloadError(
                    f"{path}: trace archive is missing arrays {missing}"
                )
            trace = Trace(
                name=str(npz["name"]),
                keys=npz["keys"],
                is_read=npz["is_read"],
                record_sizes=npz["record_sizes"],
            )
            stored = str(npz["checksum"]) if "checksum" in npz else None
    except (OSError, KeyError, ValueError, EOFError,
            zipfile.BadZipFile) as exc:
        raise WorkloadError(
            f"{path}: truncated or unreadable trace archive ({exc})"
        ) from exc
    if stored is not None and trace_fingerprint(trace) != stored:
        raise WorkloadError(
            f"{path}: trace archive failed its checksum (corrupt content)"
        )
    return trace
