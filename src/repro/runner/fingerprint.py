"""Experiment fingerprinting.

Every experiment the runner executes is identified by a SHA-256 digest
over a *canonical* JSON description of everything that determines its
outcome: the workload (spec or concrete trace), the engine's sensitivity
profile, the memory-system parameters, the client settings, and the base
seed.  Two experiments with the same fingerprint are bit-identical, so
the fingerprint doubles as

- the content-addressed key of the on-disk result/trace/hit-mask cache
  (:mod:`repro.runner.cache`), and
- the label from which the client derives its noise seeds — making the
  measured numbers a pure function of the experiment description,
  independent of call order, process, or parallel schedule.

Canonicalisation rules: dataclasses become ``{"__dataclass__": name,
**fields}`` mappings, NumPy arrays are replaced by a digest of their raw
bytes plus dtype/shape, floats are serialised exactly via ``repr``, and
mapping keys are sorted.  The scheme is versioned through the cache's
schema version, so changing it invalidates old entries rather than
silently aliasing them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

#: Digest length (hex chars) used for short fingerprints; 128 bits of a
#: SHA-256 is far beyond collision risk for any realistic sweep.
SHORT_DIGEST_LEN = 32


def canonicalize(obj: Any) -> Any:
    """Reduce *obj* to a deterministic JSON-serialisable structure.

    Handles dataclasses, NumPy arrays and scalars, mappings, sequences
    and plain scalars.  Raises :class:`~repro.errors.ConfigurationError`
    for types with no canonical form (e.g. arbitrary callables), rather
    than falling back to ``repr`` which would not be stable.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # np.float64 subclasses float; coerce so both repr identically
        return {"__float__": repr(float(obj))}
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": array_digest(obj),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {
            "__mapping__": [
                [canonicalize(k), canonicalize(v)]
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    raise ConfigurationError(
        f"cannot canonicalize {type(obj).__name__!r} for fingerprinting"
    )


def digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of *obj*."""
    payload = json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 hex digest of an array's raw bytes (dtype/shape-tagged)."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.view(np.uint8).data)
    return h.hexdigest()


def trace_fingerprint(trace) -> str:
    """Content digest of a concrete :class:`~repro.ycsb.workload.Trace`."""
    h = hashlib.sha256()
    h.update(trace.name.encode("utf-8"))
    h.update(array_digest(trace.keys).encode())
    h.update(array_digest(trace.is_read).encode())
    h.update(array_digest(trace.record_sizes).encode())
    return h.hexdigest()[:SHORT_DIGEST_LEN]


def workload_fingerprint(workload) -> str:
    """Digest of a workload: a spec canonically, a trace by content.

    Accepts a :class:`~repro.ycsb.workload.WorkloadSpec` (fingerprinted
    from its declarative parameters — cheap, and independent of whether
    the trace was ever materialised) or a concrete
    :class:`~repro.ycsb.workload.Trace` (fingerprinted by content).
    """
    if hasattr(workload, "distribution"):  # WorkloadSpec
        return digest(workload)[:SHORT_DIGEST_LEN]
    return trace_fingerprint(workload)


def system_fingerprint(system) -> dict:
    """Canonical description of a hybrid memory system's parameters."""
    return {
        "fast": {
            "latency_ns": system.fast.latency_ns,
            "bandwidth_gbps": system.fast.bandwidth_gbps,
            "capacity_bytes": system.fast.capacity_bytes,
        },
        "slow": {
            "latency_ns": system.slow.latency_ns,
            "bandwidth_gbps": system.slow.bandwidth_gbps,
            "capacity_bytes": system.slow.capacity_bytes,
        },
        "llc": llc_fingerprint(system.llc),
    }


def llc_fingerprint(llc) -> dict:
    """Canonical description of an LLC model's parameters."""
    return {
        "capacity_bytes": llc.capacity_bytes,
        "hit_latency_ns": llc.hit_latency_ns,
    }


def client_fingerprint(client) -> dict:
    """Canonical description of a measuring client's settings.

    Works for any object exposing the :class:`~repro.ycsb.client.YCSBClient`
    configuration surface (repeats, noise, percentiles, seed, concurrency).
    """
    seed = client.seed
    if isinstance(seed, np.random.Generator):
        raise ConfigurationError(
            "clients seeded with a live Generator cannot be fingerprinted; "
            "pass an integer seed (or None) for cacheable experiments"
        )
    body = {
        "repeats": client.repeats,
        "noise_sigma": client.noise.sigma,
        "use_llc": client.use_llc,
        "percentiles": list(client.percentiles),
        "seed": seed,
        "concurrency": client.concurrency,
        "contention": client.contention,
    }
    # only fault-injecting clients contribute a "faults" key, so every
    # pre-fault fingerprint (and cache entry) stays valid
    faults = getattr(client, "faults", None)
    if faults is not None and faults.active:
        body["faults"] = canonicalize(faults)
    return body


def experiment_fingerprint(
    trace_digest: str, deployment, client,
) -> str:
    """Fingerprint of one (trace, deployment, client) measurement.

    Parameters
    ----------
    trace_digest:
        Precomputed :func:`trace_fingerprint` (callers typically already
        have it for the hit-mask memo).
    deployment:
        The :class:`~repro.kvstore.server.HybridDeployment` under test;
        contributes the engine profile, the placement mask and the
        memory-system parameters.
    client:
        The measuring client; contributes repeats/noise/seed settings.
    """
    record_sizes, fast_mask = deployment.placement_arrays()
    return experiment_fingerprint_parts(
        trace_digest, deployment.profile, fast_mask,
        deployment.system, client,
    )


def experiment_fingerprint_parts(
    trace_digest: str, profile, fast_mask, system, client,
) -> str:
    """Experiment fingerprint from its separately known components.

    Identical to :func:`experiment_fingerprint` but usable before (or
    without) constructing a deployment — e.g. to probe the result cache
    from an :class:`~repro.runner.spec.ExperimentSpec` alone, where the
    profile, placement mask and system are all derivable cheaply.
    """
    body = {
        "trace": trace_digest,
        "engine": canonicalize(profile),
        "placement": array_digest(np.asarray(fast_mask))[:SHORT_DIGEST_LEN],
        "system": system_fingerprint(system),
        "client": client_fingerprint(client),
    }
    return digest(body)[:SHORT_DIGEST_LEN]
