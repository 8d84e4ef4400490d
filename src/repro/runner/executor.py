"""The batch executor: the one way the runner measures specs.

A batch is a run of specs sharing a (workload, engine) pair — one trace,
one engine profile, one :class:`~repro.runner.caching.PlacementBatch`
(cache probes, then the batch kernel on a miss).  :func:`run_batch`
executes one, in whichever process it is called: the coordinator calls
it in-process for serial sweeps and :meth:`ExperimentRunner.run
<repro.runner.grid.ExperimentRunner.run>` (singleton batches), pool
workers call it for the batches the planner cuts.  No
:class:`~repro.kvstore.server.HybridDeployment` is built anywhere: a
spec's placement is a mask.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.kvstore.profiles import profile_for
from repro.runner.caching import PlacementBatch
from repro.runner.outcome import ExperimentMeta
from repro.runner.shm import attach_trace


def run_batch(runner, specs, handle=None, chaos=None, allow_exit=False):
    """Execute *specs* (one workload, one engine) against *runner*'s client.

    The trace is attached zero-copy from the shared-memory plane when a
    *handle* is given — falling back to ``runner.trace_for`` if the
    segment is gone — else materialised by ``runner.trace_for``.

    Returns *per spec* ``(local_index, ok, payload)`` entries: a
    ``(result, meta)`` pair, or the spec's exception instead of
    poisoning the batch — one bad spec does not block its batch-mates.
    Chaos strikes fire per spec (``allow_exit`` lets an ``exit`` strike
    kill the process: pool workers only), and each spec runs under its
    own ``runner.experiment`` span.  What the batch as a whole cannot
    survive (no trace, no kernel inputs) raises.
    """
    client = runner._client
    trace = None
    if handle is not None:
        try:
            trace = attach_trace(handle)
            client.prime_trace_digest(trace, handle.digest)
        except Exception:  # segment gone: degrade, never fail
            trace = None
            telemetry.count("runner.shm", op="fallback")
    if trace is None:
        trace = runner.trace_for(specs[0].workload)
    batch = PlacementBatch(
        client, trace, profile_for(specs[0].engine), runner.system_factory(),
    )
    entries: list[tuple[int, bool, object]] = []
    for local, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            if chaos is not None:
                chaos.maybe_strike(spec.label, allow_exit=allow_exit)
            with telemetry.span("runner.experiment", label=spec.label) as sp:
                mask = runner.placement_mask(spec, trace)
                result, provenance = batch.run_cached(mask)
                sp.set("provenance", provenance)
            meta = ExperimentMeta(
                label=spec.label,
                duration_s=time.perf_counter() - start,
                provenance=provenance,
            )
            entries.append((local, True, (result, meta)))
        except Exception as exc:
            entries.append((local, False, exc))
    return entries
