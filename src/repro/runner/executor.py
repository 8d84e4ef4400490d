"""The batch executor: the one way the runner measures specs.

A batch is a run of specs sharing a (workload, engine) pair — one trace,
one engine profile, one :class:`~repro.runner.caching.PlacementBatch`
(cache probes, then the batch kernel on a miss).  :func:`run_batch`
executes one: a sweep calls it once per group and
:meth:`ExperimentRunner.run <repro.runner.grid.ExperimentRunner.run>`
once per spec.  No :class:`~repro.kvstore.server.HybridDeployment` is
built anywhere: a spec's placement is a mask.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.kvstore.profiles import profile_for
from repro.runner.caching import PlacementBatch
from repro.runner.outcome import ExperimentMeta


def run_batch(runner, specs, chaos=None):
    """Execute *specs* (one workload, one engine) against *runner*'s client.

    The trace comes from ``runner.trace_for``, whose memo keeps it for
    the workload's other batches.

    Returns *per spec* ``(local_index, ok, payload)`` entries: a
    ``(result, meta)`` pair, or the spec's exception instead of
    poisoning the batch — one bad spec does not block its batch-mates.
    Chaos strikes fire per spec, and each spec runs under its own
    ``runner.experiment`` span.  What the batch as a whole cannot
    survive (no trace, no kernel inputs) raises.
    """
    trace = runner.trace_for(specs[0].workload)
    batch = PlacementBatch(
        runner._client, trace, profile_for(specs[0].engine),
        runner.system_factory(),
    )
    entries: list[tuple[int, bool, object]] = []
    for local, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            if chaos is not None:
                chaos.maybe_strike(spec.label)
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
