"""The batch executor: the one way the runner measures specs.

A batch is a run of specs sharing a (workload, engine) pair — one trace,
one engine profile, one :class:`~repro.runner.caching.PlacementBatch`
(one store probe, then the batch kernel on the misses, as one family
pass).  :func:`run_batch` executes one: a sweep calls it once per group
and :meth:`ExperimentRunner.run <repro.runner.grid.ExperimentRunner.run>`
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
    the workload's other batches.  Two phases:

    1. per spec, the chaos strike, then its mask and fingerprint under
       its own ``runner.experiment`` span;
    2. one :meth:`~repro.runner.caching.PlacementBatch.run_all_cached`
       over the specs that got through, whose provenance each span then
       carries.

    Returns *per spec* ``(local_index, ok, payload)`` entries: a
    ``(result, meta)`` pair, or the spec's exception instead of
    poisoning the batch — one bad spec does not block its batch-mates;
    what phase 2 raises is charged to each of its specs.  A spec's
    ``duration_s`` is its own phase 1 plus an equal share of phase 2.
    What the batch as a whole cannot survive (no trace, no kernel
    inputs) raises.
    """
    trace = runner.trace_for(specs[0].workload)
    batch = PlacementBatch(
        runner._client, trace, profile_for(specs[0].engine),
        runner.system_factory(),
    )
    entries: list[tuple[int, bool, object]] = []
    ready, masks, fps = [], [], []
    for local, spec in enumerate(specs):
        start = time.perf_counter()
        try:
            if chaos is not None:
                chaos.maybe_strike(spec.label)
            with telemetry.span("runner.experiment", label=spec.label) as sp:
                mask = runner.placement_mask(spec, trace)
                fingerprint = batch.fingerprint(mask)
        except Exception as exc:
            entries.append((local, False, exc))
            continue
        ready.append((local, spec, sp, time.perf_counter() - start))
        masks.append(mask)
        fps.append(fingerprint)
    if ready:
        start = time.perf_counter()
        try:
            measured = batch.run_all_cached(masks, fps)
        except Exception as exc:
            for local, _, sp, _ in ready:
                sp.set("error", type(exc).__name__)
                entries.append((local, False, exc))
        else:
            share = (time.perf_counter() - start) / len(ready)
            for (local, spec, sp, own), (result, provenance) in zip(
                ready, measured,
            ):
                sp.set("provenance", provenance)
                entries.append((local, True, (result, ExperimentMeta(
                    label=spec.label, duration_s=own + share,
                    provenance=provenance,
                ))))
    entries.sort(key=lambda entry: entry[0])
    return entries
