"""Workload descriptors — Mnemo's input format.

Mnemo "does not perform fine-grained execution monitoring.  Instead,
users are expected to provide ... a target workload descriptor,
comprised of ... key access distribution and request type sequence for
a given dataset" (Section IV).  In this package that descriptor *is* a
:class:`~repro.ycsb.workload.Trace`: the key sequence, the per-request
type and the per-key value sizes.  Generate one with
:func:`~repro.ycsb.generator.generate_trace` or load the CSV pair with
:func:`~repro.ycsb.trace_io.load_trace_csv`, and hand it to
:meth:`~repro.core.mnemo.Mnemo.profile` as it is.
"""

from __future__ import annotations

from repro.ycsb.workload import Trace


class WorkloadDescriptor:
    """The paper's name for a :class:`Trace`; holds nothing of its own.

    Kept only because the benchmark harness (``benchmarks/perf``)
    imports it from :mod:`repro.core` and times ``from_trace``; ROADMAP
    item 1, which re-trues that harness, deletes it.
    """

    @staticmethod
    def from_trace(trace: Trace) -> Trace:
        """*trace* itself: the trace is the descriptor."""
        return trace
