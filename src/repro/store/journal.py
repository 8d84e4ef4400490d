"""Sweep journaling: checkpoint completed experiments, resume after kills.

A :class:`SweepJournal` binds one sweep invocation to a ``run_id`` in
the store's oplog.  The runner checkpoints every completed experiment
the moment its result lands in the coordinator
(:meth:`~repro.runner.grid.ExperimentRunner.sweep` with ``journal=``),
so progress is durable at single-experiment granularity:

- ``sweep_started`` — the spec labels and count, appended once per
  process that works on the run (a resume appends another with
  ``resumed=True``, preserving the full history);
- ``experiment_done`` — one entry per completed experiment carrying its
  spec index, label and content-addressed fingerprint;
- ``sweep_finished`` — the terminal entry; its absence means the
  coordinator died mid-sweep and the run is resumable.

Resume needs no replay machinery: the result *bytes* live in the store
under the experiment fingerprint (content-addressed, bit-identical to
what any rerun would measure), so resuming is exactly "skip every
fingerprint the journal says is done, load its row, mark its
provenance ``journal``".  A resumed sweep therefore reproduces the
uninterrupted sweep's :class:`~repro.runner.outcome.GridOutcome` results
bit for bit.
"""

from __future__ import annotations

from repro.errors import StoreError
from repro.store.oplog import OplogEntry


class SweepJournal:
    """Checkpoint log of one journaled sweep run.

    Parameters
    ----------
    store:
        The :class:`~repro.store.SQLiteStore` holding both the oplog
        and the result rows the checkpoints point at.
    run_id:
        The journal key; ``mnemo sweep --resume RUN_ID`` binds a new
        coordinator to the same id.
    """

    def __init__(self, store, run_id: str):
        if not run_id:
            raise StoreError("a sweep journal needs a non-empty run id")
        self.store = store
        self.run_id = str(run_id)

    # -- queries --------------------------------------------------------------

    def entries(self, kind: str | None = None) -> list[OplogEntry]:
        """This run's oplog entries (optionally one kind), in order."""
        return self.store.oplog.entries(run_id=self.run_id, kind=kind)

    def started(self) -> bool:
        """True when some coordinator has begun this run."""
        return bool(self.entries(kind="sweep_started"))

    def finished(self) -> bool:
        """True when a coordinator completed the sweep (terminal entry)."""
        return bool(self.entries(kind="sweep_finished"))

    def completed(self) -> dict[str, str]:
        """Checkpointed experiments: fingerprint -> spec label."""
        return {
            e.payload["fingerprint"]: e.payload.get("label", "")
            for e in self.entries(kind="experiment_done")
            if "fingerprint" in e.payload
        }

    # -- checkpoints ----------------------------------------------------------

    def begin(self, labels: list[str]) -> bool:
        """Record this coordinator's start; returns True when resuming."""
        resumed = self.started()
        self.store.oplog.append(
            self.run_id, "sweep_started",
            n_specs=len(labels), labels=list(labels), resumed=resumed,
        )
        return resumed

    def record(self, index: int, label: str, fingerprint: str) -> None:
        """Durably checkpoint one completed experiment."""
        self.store.oplog.append(
            self.run_id, "experiment_done",
            index=index, label=label, fingerprint=fingerprint,
        )

    def finish(self, completed: int, failed: int) -> None:
        """Append the terminal entry (the run is no longer resumable-as-dead)."""
        self.store.oplog.append(
            self.run_id, "sweep_finished",
            completed=completed, failed=failed,
        )
