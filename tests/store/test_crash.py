"""Kill-9 drills: the store and the journaled sweep survive SIGKILL.

Two crashes, neither of which may corrupt a byte:

- a **writer process** SIGKILLed mid-write stream — on reopen the
  database passes ``integrity_check``, nothing is quarantined, and the
  write-ordering invariant holds (every oplog-acknowledged fingerprint
  has its row; a row may lack its oplog line, never the reverse);
- a **sweep coordinator** SIGKILLed mid-sweep — completed experiments
  are durable in the journal, and ``--resume`` finishes the run with
  results bit-identical to an uninterrupted sweep.
"""

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.faults import ChaosPlan
from repro.runner import ClientConfig, ExperimentRunner, RetryPolicy
from repro.store import SQLiteStore, SweepJournal
from repro.ycsb.client import RunResult


def _wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# -- drill 1: writer killed mid-stream ---------------------------------------


def _doomed_writer(path):
    """Write result rows forever; each oplog line follows its row."""
    store = SQLiteStore(path)
    i = 0
    while True:
        fp = f"fp-{i:05d}"
        store.put_result(fp, RunResult(
            workload="x" * 256, engine="redis", n_requests=i + 1,
            n_reads=i + 1, n_writes=0, runtime_ns=1e6, avg_read_ns=1.0,
            avg_write_ns=0.0,
        ))
        store.oplog.append("kill-run", "wrote", i=i, fingerprint=fp)
        i += 1


class TestWriterSigkill:
    def test_reopen_after_sigkill_zero_corruption(self, tmp_path):
        path = tmp_path / "victim.db"
        SQLiteStore(path).close()
        ctx = mp.get_context("fork")
        child = ctx.Process(target=_doomed_writer, args=(path,))
        child.start()
        probe = SQLiteStore(path)
        try:
            # let a real write stream build up before pulling the plug
            assert _wait_for(
                lambda: len(probe.oplog.entries("kill-run")) >= 20
            ), "writer never reached 20 acknowledged writes"
        finally:
            probe.close()
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        store = SQLiteStore(path)
        try:
            assert store.integrity_check() == "ok"
            report = store.verify()
            assert report.ok
            assert store.stats().total_quarantined == 0
            acked = store.oplog.entries("kill-run", kind="wrote")
            assert len(acked) >= 20
            rows = set(store.fingerprints("results"))
            # write ordering: an acknowledgement implies a durable row
            for entry in acked:
                assert entry.payload["fingerprint"] in rows
            # and acknowledgements were never reordered or dropped
            assert [e.payload["i"] for e in acked] == list(range(len(acked)))
        finally:
            store.close()


# -- drill 2: coordinator killed mid-sweep, then resumed ---------------------


def _doomed_coordinator(store_path, run_id, specs, config, marker_dir):
    """Run a journaled serial sweep that wedges on the last spec."""
    store = SQLiteStore(store_path)
    runner = ExperimentRunner(
        cache=store, client=config,
        chaos=ChaosPlan(
            kill_labels=(specs[-1].label,), mode="hang", hang_s=300.0,
            marker_dir=marker_dir,
        ),
        retry=RetryPolicy(max_attempts=1),
    )
    try:
        runner.sweep(
            specs, journal=SweepJournal(store, run_id),
        )
    finally:  # pragma: no cover - SIGKILL lands inside the hang
        runner.close()
        store.close()


class TestCoordinatorSigkill:
    def test_resume_completes_bit_identical(
        self, tmp_path, small_spec,
    ):
        specs = ExperimentRunner.grid(
            [small_spec], engines=("redis", "memcached"),
            placements=("fast", "slow"),
        )
        config = ClientConfig(repeats=2, seed=11)
        reference = ExperimentRunner(client=config).run_grid(specs)

        path = tmp_path / "sweep.db"
        SQLiteStore(path).close()
        ctx = mp.get_context("fork")
        child = ctx.Process(
            target=_doomed_coordinator,
            args=(path, "drill", specs, config, str(tmp_path / "chaos")),
        )
        child.start()
        probe = SQLiteStore(path)
        try:
            # wait until some checkpoints are durable, then kill -9
            assert _wait_for(
                lambda: len(SweepJournal(probe, "drill").completed()) >= 2
            ), "coordinator never checkpointed an experiment"
        finally:
            probe.close()
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        store = SQLiteStore(path)
        try:
            assert store.integrity_check() == "ok"
            journal = SweepJournal(store, "drill")
            assert journal.started() and not journal.finished()
            n_durable = len(journal.completed())
            assert 2 <= n_durable < len(specs)

            # resume: same run id, no chaos this time
            runner = ExperimentRunner(cache=store, client=config)
            try:
                outcome = runner.sweep(
                    specs, journal=SweepJournal(store, "drill"),
                )
            finally:
                runner.close()
            assert outcome.ok
            assert list(outcome.results) == reference  # bit-identical
            assert outcome.provenance.count("journal") == n_durable
            assert f"{n_durable} resumed from journal" in outcome.summary()
            assert SweepJournal(store, "drill").finished()
        finally:
            store.close()
