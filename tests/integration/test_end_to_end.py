"""End-to-end operator story: from a raw request log to a deployment.

Walks the full path a real user would take — external trace in, CSV
artefacts out, placement realised, recommendation verified against a
measured run — crossing every package boundary in one test.
"""

import numpy as np
import pytest

from repro.core import Mnemo, MnemoT
from repro.kvstore import RedisLike
from repro.memsim import HybridMemorySystem
from repro.ycsb import YCSBClient, load_trace_csv, save_trace_csv
from repro.ycsb.adapters import from_requests


@pytest.fixture(scope="module")
def raw_log():
    """A synthetic production log: string keys, GET/SET verbs, sizes."""
    rng = np.random.default_rng(12)
    n_keys, n_req = 400, 8_000
    # zipf-flavoured popularity over opaque keys
    ranks = np.minimum(rng.zipf(1.3, n_req) - 1, n_keys - 1)
    perm = rng.permutation(n_keys)
    keys = [f"sess:{perm[r]:05d}" for r in ranks]
    ops = np.where(rng.random(n_req) < 0.9, "GET", "SET").tolist()
    sizes_by_rank = rng.integers(20_000, 120_000, n_keys)
    sizes = [int(sizes_by_rank[perm[r]]) for r in ranks]
    return keys, ops, sizes


class TestOperatorStory:
    def test_full_path(self, raw_log, tmp_path):
        keys, ops, sizes = raw_log

        # 1. adapt the external log
        trace = from_requests(keys, ops, sizes, name="prod_cache")
        assert trace.n_keys <= 400

        # 2. persist + reload the descriptor (team hand-off artefact)
        req_path, data_path = save_trace_csv(trace, tmp_path)
        descriptor = load_trace_csv(req_path, data_path)

        # 3. profile with MnemoT (the recommended configuration)
        client = YCSBClient(repeats=2, noise_sigma=0.01, seed=21)
        mnemot = MnemoT(engine_factory=RedisLike, client=client)
        report = mnemot.profile(descriptor)
        assert report.baselines.throughput_gap > 1.0

        # 4. artefacts: the paper CSV + the markdown report
        curve_csv = report.write_csv(tmp_path / "curve.csv")
        md = report.write_markdown(tmp_path / "report.md")
        assert curve_csv.exists() and md.exists()

        # 5. pick and realise the sizing
        choice = report.choose(0.10)
        deployment = mnemot.place(report, choice)
        assert deployment.fast_mask.sum() == choice.n_fast_keys
        assert deployment.fast_bytes() <= \
            deployment.system.fast.capacity_bytes

        # 6. the recommendation holds against a measured run
        measured = client.execute(descriptor, deployment)
        ideal = report.baselines.fast.throughput_ops_s
        assert measured.throughput_ops_s >= 0.88 * ideal  # 10 % SLO + noise

        # 7. and the drift guardrail signs off on static placement
        drift = report.drift_check(descriptor)
        assert drift.stationary

    def test_stand_alone_vs_tiered_consistency(self, raw_log):
        """Both facades agree on the baselines; tiered never costs more."""
        keys, ops, sizes = raw_log
        trace = from_requests(keys, ops, sizes, name="prod_cache")
        client = YCSBClient(repeats=1, noise_sigma=0.0)
        plain = Mnemo(engine_factory=RedisLike, client=client).profile(trace)
        tiered = MnemoT(engine_factory=RedisLike, client=client).profile(trace)
        assert plain.baselines.slow_runtime_ns == pytest.approx(
            tiered.baselines.slow_runtime_ns
        )
        assert (tiered.choose(0.10).cost_factor
                <= plain.choose(0.10).cost_factor + 1e-12)
