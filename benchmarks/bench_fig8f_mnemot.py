"""Figure 8f — Mnemo vs MnemoT estimates on a scrambled workload.

MnemoT's Pattern Engine re-orders the scrambled zipfian key space into
a zipfian-like hot-first allocation order.  The bench reproduces the
paper's 70:30 / 50:50 walkthrough: tiering buys ~6 % throughput at a
76 % cost point, and a 10 % SLO is already met at ~52 % cost.
"""

import numpy as np

from repro.core import MnemoT, estimate_errors, measure_curve, prefix_counts
from repro.kvstore import RedisLike

from common import emit, pct, table


def run(paper_traces, client):
    from repro.core import EstimateEngine, PatternEngine

    trace = paper_traces["timeline"]
    tiered = MnemoT(engine_factory=RedisLike, client=client).profile(trace)
    # the untiered comparator: split the scrambled key space in key-ID
    # order (what a fixed Fast:Slow ratio gives you without tiering)
    untier_pattern = PatternEngine(mode="external").analyze(
        trace, external_order=np.arange(trace.n_keys, dtype=np.int64)
    )
    untiered_curve = EstimateEngine().estimate(tiered.baselines,
                                               untier_pattern)
    # validate the estimate on the re-ordered key space too
    points = measure_curve(
        trace, tiered.pattern.order, RedisLike,
        prefix_counts(trace.n_keys, 9), client=client,
    )
    errors = estimate_errors(tiered.curve, points)
    return untiered_curve, tiered, errors


def test_fig8f_mnemot_estimate(benchmark, paper_traces, bench_client):
    untiered, tiered, errors = benchmark.pedantic(
        run, args=(paper_traces, bench_client),
        rounds=1, iterations=1,
    )

    ideal = float(tiered.curve.throughput_ops_s[-1])
    rows = []
    for ratio_label, ratio in (("70:30", 0.7), ("50:50", 0.5)):
        k_untier = untiered.keys_for_ratio(ratio)
        k_tiered = tiered.curve.keys_for_ratio(ratio)
        thr_untier = float(untiered.throughput_ops_s[k_untier])
        thr_tiered = float(tiered.curve.throughput_ops_s[k_tiered])
        cost = float(tiered.curve.cost_factor[k_tiered])
        rows.append((
            ratio_label, pct(cost),
            f"{thr_untier:,.0f}", f"{thr_tiered:,.0f}",
            pct(thr_tiered / thr_untier - 1),
            pct(1 - thr_tiered / ideal),
        ))
    emit("fig8f_mnemot", table(
        ["Fast:Slow", "cost", "untier ops/s", "tiered ops/s",
         "tiering gain", "below ideal"], rows,
    ) + [
        f"MnemoT estimate median |error|: "
        f"{np.median(np.abs(errors)):.4f}%",
        "paper: at 70:30 (76% cost) tiering buys ~6%, ~7% below ideal; "
        "50:50 (52% cost) meets a 10% SLO",
    ])

    assert np.median(np.abs(errors)) < 0.3  # the model holds post-reorder
    k70 = tiered.curve.keys_for_ratio(0.7)
    thr70 = float(tiered.curve.throughput_ops_s[k70])
    untier70 = float(untiered.throughput_ops_s[untiered.keys_for_ratio(0.7)])
    gain70 = thr70 / untier70 - 1
    assert 0.01 < gain70 < 0.20                    # tiering gain (paper ~6 %)
    assert 1 - thr70 / ideal < 0.10                # within ~7 % of ideal
    k50 = tiered.curve.keys_for_ratio(0.5)
    assert (float(tiered.curve.throughput_ops_s[k50]) >= 0.9 * ideal)
