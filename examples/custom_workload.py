"""Custom workloads — bring your own trace, downsample it, profile it.

Mnemo's input is just a key sequence with request types plus the
key-value sizes (Section IV, "Interfacing with Mnemo").  This example:

1. builds a custom workload descriptor (a photo-serving cache with a
   daily-peak hotspot and 20 % updates), saves it to the CSV format and
   loads it back — the round trip a real user would perform;
2. downsamples it 10x (Section V-A) and shows the key distribution is
   preserved;
3. profiles both the full and the downsampled versions and compares the
   sizing conclusions.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

from repro import MnemoT, RedisLike
from repro.ycsb import (
    downsample,
    generate_trace,
    load_trace_csv,
    save_trace_csv,
)
from repro.ycsb.distributions import DistributionSpec
from repro.ycsb.sampling import distribution_distance
from repro.ycsb.sizes import SizeModel
from repro.ycsb.workload import WorkloadSpec


def build_custom_workload():
    """A photo cache: 30 % hot keys get 85 % of traffic, 80:20 R:W."""
    spec = WorkloadSpec(
        name="photo_cache",
        distribution=DistributionSpec(
            name="hotspot", hot_data_fraction=0.3, hot_op_fraction=0.85
        ),
        read_fraction=0.8,
        size_model=SizeModel(name="photos", median_bytes=60_000, sigma=0.5),
        n_keys=10_000,
        n_requests=100_000,
        seed=99,
    )
    return generate_trace(spec)


def main() -> None:
    trace = build_custom_workload()

    # -- CSV round trip (the real user interface) -------------------------
    with tempfile.TemporaryDirectory() as tmp:
        req_path, data_path = save_trace_csv(trace, tmp)
        print(f"saved descriptor: {Path(req_path).name}, "
              f"{Path(data_path).name}")
        descriptor = load_trace_csv(req_path, data_path)
    print(f"loaded {descriptor.n_requests:,} requests over "
          f"{descriptor.n_keys:,} keys "
          f"({descriptor.dataset_bytes / 1e6:.0f} MB dataset)\n")

    # -- downsampling ------------------------------------------------------
    down = downsample(trace, factor=10, seed=1)
    ks = distribution_distance(trace, down)
    print(f"downsampled 10x: {down.n_requests:,} requests, "
          f"KS distance to full distribution = {ks:.4f}\n")

    # -- profile both ------------------------------------------------------
    mnemot = MnemoT(engine_factory=RedisLike)
    for label, workload in (("full", trace), ("1/10 sample", down)):
        report = mnemot.profile(workload)
        choice = report.choose(max_slowdown=0.10)
        print(f"[{label}]")
        print(f"  Fast/Slow throughput gap : "
              f"{report.baselines.throughput_gap:.2f}x")
        print(f"  sizing @10% SLO          : "
              f"{choice.capacity_ratio:.0%} FastMem, "
              f"cost {choice.cost_factor:.0%} of FastMem-only\n")

    print("the 10x sample reaches the same sizing conclusion at a tenth "
          "of the profiling time.")


if __name__ == "__main__":
    main()
