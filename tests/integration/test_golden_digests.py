"""Golden digests: the simulator's numbers must not drift a bit silently.

``golden_digests.json`` holds, for the eight presets at full scale and
fixed seeds, the sha256 of each trace's content fingerprint and — per
{Mnemo, MnemoT} x LLC {off, on} — of the two measured baselines plus
the estimate curve's bytes.  A kernel, generator or pattern change that
claims bit-identity is judged against this file *without regenerating
it*; a change that moves results on purpose regenerates it in the same
commit (``PYTHONPATH=src python tests/integration/test_golden_digests.py``)
and says so.

The file was last regenerated when the kernel's sums became exact (each
term rounded to one power-of-two quantum per kernel, so a placement
measures the same bits alone or in a family): every ``"trace"`` entry
stayed byte-equal and every report entry moved, runtimes and averages
by at most 8e-14 and the noisy percentiles by at most 1.2e-13.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Mnemo, MnemoT
from repro.faults import parse_faults
from repro.kvstore import DynamoLike, MemcachedLike, RedisLike
from repro.runner.fingerprint import trace_fingerprint
from repro.ycsb import TABLE_III_WORKLOADS, YCSBClient, generate_trace
from repro.ycsb.presets import EXTRA_WORKLOADS

GOLDEN = Path(__file__).with_name("golden_digests.json")
PRESETS = (*TABLE_III_WORKLOADS, *EXTRA_WORKLOADS)
ENGINES = (RedisLike, MemcachedLike, DynamoLike)
CLIENT_SEED = 77


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def preset_digests(index: int) -> dict[str, str]:
    """The digests of preset *index*: its trace and its four reports."""
    spec = PRESETS[index].with_seed(1000 + index)
    trace = generate_trace(spec)
    out = {"trace": _sha(trace_fingerprint(trace).encode())}
    for cls in (Mnemo, MnemoT):
        for use_llc in (False, True):
            client = YCSBClient(repeats=3, seed=CLIENT_SEED, use_llc=use_llc)
            report = cls(
                engine_factory=ENGINES[index % len(ENGINES)], client=client,
            ).profile(trace, accuracy="simulate")
            baselines, curve = report.baselines, report.curve
            out[f"{cls.__name__}/llc={'on' if use_llc else 'off'}"] = _sha(
                repr((baselines.fast, baselines.slow)).encode(),
                *(
                    np.ascontiguousarray(arr).view(np.uint8).data
                    for arr in (curve.order, curve.fast_bytes,
                                curve.cost_factor, curve.runtime_ns)
                ),
            )
    return out


@pytest.mark.parametrize(
    "index", range(len(PRESETS)), ids=[spec.name for spec in PRESETS],
)
def test_preset_matches_golden(index):
    golden = json.loads(GOLDEN.read_text())
    assert preset_digests(index) == golden[PRESETS[index].name]


#: The analytic (sigma 0) profiles of :func:`analytic_digest`.  Their
#: percentiles are exact order statistics, so no change to how the
#: noise mixture is solved may move them; unlike GOLDEN, regenerating
#: does not rewrite this.  Last re-pinned when the kernel's sums became
#: exact (one quantum per kernel): every percentile, ``curve.order``,
#: ``fast_bytes`` and ``cost_factor`` stayed bit-equal, and only the
#: runtimes and averages moved (by at most 5e-15).
ANALYTIC_DIGEST = (
    "332ea4e66297ceafe252afc9c4846c73526ff735c14b205a9463853b56c8dc09"
)


def analytic_digest() -> str:
    """One digest over the Table III presets (downsized) profiled with
    ``accuracy="analytic"``: LLC off, LLC on, and under spikes and
    jitter faults."""
    h = hashlib.sha256()
    for index, spec in enumerate(TABLE_III_WORKLOADS):
        trace = generate_trace(
            spec.scaled(n_keys=2000, n_requests=20000).with_seed(500 + index)
        )
        for use_llc, faults in ((False, None), (True, None),
                                (False, parse_faults("spikes,jitter"))):
            client = YCSBClient(repeats=3, seed=9, use_llc=use_llc,
                                faults=faults)
            report = Mnemo(
                engine_factory=ENGINES[index % len(ENGINES)], client=client,
            ).profile(trace, accuracy="analytic")
            baselines, curve = report.baselines, report.curve
            h.update(repr((baselines.fast, baselines.slow)).encode())
            for arr in (curve.order, curve.fast_bytes, curve.cost_factor,
                        curve.runtime_ns):
                h.update(np.ascontiguousarray(arr).view(np.uint8).data)
    return h.hexdigest()


def test_analytic_profiles_match_golden():
    assert analytic_digest() == ANALYTIC_DIGEST


def test_golden_covers_every_preset():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(spec.name for spec in PRESETS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {spec.name: preset_digests(i) for i, spec in enumerate(PRESETS)},
        indent=2, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
