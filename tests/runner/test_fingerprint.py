"""Tests for experiment fingerprinting and canonicalisation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore import RedisLike
from repro.kvstore.server import HybridDeployment
from repro.memsim import HybridMemorySystem
from repro.runner.fingerprint import (
    array_digest,
    canonicalize,
    client_fingerprint,
    digest,
    experiment_fingerprint,
    experiment_fingerprint_parts,
    experiment_fingerprinter,
    trace_fingerprint,
    workload_fingerprint,
)
from repro.ycsb import YCSBClient, generate_trace


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    y: float


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize("a") == "a"
        assert canonicalize(None) is None
        assert canonicalize(True) is True

    def test_floats_are_exact(self):
        # repr round-trips doubles exactly; 0.1 + 0.2 != 0.3 must differ
        assert canonicalize(0.1 + 0.2) != canonicalize(0.3)

    def test_numpy_scalars_match_python(self):
        assert canonicalize(np.int64(5)) == canonicalize(5)
        assert canonicalize(np.float64(1.5)) == canonicalize(1.5)

    def test_dataclasses_include_type_and_fields(self):
        out = canonicalize(_Point(x=1, y=2.0))
        assert out["__dataclass__"] == "_Point"
        assert out["x"] == 1

    def test_mapping_order_does_not_matter(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_unsupported_type_raises(self):
        with pytest.raises(ConfigurationError):
            canonicalize(lambda: None)


class TestDigests:
    def test_array_digest_sensitive_to_content_and_dtype(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.astype(np.int32))
        assert array_digest(a) != array_digest(np.array([1, 2, 4]))

    def test_workload_fingerprint_changes_with_seed(self, small_spec):
        assert workload_fingerprint(small_spec) != workload_fingerprint(
            small_spec.with_seed(small_spec.seed + 1)
        )

    def test_spec_and_trace_fingerprints_are_stable(self, small_spec):
        assert workload_fingerprint(small_spec) == workload_fingerprint(
            small_spec
        )
        trace = generate_trace(small_spec)
        assert trace_fingerprint(trace) == trace_fingerprint(trace)

    def test_generator_seeded_client_rejected(self):
        client = YCSBClient(seed=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            client_fingerprint(client)


class TestExperimentFingerprint:
    @pytest.fixture
    def parts(self, small_trace):
        system = HybridMemorySystem.testbed()
        deployment = HybridDeployment.all_slow(
            RedisLike, system, small_trace.record_sizes
        )
        client = YCSBClient(seed=3)
        return small_trace, deployment, client

    def test_deterministic(self, parts):
        trace, deployment, client = parts
        td = trace_fingerprint(trace)
        assert experiment_fingerprint(td, deployment, client) == \
            experiment_fingerprint(td, deployment, client)

    def test_placement_changes_fingerprint(self, parts, small_trace):
        trace, slow, client = parts
        fast = HybridDeployment.all_fast(
            RedisLike, HybridMemorySystem.testbed(), small_trace.record_sizes
        )
        td = trace_fingerprint(trace)
        assert experiment_fingerprint(td, slow, client) != \
            experiment_fingerprint(td, fast, client)

    def test_client_settings_change_fingerprint(self, parts):
        trace, deployment, _ = parts
        td = trace_fingerprint(trace)
        assert experiment_fingerprint(td, deployment, YCSBClient(seed=3)) != \
            experiment_fingerprint(td, deployment, YCSBClient(seed=4))
        assert experiment_fingerprint(td, deployment, YCSBClient(seed=3)) != \
            experiment_fingerprint(
                td, deployment, YCSBClient(seed=3, repeats=5)
            )

    def test_parts_variant_matches_deployment_variant(self, parts):
        trace, deployment, client = parts
        td = trace_fingerprint(trace)
        record_sizes, fast_mask = deployment.placement_arrays()
        assert experiment_fingerprint(td, deployment, client) == \
            experiment_fingerprint_parts(
                td, deployment.profile, fast_mask,
                deployment.system, client,
            )


class TestExperimentFingerprinter:
    """The per-batch splice: the canonical JSON of everything but the
    placement built once, each placement's digest hashed into it."""

    @pytest.mark.parametrize("tiers", [2, 3])
    @pytest.mark.parametrize("faults", [None, "spikes,jitter"])
    def test_splice_equals_parts_on_random_placements(
        self, small_trace, tiers, faults,
    ):
        from repro.faults import parse_faults
        from repro.kvstore.profiles import profile_for
        from repro.memsim.kernel import (
            TIER_DTYPE, BatchKernel, check_placement,
        )
        from repro.runner.caching import PlacementBatch

        system = (HybridMemorySystem.testbed() if tiers == 2
                  else HybridMemorySystem.dram_nvm_far())
        client = YCSBClient(
            seed=3, faults=None if faults is None else parse_faults(faults),
        )
        profile = profile_for("redis")
        td = trace_fingerprint(small_trace)
        splice = experiment_fingerprinter(td, profile, system, client)
        kernel = BatchKernel(client, small_trace, profile, system)
        batch = PlacementBatch(client, small_trace, profile, system)
        rng = np.random.default_rng(tiers)
        n = small_trace.n_keys
        for _ in range(20):
            tier = rng.integers(0, tiers, n).astype(TIER_DTYPE)
            for spelling in (tier, tier == 0):
                placement = check_placement(spelling, n, tiers)
                want = experiment_fingerprint_parts(
                    td, profile, placement, system, client,
                )
                assert splice(placement) == want
                assert kernel.fingerprint(spelling) == want
                assert batch.fingerprint(spelling) == want
