"""Tests for repro.rng."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.rng import (
    DEFAULT_SEED,
    backoff_delay,
    derive_seed,
    ensure_rng,
    spawn,
)


class TestEnsureRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None).integers(0, 1 << 30, 10)
        b = ensure_rng(DEFAULT_SEED).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_int_seed_deterministic(self):
        assert np.array_equal(
            ensure_rng(123).random(5), ensure_rng(123).random(5)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            ensure_rng(1).random(5), ensure_rng(2).random(5)
        )

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g


class TestSpawn:
    def test_spawn_count(self):
        children = spawn(ensure_rng(5), 4)
        assert len(children) == 4

    def test_spawn_streams_independent(self):
        a, b = spawn(ensure_rng(5), 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(5), -1)

    def test_spawn_deterministic(self):
        a1, _ = spawn(ensure_rng(5), 2)
        a2, _ = spawn(ensure_rng(5), 2)
        assert np.array_equal(a1.random(8), a2.random(8))


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_labels_decorrelate(self):
        assert derive_seed(42, "keys") != derive_seed(42, "ops")

    def test_seeds_decorrelate(self):
        assert derive_seed(1, "keys") != derive_seed(2, "keys")

    def test_none_seed_uses_default(self):
        assert derive_seed(None, "x") == derive_seed(DEFAULT_SEED, "x")

    def test_returns_plain_int(self):
        assert isinstance(derive_seed(7, "y"), int)

    def test_module_exports(self):
        assert hasattr(rng_mod, "SeedLike")


class TestBackoffDelay:
    """One formula, four policies: the schedules the per-site copies gave.

    Expected values were computed at the commit before the formula moved
    here (each policy then spelled it privately), so every sleep is
    pinned bit for bit.
    """

    def test_grows_then_caps_with_jitter_on_top(self):
        delays = [
            backoff_delay(f"x/{k}", k, 0.1, 2.0, cap_s=0.3)
            for k in range(1, 6)
        ]
        for k, delay in enumerate(delays, start=1):
            floor = min(0.1 * 2.0 ** (k - 1), 0.3)
            assert floor <= delay < floor * 1.25
        assert backoff_delay("x/1", 1, 0.1, 2.0, jitter=0.0) == 0.1

    def test_retry_policy_schedule(self):
        from repro.runner.outcome import RetryPolicy

        assert [RetryPolicy().backoff_s(k, label="exp")
                for k in range(1, 5)] == [
            0.0525301043788204, 0.10850381007767283,
            0.24378873767564074, 0.41486885466147216,
        ]
        wide = RetryPolicy(jitter=0.5, backoff_factor=3.0)
        assert [wide.backoff_s(k, label="exp") for k in range(1, 5)] == [
            0.0550602087576408, 0.1755114302330185,
            0.6470493195403834, 1.450364768964937,
        ]

    def test_client_policy_schedule(self):
        from repro.service.client import ClientPolicy

        assert [ClientPolicy().backoff_s(k, label="cli")
                for k in range(1, 5)] == [
            0.05370802087127231, 0.10328124650986865,
            0.2160284806857817, 0.45617077874485407,
        ]
        capped = ClientPolicy(backoff_cap_s=0.15)
        assert [capped.backoff_s(k, label="cli") for k in range(1, 5)] == [
            0.05370802087127231, 0.10328124650986865,
            0.16202136051433627, 0.17106404202932027,
        ]

    def test_restart_policy_schedule(self):
        from repro.service.supervisor import RestartPolicy

        assert [RestartPolicy().backoff_s(k, label="svc")
                for k in range(1, 5)] == [
            0.11624893989646808, 0.24079965912969784,
            0.4204877637792379, 0.8218891243916006,
        ]

    def test_store_lock_schedule(self):
        from repro.store.db import Database

        db = Database("/tmp/pin.db")  # the path seeds the jitter; never opened
        assert [db._backoff_s(k) for k in range(1, 5)] == [
            0.011826915318961255, 0.021872740810504183,
            0.04607792118331418, 0.08845233560539782,
        ]
