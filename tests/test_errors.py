"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.CapacityError,
        errors.AllocationError,
        errors.KeyNotFoundError,
        errors.ConfigurationError,
        errors.WorkloadError,
        errors.EstimateError,
        errors.PlacementError,
        errors.PricingError,
        errors.FaultError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_key_not_found_is_also_keyerror(self):
        assert issubclass(errors.KeyNotFoundError, KeyError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.CapacityError("full")

    @pytest.mark.parametrize("exc", [errors.FaultError])
    def test_new_fault_errors_catchable_as_base(self, exc):
        with pytest.raises(errors.ReproError):
            raise exc("boom")
