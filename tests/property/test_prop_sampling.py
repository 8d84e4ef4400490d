"""Property tests for the cold profile's three serial steps.

Each fast form is checked against the form it replaced, which is kept
here as the oracle:

- ``_inverse_cdf``'s bucket sampler against ``np.searchsorted(cdf, u,
  "right")`` over generated CDFs: zero-mass runs, one key, key spaces
  up to 2**17, interior cumulative sums an ulp above 1.0, ``u = 0`` and
  ``u`` on every step and on its ``nextafter`` neighbours;
- ``derive_seed``'s one uint32 array against the ``SeedSequence`` list
  it stands for;
- ``Trace.per_key_counts``'s one ``bincount`` against a ``bincount``
  per operation type.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.rng import DEFAULT_SEED, derive_seed
from repro.ycsb.distributions import _inverse_cdf
from repro.ycsb.workload import Trace

ABOVE_ONE = np.nextafter(1.0, 2.0)


@st.composite
def cdfs(draw):
    """A cumulative sum as the samplers build one, with its edge cases."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**17)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a power spreads the masses over many orders of magnitude, so some
    # keys are far lighter than one bucket
    w = rng.random(n) ** draw(st.sampled_from([1.0, 4.0, 32.0]))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        w[start:start + draw(st.integers(1, max(1, n // 4)))] = 0.0
    if not w.any():
        w[-1] = 1.0
    cdf = np.cumsum(w / w.sum())
    if n > 2 and draw(st.booleans()):
        # rounding can leave an interior sum an ulp above the pinned end
        cdf[draw(st.integers(1, n - 2)):-1] = ABOVE_ONE
    return cdf


def draws_for(cdf, seed):
    """Uniforms, 0.0, every step below 1.0 and both its neighbours."""
    steps = cdf[cdf < 1.0]
    u = np.concatenate((
        [0.0], np.random.default_rng(seed).random(500), steps,
        np.nextafter(steps, -1.0), np.nextafter(steps, 2.0),
    ))
    return u[(u >= 0.0) & (u < 1.0)]


class TestBucketSampler:
    @given(cdf=cdfs(), seed=st.integers(0, 2**32 - 1))
    @example(cdf=np.array([1.0]), seed=0)
    @example(cdf=np.array([0.0, 0.0, 0.5, 0.5, 1.0]), seed=1)
    @example(cdf=np.array([0.25, ABOVE_ONE, ABOVE_ONE, 1.0]), seed=2)
    # 2**17 equal keys: every step sits exactly on a bucket's floor
    @example(cdf=np.cumsum(np.full(2**17, 2.0**-17)), seed=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_searchsorted(self, cdf, seed):
        pinned = cdf.copy()
        pinned[-1] = 1.0
        u = draws_for(pinned, seed)
        expect = np.searchsorted(pinned, u, side="right")
        got = _inverse_cdf(cdf.copy(), u.copy())
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)


def list_entropy_seed(seed, label):
    """``derive_seed`` as written before it built its entropy array."""
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**31 - 1))
    else:
        base = DEFAULT_SEED if seed is None else int(seed)
    mix = np.random.SeedSequence([base, *label.encode("utf-8")])
    return int(mix.generate_state(1, dtype=np.uint32)[0])


LABELS = ("", "trending/keys", "0123456789abcdef" * 4 + "/run2",
          "café/ключ/鍵/🔑")


class TestDeriveSeed:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("label", LABELS)
    def test_matches_list_entropy(self, seed, label):
        assert derive_seed(seed, label) == list_entropy_seed(seed, label)

    @pytest.mark.parametrize("label", LABELS)
    def test_generator_seed_matches_list_entropy(self, label):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert derive_seed(a, label) == list_entropy_seed(b, label)
        # both drew the same one integer from their generator
        assert a.random() == b.random()

    @given(seed=st.integers(0, 2**96), label=st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_any_seed_and_label(self, seed, label):
        assert derive_seed(seed, label) == list_entropy_seed(seed, label)

    def test_negative_seed_is_refused_as_before(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "x")
        with pytest.raises(ValueError):
            list_entropy_seed(-1, "x")


@st.composite
def traces(draw):
    n_keys = draw(st.integers(1, 50))
    n_req = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = draw(st.sampled_from(["read", "write", "mixed"]))
    is_read = {
        "read": np.ones(n_req, dtype=bool),
        "write": np.zeros(n_req, dtype=bool),
        "mixed": rng.random(n_req) < 0.5,
    }[mix]
    return Trace(
        name="prop", keys=rng.integers(0, n_keys, n_req),
        is_read=is_read, record_sizes=np.ones(n_keys, dtype=np.int64),
    )


class TestPerKeyCounts:
    @given(trace=traces())
    @example(trace=Trace(name="empty", keys=np.empty(0, dtype=np.int64),
                         is_read=np.empty(0, dtype=bool),
                         record_sizes=np.ones(3, dtype=np.int64)))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_bincount_per_operation(self, trace):
        n = trace.n_keys
        expect = (
            np.bincount(trace.keys[trace.is_read], minlength=n),
            np.bincount(trace.keys[~trace.is_read], minlength=n),
        )
        for got, want in zip(trace.per_key_counts(), expect):
            assert np.array_equal(got, want)
            assert got.dtype == np.int64 and got.size == n
            assert got.flags.c_contiguous and not got.flags.writeable
