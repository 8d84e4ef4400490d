"""Deterministic random-number utilities.

Every stochastic component in the library accepts either a ``seed`` integer
or an existing :class:`numpy.random.Generator`.  Routing everything through
:func:`ensure_rng` / :func:`spawn` keeps experiments bit-reproducible while
letting independent subsystems (workload generation, timing noise, sampling)
draw from decorrelated streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ConfigurationError

SeedLike = Union[int, np.random.Generator, None]

#: Default seed used when a caller passes ``None``.  Fixed so that example
#: scripts and benchmarks are reproducible out of the box.
DEFAULT_SEED = 0x4D6E_656D  # "Mnem"


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` maps to :data:`DEFAULT_SEED`; an existing generator is passed
    through unchanged (so callers can share a stream deliberately).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def check_seed(seed: SeedLike) -> None:
    """Refuse a negative seed when configured, not at NumPy's first draw."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigurationError(
            f"seed must be a non-negative integer or None, got {seed}"
        )


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split *rng* into *n* statistically independent child generators."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def derive_seed(seed: SeedLike, label: str) -> int:
    """Derive a stable integer sub-seed from *seed* and a string *label*.

    Used where a component needs a plain ``int`` seed (e.g. to store in a
    config dataclass) rather than a generator.  The derivation hashes the
    label into the seed material so different labels give different streams.
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**31 - 1))
    else:
        base = DEFAULT_SEED if seed is None else int(seed)
    mix = np.random.SeedSequence([base, *label.encode("utf-8")])
    return int(mix.generate_state(1, dtype=np.uint32)[0])


def backoff_delay(
    label: str,
    attempt: int,
    base_s: float,
    factor: float,
    jitter: float = 0.25,
    cap_s: float = float("inf"),
) -> float:
    """Sleep before retry *attempt* (1-based) of whatever *label* names.

    ``min(base_s * factor**(attempt - 1), cap_s) * (1 + jitter * u)`` with
    ``u`` in [0, 1) hashed from *label* rather than drawn from wall-clock
    entropy, so every retry schedule in the library (experiments, client
    requests, daemon restarts, store locks) replays exactly.
    """
    delay = min(base_s * factor ** (attempt - 1), cap_s)
    u = derive_seed(None, label) / 2.0**32
    return delay * (1.0 + jitter * u)
