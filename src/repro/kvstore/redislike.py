"""Redis-like engine.

A single-threaded event-loop store over one hash index.  Reads copy the
value once into the reply buffer (``read_passes = 1``); writes retire
mostly off the critical path (``write_passes = 0.3``).
"""

from __future__ import annotations

from repro.kvstore.base import KVEngine
from repro.kvstore.profiles import REDIS_PROFILE


class RedisLike(KVEngine):
    """The Redis-shaped engine (see module docstring)."""

    default_profile = REDIS_PROFILE
