"""Memcached-like engine.

Records live in slab chunks behind a hash index.  The profile makes it
the least SlowMem-sensitive engine: its access path overlaps memory
traffic almost entirely (paper Figs 8b, 9 show Memcached "barely gets
influenced").
"""

from __future__ import annotations

from repro.kvstore.base import KVEngine
from repro.kvstore.profiles import MEMCACHED_PROFILE


class MemcachedLike(KVEngine):
    """The memcached-shaped engine (see module docstring)."""

    default_profile = MEMCACHED_PROFILE
