"""Engine interface shared by the three key-value stores.

An engine is its calibrated :class:`~repro.kvstore.profiles.EngineProfile`:
the CPU path, metadata bytes and read/write passes that set a store's
SlowMem sensitivity (docs/CALIBRATION.md).  Every measured number goes
through the batch kernel, which reads only that profile and a
deployment's placement arrays, so an engine carries nothing else.

Engines keep the ``factory(fast, slow)`` constructor that every
``engine_factory`` caller uses (``Mnemo(engine_factory=RedisLike)``).
"""

from __future__ import annotations

from repro.kvstore.profiles import EngineProfile
from repro.memsim.node import MemoryNode


class KVEngine:
    """Base class of the simulated key-value store engines.

    Parameters
    ----------
    fast, slow:
        The memory nodes of the deployment (the ``EngineFactory``
        contract; the profile does not depend on them).
    profile:
        The engine's cost model; defaults to the class's calibrated one.
    """

    default_profile: EngineProfile

    def __init__(
        self, fast: MemoryNode, slow: MemoryNode,
        profile: EngineProfile | None = None,
    ):
        self.profile = profile if profile is not None else self.default_profile
