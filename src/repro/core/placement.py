"""The Placement Engine.

"Takes the selected key tiering ... and statically places the key-value
pairs to the corresponding FastServer and SlowServer, prior to the
actual workload execution" (Section IV).  Static allocation only — no
dynamic migration, exactly as the paper states.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlacementError
from repro.kvstore.server import EngineFactory, HybridDeployment
from repro.memsim.system import HybridMemorySystem
from repro.core.estimate import EstimateCurve
from repro.core.slo import SizingChoice


class PlacementEngine:
    """Realises a chosen key tiering as a two-server deployment."""

    def __init__(self, engine_factory: EngineFactory):
        self.engine_factory = engine_factory

    def place(
        self,
        record_sizes: np.ndarray,
        order: np.ndarray,
        n_fast_keys: int,
        system: HybridMemorySystem,
    ) -> HybridDeployment:
        """Deploy with the first *n_fast_keys* of *order* on FastMem.

        Raises
        ------
        PlacementError
            If the prefix's payload does not fit the FastMem node.
        CapacityError
            If the suffix's payload does not fit the SlowMem node.
        """
        record_sizes = np.asarray(record_sizes, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
        if order.size != record_sizes.size:
            raise PlacementError("order must cover the whole key space")
        if not 0 <= n_fast_keys <= order.size:
            raise PlacementError(
                f"n_fast_keys must be in [0, {order.size}], got {n_fast_keys}"
            )
        fast_keys = order[:n_fast_keys]
        payload = int(record_sizes[fast_keys].sum())
        if payload > system.fast.capacity_bytes:
            raise PlacementError(
                f"FastMem prefix needs {payload} B payload but the node has "
                f"{system.fast.capacity_bytes} B"
            )
        return HybridDeployment(
            self.engine_factory, system, record_sizes, fast_keys=fast_keys
        )

    def realize(
        self,
        curve: EstimateCurve,
        choice: SizingChoice,
        record_sizes: np.ndarray,
        system: HybridMemorySystem,
    ) -> HybridDeployment:
        """Deploy the configuration selected by an SLO query."""
        if choice.workload != curve.workload:
            raise PlacementError(
                f"choice is for workload {choice.workload!r}, curve for "
                f"{curve.workload!r}"
            )
        return self.place(record_sizes, curve.order, choice.n_fast_keys, system)
