"""Open-loop queueing simulation for tail latency (extension).

The paper reports tail latencies (Figs 8d/8e) as *measured only*: "the
simple analytical model it uses is not sufficient to capture the
variabilities of the tail latencies".  This package supplies the
substrate that statement implies — an open-loop FIFO queueing simulator
over the store's service process — so the claim can be demonstrated:
average latency stays analytically predictable while the tail blows up
non-linearly as load approaches saturation.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "openloop": ["OpenLoopResult", "simulate_open_loop", "tail_blowup_ratio"],
})
