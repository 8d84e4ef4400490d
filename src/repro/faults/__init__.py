"""Deterministic fault injection for the measurement pipeline.

Two halves (see ``docs/FAULTS.md``):

- :mod:`repro.faults.models` — seeded *device/measurement* fault models
  (NVM latency spikes, bandwidth ramps, node-offline windows, jitter
  bursts) composable onto the memsim timing path.  Schedules are a pure
  function of (experiment fingerprint, fault spec), so faulty runs stay
  bit-reproducible and cacheable.
- :mod:`repro.faults.chaos` — *pipeline* chaos: deterministic worker
  kills, cache corruption, and control-socket attacks (slowloris,
  request floods) used to exercise the resilient runner, the cache's
  checksum quarantine, and the served advisor's request plane.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "chaos": [
        "CHAOS_MODES", "ChaosPlan", "corrupt_store_rows",
        "request_flood", "slowloris_probe",
    ],
    "models": [
        "FAULT_KINDS", "BandwidthDegradation", "FaultSpec", "FaultTimeline",
        "JitterBursts", "LatencySpikes", "NodeOffline", "parse_faults",
    ],
})
