"""Discrete-event simulation substrate.

This package provides the engine that every other subsystem runs on:

* :mod:`repro.sim.engine` -- the event loop (a classic binary-heap
  discrete-event scheduler with one kind of event).
* :mod:`repro.sim.request` -- the I/O request model shared by traces,
  disks and policies.
* :mod:`repro.sim.stats` -- online statistics used for response-time and
  utilization accounting.
* :mod:`repro.sim.runner` -- the orchestration layer that replays a trace
  against a disk array under a power-management policy and collects the
  metrics every experiment reports.
"""

from repro.sim.engine import Engine
from repro.sim.request import IoKind, Request
from repro.sim.runner import ArraySimulation, SimulationResult
from repro.sim.stats import DeficitTracker, LatencyRecorder, OnlineStats, TimeWeighted

__all__ = [
    "Engine",
    "IoKind",
    "Request",
    "ArraySimulation",
    "SimulationResult",
    "OnlineStats",
    "LatencyRecorder",
    "TimeWeighted",
    "DeficitTracker",
]
