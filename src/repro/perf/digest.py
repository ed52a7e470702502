"""Content digests of simulation results.

A digest is the content hash of a :class:`SimulationResult` with the
``runtime_*`` extras stripped — those wall-clock gauges are the only
fields that legitimately vary between repeats of the same spec (see
:mod:`repro.analysis.parallel`). Everything else is a pure function of
the spec, so equal digests mean byte-identical results.

Digests are versioned independently of the cache's ``CODE_VERSION``:
the golden files pin *behaviour across optimizations*, which must
survive cache-key bumps for unrelated accounting changes.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.cache import content_key
from repro.sim.runner import SimulationResult

#: Bump only when the digest *algorithm* changes, never for code changes
#: that are supposed to keep results identical.
DIGEST_VERSION = "result-digest-1"


def strip_runtime(result: SimulationResult) -> SimulationResult:
    """Copy of ``result`` without the wall-clock ``runtime_*`` extras."""
    extras = {k: v for k, v in result.extras.items() if not k.startswith("runtime_")}
    return dataclasses.replace(result, extras=extras)


def result_digest(result: SimulationResult) -> str:
    """Stable hex digest of everything deterministic in ``result``."""
    return content_key(strip_runtime(result), version=DIGEST_VERSION)
