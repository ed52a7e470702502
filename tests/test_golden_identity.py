"""Byte-identity pins for the golden scenarios.

``tests/golden/golden_results.json`` records the result digest of each
golden run at the current ``CODE_VERSION``. These tests recompute the
digests — serially and through the multiprocess executor — and require
exact equality, which is what lets performance work touch the hot path
with confidence: any change to a metric, a float operation order, an RNG
draw, or an event ordering shows up here as a digest mismatch.

Regenerating the pins (``repro perf --write-golden``) is only legitimate
when a change *intends* to alter results, in which case ``CODE_VERSION``
must be bumped too (the CACHE002 guard enforces that coupling).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cache import CODE_VERSION
from repro.analysis.parallel import execute, run_spec
from repro.fleet.executor import run_fleet
from repro.fleet.spec import FleetSpec
from repro.perf.digest import DIGEST_VERSION, fleet_result_digest, result_digest
from repro.perf.scenarios import golden_specs
from repro.serve.daemon import run_replay_quiet
from repro.sim.runner import ArraySimulation

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_results.json"


def _digest(spec, jobs: int = 1) -> str:
    """Digest one golden spec, single-array or fleet."""
    if isinstance(spec, FleetSpec):
        return fleet_result_digest(run_fleet(spec, jobs=jobs))
    return result_digest(run_spec(spec))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN_PATH.read_text())


def test_pin_file_matches_current_versions(pinned):
    assert pinned["code_version"] == CODE_VERSION, (
        "CODE_VERSION changed without regenerating the golden pins; run "
        "`repro perf --write-golden tests/golden/golden_results.json`"
    )
    assert pinned["digest_version"] == DIGEST_VERSION


def test_pin_file_covers_every_golden_spec(pinned):
    assert sorted(pinned["digests"]) == sorted(golden_specs())


def test_golden_results_are_byte_identical_serial(pinned):
    specs = golden_specs()
    for name in sorted(specs):
        digest = _digest(specs[name])
        assert digest == pinned["digests"][name], (
            f"{name}: result digest drifted — the simulator's output "
            "changed. If intentional, bump CODE_VERSION and regenerate "
            "the pins; if not, this is a correctness regression."
        )


def test_golden_results_are_byte_identical_parallel(pinned):
    """jobs=2 must reproduce the same bytes as jobs=1 (and the pins)."""
    specs = golden_specs()
    names = sorted(n for n in specs if not isinstance(specs[n], FleetSpec))
    results = execute([specs[n] for n in names], jobs=2)
    for name, result in zip(names, results):
        assert result_digest(result) == pinned["digests"][name], (
            f"{name}: parallel execution produced different bytes"
        )


def test_golden_results_are_byte_identical_through_serve(pinned, tmp_path):
    """``repro serve --accel 0`` must reproduce every single-array pin:
    each spec is built the way ``run_spec`` builds it, then replayed
    through the daemon."""
    specs = golden_specs()
    for name in sorted(n for n in specs if not isinstance(specs[n], FleetSpec)):
        spec = specs[name]
        trace = spec.trace.build()
        policy, array_config = spec.policy.build(trace, spec.array)
        sim = ArraySimulation(
            trace=trace,
            array_config=array_config,
            policy=policy,
            goal_s=spec.goal_s,
            window_s=spec.window_s,
            keep_latency_samples=spec.keep_latency_samples,
            observe=spec.observe,
            faults=spec.faults,
        )
        served = run_replay_quiet(sim, tmp_path / "ctl.sock")
        assert result_digest(served) == pinned["digests"][name], (
            f"{name}: serve replay produced different bytes"
        )


def test_golden_fleet_is_byte_identical_parallel(pinned):
    """The fleet pin must reproduce with sharded (jobs=2) execution."""
    specs = golden_specs()
    fleets = {n: s for n, s in specs.items() if isinstance(s, FleetSpec)}
    assert fleets, "golden set lost its fleet spec"
    for name, spec in sorted(fleets.items()):
        assert _digest(spec, jobs=2) == pinned["digests"][name], (
            f"{name}: sharded fleet execution produced different bytes"
        )
