"""Byte-identity pins for the golden scenarios.

``tests/golden/golden_results.json`` records the result digest of each
golden run at the current ``CODE_VERSION``. These tests recompute the
digests — serially through the pin-regeneration command, through the
multiprocess executor, and through the serve daemon — and require exact
equality, which is what lets performance work touch the hot path with
confidence: any change to a metric, a float operation order, an RNG
draw, an event ordering or an emitted event shows up here as a digest
mismatch.

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
from repro.cli import main
from repro.perf.digest import DIGEST_VERSION, result_digest
from repro.perf.scenarios import golden_specs
from repro.serve.daemon import run_replay_quiet
from repro.sim.runner import ArraySimulation

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_results.json"


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


def test_golden_results_are_byte_identical_serial(pinned, tmp_path):
    """The pin-regeneration command, run serially, must rewrite the
    committed file exactly: header and every digest."""
    out = tmp_path / "g.json"
    assert main(["perf", "--write-golden", str(out)]) == 0
    written = json.loads(out.read_text())
    drifted = sorted(name for name, digest in pinned["digests"].items()
                     if written["digests"].get(name) != digest)
    assert not drifted, (
        f"{drifted}: result digest drifted — the simulator's output "
        "changed. If intentional, bump CODE_VERSION and regenerate "
        "the pins; if not, this is a correctness regression."
    )
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()


def test_golden_results_are_byte_identical_parallel(pinned):
    """jobs=2 must reproduce the same bytes as jobs=1 (and the pins)."""
    specs = golden_specs()
    names = sorted(specs)
    results = execute([specs[n] for n in names], jobs=2)
    for name, result in zip(names, results):
        assert result_digest(result) == pinned["digests"][name], (
            f"{name}: parallel execution produced different bytes"
        )


def test_golden_results_are_byte_identical_through_serve(pinned, tmp_path):
    """``repro serve --accel 0`` must reproduce every pin: each spec is
    built the way ``run_spec`` builds it, then replayed through the
    daemon."""
    specs = golden_specs()
    for name in sorted(specs):
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


def test_golden_observed_pins_the_event_stream():
    """``golden-observed`` is the pin on the obs event stream, so it must
    keep emitting the events a failure-and-boost run produces."""
    result = run_spec(golden_specs()["golden-observed"])
    kinds = {event.kind for event in result.events}
    assert kinds >= {
        "run_start", "epoch", "migration_planned", "migration_move",
        "disk_failed", "request_failed", "speed_transition",
        "rebuild_progress", "boost_enter", "run_end",
    }
