"""The golden (byte-identity) run recipes and the pin writer.

:func:`golden_specs` names a small set of
:class:`~repro.analysis.parallel.RunSpec` recipes whose result digests
are pinned by ``tests/golden/golden_results.json`` and must survive any
performance work unchanged. Each recipe runs through the exact stack a
real experiment uses (trace generated or imported in place, policy
built fresh per run — policies are stateful). :func:`write_golden`
regenerates the pin file (``repro perf --write-golden PATH``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.atomicio import atomic_write
from repro.analysis.cache import CODE_VERSION
from repro.analysis.experiments import default_array_config
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, run_spec
from repro.disks.array import ArrayConfig
from repro.faults.plan import DiskFailure, FaultPlan, SlowDiskFault, TransientFault
from repro.perf.digest import DIGEST_VERSION, result_digest
from repro.traces.ingest import IngestOptions
from repro.traces.synthetic import FlashCrowdConfig, SyntheticConfig, WriteBurstConfig

#: Array shape shared by every golden recipe: small enough to generate
#: quickly, wide enough that placement/queueing behave like the paper's.
NUM_DISKS = 8
NUM_EXTENTS = 800

#: Fixed response-time goal for the Hibernator recipes. A constant
#: (rather than a Base-derived goal) keeps each recipe self-contained
#: and its digest independent of any other run.
GOAL_S = 0.03

#: Packaged MSR-Cambridge-style sample replayed by ``golden-imported``
#: (and by CI's trace-ingest smoke). ~5900 requests over 120 s on a
#: 2000-extent volume, deterministic by construction (see docs/traces.md).
MSR_FIXTURE = Path(__file__).parent / "data" / "msr-sample.csv.gz"


def _array() -> ArrayConfig:
    return default_array_config(num_disks=NUM_DISKS, num_extents=NUM_EXTENTS)


def _golden_trace() -> TraceSpec:
    return TraceSpec.from_generator(
        "synthetic",
        SyntheticConfig(
            name="golden-synth",
            duration=60.0,
            rate=60.0,
            num_extents=NUM_EXTENTS,
            zipf_theta=0.9,
            seed=23,
        ),
    )


def golden_specs() -> dict[str, RunSpec]:
    """The digest-pinned run recipes, by name.

    Small on purpose (they run inside the tier-1 test suite) but chosen
    to cover every accounting surface performance work touches: plain
    replay, Hibernator control flow, fault injection with retries, the
    time-series sampler (``window_s``), the no-retained-samples
    percentile path, (``golden-observed``) the observability event
    stream through a disk failure, rebuild, failed requests and a boost,
    and (``golden-imported`` / ``golden-flashcrowd`` /
    ``golden-writeburst``) the ingest pipeline and the bursty scenario
    generators.
    """
    return {
        "golden-base": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            window_s=10.0,
        ),
        "golden-hibernator": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("hibernator", epoch_seconds=20.0),
            goal_s=GOAL_S,
            window_s=10.0,
        ),
        "golden-observed": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("hibernator", epoch_seconds=20.0),
            goal_s=GOAL_S,
            window_s=10.0,
            observe=True,
            faults=FaultPlan(disk_failures=(DiskFailure(time_s=25.0, disk=3),)),
        ),
        "golden-faults": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            faults=FaultPlan(
                transient_faults=(
                    TransientFault(start_s=10.0, end_s=30.0, probability=0.08),
                ),
                slow_disk_faults=(
                    SlowDiskFault(start_s=15.0, end_s=40.0, factor=2.5, disks=(2,)),
                ),
            ),
        ),
        "golden-nosamples": RunSpec(
            trace=_golden_trace(),
            array=_array(),
            policy=PolicySpec.named("base"),
            keep_latency_samples=False,
        ),
        "golden-imported": RunSpec(
            trace=TraceSpec.from_import(
                str(MSR_FIXTURE),
                "msr",
                IngestOptions(
                    name="golden-imported",
                    target_extents=NUM_EXTENTS,
                    target_duration_s=60.0,
                    seed=17,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("base"),
        ),
        "golden-flashcrowd": RunSpec(
            trace=TraceSpec.from_generator(
                "flashcrowd",
                FlashCrowdConfig(
                    name="golden-flashcrowd",
                    duration=60.0,
                    base_rate=40.0,
                    spike_factor=6.0,
                    spike_start=30.0,
                    spike_duration=15.0,
                    num_extents=NUM_EXTENTS,
                    seed=29,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("hibernator", epoch_seconds=20.0),
            goal_s=GOAL_S,
        ),
        "golden-writeburst": RunSpec(
            trace=TraceSpec.from_generator(
                "writeburst",
                WriteBurstConfig(
                    name="golden-writeburst",
                    duration=60.0,
                    read_rate=50.0,
                    checkpoint_period=20.0,
                    sweep_rate=200.0,
                    sweep_fraction=0.1,
                    num_extents=NUM_EXTENTS,
                    seed=37,
                ),
            ),
            array=_array(),
            policy=PolicySpec.named("base"),
        ),
    }


def write_golden(path: str | Path) -> dict[str, str]:
    """Run the golden recipes and write their digests to ``path``.

    This is how ``tests/golden/golden_results.json`` is (re)generated —
    only legitimate when a change *intends* to alter results, in which
    case ``CODE_VERSION`` must be bumped too (CACHE002 enforces that).
    """
    digests = {
        name: result_digest(run_spec(spec)) for name, spec in sorted(golden_specs().items())
    }
    doc = {
        "schema": 1,
        "digest_version": DIGEST_VERSION,
        "code_version": CODE_VERSION,
        "digests": digests,
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digests
