"""The experiment harness: run schemes the way the paper does.

The paper's methodology, reproduced by :func:`run_comparison`:

1. run **Base** (all disks full speed) on the trace — its energy is the
   100% reference and its average response time defines the goal
   (``goal = slack x base mean response``);
2. run every other scheme on the *identical* trace and array
   configuration with that goal;
3. report, per scheme, energy savings vs Base and mean response time vs
   the goal.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from repro.analysis.cache import ResultCache
from repro.analysis.energy import savings_fraction
from repro.analysis.parallel import (
    PolicySpec,
    RunSpec,
    TraceSpec,
    comparison_specs,
    execute,
    execute_one,
)
from repro.analysis.report import format_count, format_duration
from repro.core.hibernator import HibernatorConfig
from repro.disks.array import ArrayConfig
from repro.disks.specs import ultrastar_36z15
from repro.faults.plan import FaultPlan
from repro.policies.base import PowerPolicy
from repro.sim.runner import ArraySimulation, SimulationResult
from repro.traces.model import Trace


def default_array_config(
    num_disks: int = 24,
    num_extents: int | None = None,
    num_speed_levels: int = 5,
    seed: int = 42,
    raid5: bool = False,
    capacity_multiple: float = 4.0,
) -> ArrayConfig:
    """The paper-scale array: 24 multi-speed Ultrastar disks.

    ``capacity_multiple`` sizes each disk's slot capacity relative to the
    even extent share. Real disks hold far more than their share of the
    active working set (36 GB disks vs a few GB of hot data), and
    concentration schemes (PDC, MAID destage targets) rely on that
    headroom; 4x keeps capacity from binding while keeping seek spans
    realistic.
    """
    if num_extents is None:
        num_extents = num_disks * 100
    even_share = -(-num_extents // num_disks)
    return ArrayConfig(
        num_disks=num_disks,
        spec=ultrastar_36z15(num_speed_levels),
        num_extents=num_extents,
        seed=seed,
        raid5=raid5,
        slots_override=int(even_share * capacity_multiple),
    )


def run_single(
    trace: Trace,
    array_config: ArrayConfig,
    policy: PowerPolicy,
    goal_s: float | None = None,
    window_s: float | None = None,
    observe: bool = False,
    faults: "FaultPlan | None" = None,
) -> SimulationResult:
    """One scheme on one trace (fresh simulation per call).

    ``observe=True`` collects the structured event trace
    (:mod:`repro.obs`) into ``result.events``; metrics are identical
    either way. ``faults`` injects a declarative fault plan
    (:mod:`repro.faults`); None or an empty plan changes nothing.
    """
    sim = ArraySimulation(
        trace=trace,
        array_config=array_config,
        policy=policy,
        goal_s=goal_s,
        window_s=window_s,
        observe=observe,
        faults=faults,
    )
    return sim.run()


def check_slack(slack: float) -> float:
    """``slack`` as a float, or ValueError unless it is finite and >= 1.

    A slack below 1 asks for a goal faster than Base, which no scheme
    can meet; NaN and inf would give a goal nothing can be measured
    against.
    """
    slack = float(slack)
    if not (math.isfinite(slack) and slack >= 1.0):
        raise ValueError(f"slack must be a finite number >= 1, got {slack!r}")
    return slack


def derive_goal(
    trace: Trace,
    array_config: ArrayConfig,
    slack: float = 1.5,
    observe: bool = False,
    faults: "FaultPlan | None" = None,
    cache: ResultCache | None = None,
    base: SimulationResult | None = None,
) -> tuple[float, SimulationResult]:
    """Run Base and derive the response-time goal from its mean.

    Returns ``(goal_s, base_result)``; ``slack`` is the paper's
    "response-time limit multiplier" (how much degradation the operator
    tolerates in exchange for energy savings), checked by
    :func:`check_slack`. When ``faults`` is set, Base runs under the
    same fault plan as the schemes it anchors, so the goal reflects
    degraded-mode service times. ``cache`` serves a repeated Base run
    from disk; ``base``, a result this function returned before, skips
    the run, so a sweep over slacks runs Base once.
    """
    slack = check_slack(slack)
    if base is None:
        base = execute_one(
            RunSpec(trace=TraceSpec.from_trace(trace), array=array_config,
                    policy=PolicySpec.named("base"), observe=observe, faults=faults),
            cache=cache,
        )
    if base.mean_response_s <= 0:
        raise ValueError("Base run produced no requests; cannot derive a goal")
    return slack * base.mean_response_s, base


@dataclass
class ComparisonResult:
    """Results of one multi-scheme comparison."""

    goal_s: float
    slack: float
    results: dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def base(self) -> SimulationResult:
        return self.results["Base"]

    def savings(self, name: str) -> float:
        """Fractional energy savings of scheme ``name`` vs Base."""
        return savings_fraction(self.results[name].energy_joules, self.base.energy_joules)

    def all_events(self) -> list:
        """Every scheme's trace events, concatenated in result order.

        Each observed run opens with its own ``run_start`` event, so the
        concatenation splits back apart with
        :func:`repro.obs.tracelog.split_runs`. Empty when the comparison
        ran without ``observe=True``.
        """
        events: list = []
        for result in self.results.values():
            events.extend(result.events)
        return events

    def rows(self) -> list[list[str]]:
        """Table rows: scheme, energy, savings, mean RT, RT vs goal."""
        out: list[list[str]] = []
        for name, result in self.results.items():
            out.append(
                [
                    name,
                    f"{result.energy_joules / 1e3:.1f} kJ",
                    f"{100.0 * self.savings(name):+.1f} %",
                    f"{result.mean_response_s * 1e3:.2f} ms",
                    f"{result.mean_response_s / self.goal_s:.2f}x goal",
                    "yes" if result.mean_response_s <= self.goal_s else "NO",
                ]
            )
        return out

    HEADERS: typing.ClassVar[list[str]] = [
        "scheme",
        "energy",
        "savings",
        "mean RT",
        "RT/goal",
        "meets goal",
    ]

    def runtime_rows(self) -> list[list[str]]:
        """Run-cost table: wall clock, events executed, events/sec.

        Cached results report the wall clock of the run that produced
        them, so a fully-cached comparison shows near-zero *rerun* cost
        only in the harness timing, not here.
        """
        out: list[list[str]] = []
        for name, result in self.results.items():
            wall = result.extras.get("runtime_wall_s", 0.0)
            events = result.extras.get("runtime_events", 0.0)
            rate = result.extras.get("runtime_events_per_s", 0.0)
            out.append([name, format_duration(wall), format_count(events), format_count(rate)])
        return out

    RUNTIME_HEADERS: typing.ClassVar[list[str]] = [
        "scheme",
        "wall clock",
        "events",
        "events/s",
    ]


def run_comparison(
    trace: Trace,
    array_config: ArrayConfig,
    slack: float = 1.5,
    hibernator_config: HibernatorConfig | None = None,
    window_s: float | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    observe: bool = False,
    faults: "FaultPlan | None" = None,
) -> ComparisonResult:
    """Full paper-style comparison on one trace.

    Base comes from :func:`derive_goal`; the schemes are
    :func:`~repro.analysis.parallel.comparison_specs` run by
    :func:`~repro.analysis.parallel.execute`.

    Args:
        jobs: worker processes for the scheme runs. The Base run always
            happens first (it defines the goal); the schemes then fan
            out. Metrics are identical for every ``jobs`` value — each
            run is a pure function of its spec — so the default of 1
            changes nothing but wall-clock time.
        cache: optional on-disk result cache; hits skip simulation
            entirely and misses are stored for next time.
        observe: collect the structured event trace (:mod:`repro.obs`)
            for every run, Base included, into each result's ``events``.
        faults: fault plan applied to *every* run, Base included, so
            all schemes face the identical failure scenario.
    """
    goal_s, base = derive_goal(trace, array_config, slack, observe=observe,
                               faults=faults, cache=cache)
    comparison = ComparisonResult(goal_s=goal_s, slack=slack)
    comparison.results["Base"] = base
    specs = comparison_specs(TraceSpec.from_trace(trace), array_config, goal_s,
                             hibernator_config, window_s, observe=observe, faults=faults)
    for result in execute(specs, jobs=jobs, cache=cache):
        comparison.results[result.policy_name] = result
    return comparison
