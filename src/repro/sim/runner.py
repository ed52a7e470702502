"""Simulation orchestration: trace x array x policy -> metrics.

:class:`ArraySimulation` replays a trace against a :class:`DiskArray`
under a power-management policy and produces a :class:`SimulationResult`
with everything the experiments report: energy (total and by category),
response-time statistics (foreground traffic only), migration overhead,
spin-up/speed-change counts and optional time series.

Arrivals are scheduled lazily (each arrival schedules the next) so the
event heap stays small regardless of trace length.
"""

from __future__ import annotations

import time
import typing
from dataclasses import dataclass, field

from repro.disks.array import ArrayConfig, DiskArray
from repro.disks.power import PowerBreakdown
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.events import RequestFailed, RunEnd, RunStart, TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracelog import TraceLog
from repro.sim.engine import Engine, SimulationError
from repro.sim.request import IoKind, Request
from repro.sim.stats import DeficitTracker, LatencyRecorder, WindowAverage
from repro.traces.model import _KIND_READ, Trace

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policies.base import PowerPolicy


@dataclass
class SimulationResult:
    """Everything one run reports.

    Energy figures cover the whole run (trace duration plus drain);
    latency statistics cover foreground requests only — migration I/O is
    charged to energy and disk time but not to response time, matching
    the paper's accounting.

    ``num_requests`` counts **successfully served** foreground requests
    — exactly the population the latency statistics are computed over.
    Requests that could not be served (degraded mode without redundancy)
    are counted in ``failed_requests`` only and contribute no latency
    samples, so ``num_requests + failed_requests`` is the total offered
    foreground load.

    ``events`` holds the structured trace (:mod:`repro.obs`) when the run
    was built with ``observe=True``; it is empty — and cost nothing to
    not collect — otherwise.
    """

    trace_name: str
    policy_name: str
    policy_params: str
    num_requests: int
    sim_end: float
    energy_joules: float
    breakdown: PowerBreakdown
    mean_response_s: float
    p95_response_s: float
    p99_response_s: float
    max_response_s: float
    goal_s: float | None
    cumulative_avg_vs_goal: float | None
    failed_requests: int
    migration_extents: int
    migration_bytes: int
    spinups: int
    speed_changes: int
    latency_windows: list[tuple[float, float, int]] = field(default_factory=list)
    speed_samples: list[tuple[float, float, int]] = field(default_factory=list)
    power_samples: list[tuple[float, float]] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def mean_power_watts(self) -> float:
        if self.sim_end <= 0:
            return 0.0
        return self.energy_joules / self.sim_end

    @property
    def meets_goal(self) -> bool:
        """True when the run's mean response time is within the goal."""
        if self.goal_s is None:
            return True
        return self.mean_response_s <= self.goal_s

    def energy_savings_vs(self, baseline: "SimulationResult") -> float:
        """Fractional energy savings relative to ``baseline`` (1 - E/E0)."""
        if baseline.energy_joules <= 0:
            return 0.0
        return 1.0 - self.energy_joules / baseline.energy_joules


class ArraySimulation:
    """One trace replay against one array under one policy.

    The classic entry point is the one-shot :meth:`run`. The serve
    daemon (:mod:`repro.serve`) instead drives the same machinery
    incrementally: :meth:`begin` once, :meth:`step` as often as its
    pacing loop likes, :meth:`finalize` at the end. ``run()`` is exactly
    ``begin() + step() + finalize()``, so both driving modes execute the
    identical event sequence and produce byte-identical results.

    Args:
        trace: workload to replay.
        array_config: array shape/hardware.
        policy: power-management policy instance.
        goal_s: optional response-time goal, recorded into the result
            (and visible to goal-aware policies via :attr:`goal_s`).
        window_s: width of the time-series windows; None disables
            time-series collection.
        keep_latency_samples: retain per-request latencies for exact
            percentiles (disable for very long runs).
        observe: collect the structured event trace (:mod:`repro.obs`)
            into ``SimulationResult.events``. Off by default; when off,
            the ``emit`` hook is None everywhere and no event objects are
            ever constructed, so metrics are identical either way.
        faults: declarative fault plan to inject during the run. None
            (or an empty plan) installs nothing, keeping the run
            byte-identical to a fault-free one. Faults scheduled past
            the trace's drain point never fire — the accounting window
            is bounded by the workload, exactly as for periodic timers.
        live: the run may receive requests beyond the trace columns via
            :meth:`inject_request` (serve live mode). Periodic machinery
            (samplers, epoch boundaries) keeps rescheduling while the
            stream is open even after the trace itself is exhausted; see
            :attr:`workload_open`. False for every batch run, in which
            case behaviour is untouched.
    """

    def __init__(
        self,
        trace: Trace,
        array_config: ArrayConfig,
        policy: "PowerPolicy",
        goal_s: float | None = None,
        window_s: float | None = None,
        keep_latency_samples: bool = True,
        observe: bool = False,
        faults: FaultPlan | None = None,
        live: bool = False,
    ) -> None:
        self.trace = trace
        # Column pre-extraction: replaying through Trace.__getitem__ costs
        # a TraceRequest allocation plus five numpy-scalar boxings per
        # request. Plain Python lists with pre-decoded IoKind values make
        # _arrive allocation-free apart from the Request itself. tolist()
        # yields native floats/ints, so values are bit-identical to the
        # float()/int() conversions __getitem__ performs.
        self._times: list[float] = trace.times.tolist()
        _read, _write = IoKind.READ, IoKind.WRITE
        self._kinds: list[IoKind] = [
            _read if k == _KIND_READ else _write for k in trace.kinds.tolist()
        ]
        self._extents: list[int] = trace.extents.tolist()
        self._offsets: list[int] = trace.offsets.tolist()
        self._sizes: list[int] = trace.sizes.tolist()
        self._trace_len = len(trace)
        self.engine = Engine()
        self.array = DiskArray(self.engine, array_config)
        self.policy = policy
        # Pre-bound hot callables: _arrive/_complete run once per request
        # and the attribute chains (self.policy.on_request_arrival etc.)
        # cost a dict lookup plus a bound-method build per call.
        self._on_arrival = policy.on_request_arrival
        self._on_completion = policy.on_request_complete
        self._array_submit = self.array.submit
        self.goal_s = goal_s
        self.metrics = MetricsRegistry()
        self.obs_log: TraceLog | None = TraceLog() if observe else None
        #: The narrow observability hook: ``emit(event)`` or None. Every
        #: instrumented site guards with ``is None`` so disabled runs pay
        #: nothing.
        self.emit = self.obs_log.emit if self.obs_log is not None else None
        if self.emit is not None:
            self.array.install_trace_hook(self.emit)
        self.latency = LatencyRecorder(keep_samples=keep_latency_samples)
        #: The run's one response-time deficit, fed with every served
        #: request's latency before the policy sees the completion.
        #: Goal-aware policies read it (Hibernator's boost) and never
        #: feed a copy of their own.
        self.deficit = DeficitTracker(goal_s) if goal_s is not None else None
        self._window_s = window_s
        self._latency_windows = WindowAverage(window_s) if window_s else None
        self._speed_samples: list[tuple[float, float, int]] = []
        self._power_samples: list[tuple[float, float]] = []
        self._next_index = 0
        self._outstanding = 0
        self._ran = False
        self._finalized = False
        self.failed_requests = 0
        self.live = live
        #: Requests submitted via :meth:`inject_request` (serve live mode).
        self.injected_requests = 0
        self._halted = False
        self._drain_complete = False
        self._wall_s = 0.0
        # Fault injection: an empty plan is normalized to None so that
        # FaultPlan() and faults=None take the exact same (hook-free)
        # code path.
        self.faults = faults if faults is not None and not faults.empty else None
        self.injector: FaultInjector | None = None

    # -- arrival plumbing ----------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        i = self._next_index
        if i < self._trace_len:
            self.engine.schedule(self._times[i], self._arrive)

    def _arrive(self) -> None:
        if self._halted:
            # Graceful shutdown: the arrival chain is broken here (events
            # cannot be cancelled), so no further trace requests are
            # submitted while in-flight ones drain.
            return
        i = self._next_index
        self._next_index = i + 1
        # arrival is the scheduled time, which is exactly engine.now when
        # this callback fires — reading the column skips the property hop.
        request = Request(
            req_id=i,
            arrival=self._times[i],
            kind=self._kinds[i],
            extent=self._extents[i],
            offset=self._offsets[i],
            size=self._sizes[i],
        )
        self._outstanding += 1
        self._on_arrival(request)
        self._array_submit(request, self._complete)
        self._schedule_next_arrival()

    def _complete(self, request: Request) -> None:
        self._outstanding -= 1
        if request.failed:
            self.failed_requests += 1
            if self.emit is not None:
                self.emit(RequestFailed(
                    time=self.engine.now,
                    req_id=request.req_id,
                    extent=request.extent,
                    op_kind=request.kind.value,
                ))
            # No latency to record, but the policy must still see the
            # completion (request.failed is set) or outstanding-request
            # accounting leaks on degraded-mode runs.
            self._on_completion(request)
            return
        latency = request.latency
        self.latency.add(latency)
        if self.deficit is not None:
            self.deficit.add(latency)
        if self._latency_windows is not None:
            self._latency_windows.add(self.engine.now, latency)
        self._on_completion(request)

    def _sample(self, at: float) -> None:
        """Append the array's mean rpm, spinning disks and watts at ``at``."""
        speeds = self.array.speeds()
        mean_rpm = sum(speeds) / len(speeds)
        spinning = sum(1 for s in speeds if s > 0)
        self._speed_samples.append((at, mean_rpm, spinning))
        watts = sum(d.meter.watts for d in self.array.disks)
        self._power_samples.append((at, watts))

    def _sample_tick(self) -> None:
        """The periodic sampler; stops re-arming once the workload drains."""
        self._sample(self.engine.now)
        if self.workload_open:
            assert self._window_s is not None
            self.engine.schedule_after(self._window_s, self._sample_tick)

    def _drained(self) -> bool:
        return self._next_index >= self._trace_len and self._outstanding == 0

    @property
    def workload_open(self) -> bool:
        """More foreground work can still arrive.

        Periodic machinery (the sampler, epoch boundaries, policy
        timers) keys rescheduling off this: in batch mode it is exactly
        "trace remains or requests are in flight"; in live mode the
        stream stays open until :meth:`halt_arrivals`.
        """
        if self.live and not self._halted:
            return True
        return self._next_index < self._trace_len or self._outstanding > 0

    @property
    def drain_complete(self) -> bool:
        """True once :meth:`step` has delivered everything a batch
        ``run()`` would have executed (workload drained, loop stopped)."""
        return self._drain_complete

    @property
    def outstanding(self) -> int:
        """Foreground requests currently in flight."""
        return self._outstanding

    @property
    def trace_remaining(self) -> int:
        """Trace requests not yet submitted."""
        return self._trace_len - self._next_index

    # -- main entries ---------------------------------------------------------

    def begin(self) -> None:
        """Set up the run: attach the policy, install faults, prime the
        event loop. Call once; :meth:`run` does it for you."""
        if self._ran:
            raise RuntimeError("ArraySimulation is single-shot; build a new one")
        self._ran = True
        self.policy.attach(self)
        if self.faults is not None:
            self.injector = FaultInjector(
                self.engine, self.array, self.faults, self.policy,
            )
            self.injector.install()
        if self.obs_log is not None:
            # Prepended *after* attach so initial_rpm reflects any instant
            # (force_speed) priming the policy did; every attach-time event
            # shares t=0 with it, so time order is preserved.
            self.obs_log.events.insert(0, RunStart(
                time=0.0,
                trace_name=self.trace.name,
                policy_name=self.policy.name,
                policy_params=self.policy.describe(),
                goal_s=self.goal_s,
                num_disks=self.array.num_disks,
                num_extents=self.array.num_extents,
                initial_rpm=tuple(int(d.rpm) for d in self.array.disks),
            ))
        self._schedule_next_arrival()
        if self._window_s is not None:
            self.engine.schedule(0.0, self._sample_tick)

    def step(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_on_drain: bool = True,
    ) -> int:
        """Advance the simulation and return the events executed.

        With ``stop_on_drain`` (the default, batch semantics) the loop
        exits as soon as every foreground request has completed —
        lingering periodic timers must not stretch the energy-accounting
        window — and later calls are no-ops, so any chunking of ``step``
        calls executes the exact event sequence one un-chunked call
        would. ``stop_on_drain=False`` is the live-mode variant: the
        clock may fast-forward to ``until`` so wall-clock-paced epochs
        keep firing while the request stream is idle.
        """
        if stop_on_drain and self._drain_complete:
            return 0
        # The wall clock feeds the runtime_* gauges only, never a
        # simulation result; see test_observe_parity.
        # repro: lint-ok[DET003] wall-clock instrumentation, not a result input
        wall_start = time.perf_counter()
        executed = self.engine.run(
            until=until,
            max_events=max_events,
            stop=self._drained if stop_on_drain else None,
        )
        self._wall_s += time.perf_counter() - wall_start  # repro: lint-ok[DET003] instrumentation only
        if stop_on_drain and self._drained():
            # The stop predicate fired (or would fire on the very next
            # callback): everything a one-shot run() executes has run.
            self._drain_complete = True
        return executed

    def run(self) -> SimulationResult:
        """Replay the trace to completion and return the metrics."""
        self.begin()
        self.step()
        return self.finalize()

    # -- serve-mode controls --------------------------------------------------

    def halt_arrivals(self) -> None:
        """Stop submitting new foreground requests (graceful shutdown).

        Trace arrivals already in the heap return without submitting;
        in-flight requests keep draining. Irreversible.
        """
        self._halted = True

    def drain_in_flight(self) -> int:
        """Run the engine only until every in-flight request completes.

        The serve daemon's shutdown path: after :meth:`halt_arrivals`,
        this delivers the completions already under way without starting
        anything new. Returns the events executed.
        """
        if self._outstanding == 0:
            return 0
        return self.engine.run(stop=lambda: self._outstanding == 0)

    def inject_request(
        self,
        kind: IoKind,
        extent: int,
        offset: int = 0,
        size: int = 4096,
    ) -> int:
        """Submit one foreground request from outside the trace columns.

        The serve daemon's live-ingest path. The request arrives *now*
        (request ids continue past the trace's), feeds the policy hooks
        and the latency/deficit accounting exactly like a trace arrival,
        and counts toward ``num_requests`` on completion. Returns the
        request id.
        """
        if self.engine.dispatching:
            raise SimulationError.mid_dispatch("inject_request")
        if self._halted:
            raise RuntimeError("simulation is halted; no new requests accepted")
        if not 0 <= extent < self.array.num_extents:
            raise ValueError(
                f"extent {extent} outside the volume [0, {self.array.num_extents})"
            )
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        req_id = self._trace_len + self.injected_requests
        self.injected_requests += 1
        request = Request(
            req_id=req_id,
            arrival=self.engine.now,
            kind=kind,
            extent=extent,
            offset=offset,
            size=size,
        )
        self._outstanding += 1
        self._on_arrival(request)
        self._array_submit(request, self._complete)
        return req_id

    def set_goal(self, goal_s: float | None) -> None:
        """Change (or clear) the response-time goal mid-run.

        The deficit accounting restarts under the new goal — mixing
        per-request overshoots measured against two different goals
        would make the cumulative figure meaningless — and the policy is
        told via :meth:`~repro.policies.base.PowerPolicy.on_goal_changed`
        so goal-aware controllers (the boost, the CR optimizer's next
        epoch solve) act on it online; a boost rebinds to the new
        :attr:`deficit` there.
        """
        if self.engine.dispatching:
            raise SimulationError.mid_dispatch("set_goal")
        if goal_s is not None and goal_s <= 0:
            raise ValueError(f"goal must be positive, got {goal_s!r}")
        self.goal_s = goal_s
        self.deficit = DeficitTracker(goal_s) if goal_s is not None else None
        self.policy.on_goal_changed(goal_s)

    def inject_faults(self, plan: FaultPlan) -> None:
        """Install an additional fault plan mid-run (serve control path).

        Plan times must already be absolute simulated seconds at or
        after ``engine.now`` (the serve daemon shifts relative plans via
        :func:`repro.faults.plan.shift_fault_plan`). The first injected
        plan's rebuild knobs govern if the run started fault-free. A
        plan the injector refuses (ValueError) leaves the run unchanged:
        no fault state, no scheduled failure, no injector.
        """
        if self.engine.dispatching:
            raise SimulationError.mid_dispatch("inject_faults")
        if plan.empty:
            return
        if self.injector is not None:
            self.injector.add_plan(plan)
            return
        injector = FaultInjector(self.engine, self.array, plan, self.policy)
        injector.install()
        self.injector = injector

    # -- result assembly ------------------------------------------------------

    def finalize(self) -> SimulationResult:
        """Close accounting and assemble the result. Call once, after
        the workload drained (or the serve daemon drained in-flight)."""
        if not self._ran:
            raise RuntimeError("finalize() before begin()")
        if self._finalized:
            raise RuntimeError("finalize() is single-shot")
        self._finalized = True
        wall_s = self._wall_s
        events = self.engine.events_executed
        end = max(self.engine.now, self.trace.duration)
        self.policy.on_finish(end)
        energy = 0.0
        breakdown = PowerBreakdown()
        spinups = 0
        speed_changes = 0
        for disk in self.array.disks:
            energy += disk.finish_accounting(end)
            breakdown.merge(disk.meter.breakdown)
            spinups += disk.spinups
            speed_changes += disk.speed_changes
        samples = self._speed_samples
        if self._window_s is not None and (not samples or samples[-1][0] < end):
            # The tick stops re-arming once the workload drains; close the
            # series at `end` so timelines cover the accounting window.
            self._sample(end)
        windows = self._latency_windows.finish(end) if self._latency_windows else []
        has_latency = self.latency.n > 0
        # Percentiles need retained samples; when they are unavailable
        # (keep_latency_samples=False, or no successful request produced
        # one) report NaN — 0.0 would be indistinguishable from a genuine
        # zero-latency percentile. JSON exports render NaN as null.
        can_percentile = has_latency and self.latency.keep_samples
        nan = float("nan")
        extras = dict(self.policy.extras())
        # Run instrumentation, via the registry. runtime_events is
        # deterministic (a pure function of the spec); the wall-clock
        # figures are the only result fields that vary between repeats,
        # so consumers that compare results for identity must strip the
        # runtime_* keys (see repro.analysis.parallel).
        self.metrics.gauge("runtime_events").set(float(events))
        self.metrics.gauge("runtime_wall_s").set(wall_s)
        self.metrics.gauge("runtime_events_per_s").set(
            events / wall_s if wall_s > 0 else 0.0
        )
        if self.injector is not None:
            # Fault-run extras only — fault-free runs keep the exact key
            # set they had before, which the byte-identity test pins.
            self.metrics.gauge("fault_failures_injected").set(
                float(self.injector.failures_injected)
            )
            self.metrics.gauge("fault_op_errors").set(
                float(sum(d.op_errors for d in self.array.disks))
            )
            self.metrics.gauge("fault_op_retries").set(
                float(sum(d.op_retries for d in self.array.disks))
            )
            manager = self.injector.rebuild_manager
            if manager is not None:
                self.metrics.gauge("fault_rebuilt_extents").set(float(manager.rebuilt))
                self.metrics.gauge("fault_unplaced_extents").set(float(manager.unplaced))
        extras.update(self.metrics.as_dict())
        if self.emit is not None:
            self.emit(RunEnd(
                time=end,
                num_requests=self.latency.n,
                failed_requests=self.failed_requests,
                energy_joules=energy,
                impulse_joules=sum(d.meter.impulse_joules for d in self.array.disks),
                boost_seconds=extras.get("boost_seconds", 0.0),
                spinups=spinups,
                speed_changes=speed_changes,
                migration_extents=self.array.migration_extents_moved,
                migration_bytes=self.array.migration_bytes,
            ))
        return SimulationResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            policy_params=self.policy.describe(),
            num_requests=self.latency.n,
            sim_end=end,
            energy_joules=energy,
            breakdown=breakdown,
            mean_response_s=self.latency.mean if has_latency else 0.0,
            p95_response_s=self.latency.percentile(95) if can_percentile else nan,
            p99_response_s=self.latency.percentile(99) if can_percentile else nan,
            max_response_s=self.latency.stats.max if has_latency else 0.0,
            goal_s=self.goal_s,
            cumulative_avg_vs_goal=(
                self.deficit.cumulative_average - self.goal_s
                if self.deficit is not None and self.goal_s is not None
                else None
            ),
            failed_requests=self.failed_requests,
            migration_extents=self.array.migration_extents_moved,
            migration_bytes=self.array.migration_bytes,
            spinups=spinups,
            speed_changes=speed_changes,
            latency_windows=windows,
            speed_samples=self._speed_samples,
            power_samples=self._power_samples,
            extras=extras,
            events=list(self.obs_log.events) if self.obs_log is not None else [],
        )
