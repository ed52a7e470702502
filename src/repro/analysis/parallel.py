"""Parallel, cacheable execution of independent simulation runs.

Every figure in the reproduction is built from independent
:class:`~repro.sim.runner.ArraySimulation` runs, and each run is a pure
function of its inputs (trace, array config, policy, goal). This module
exploits that purity twice:

* **fan-out** — :func:`execute` ships picklable :class:`RunSpec`\\ s to a
  ``ProcessPoolExecutor`` and reconstructs the simulation inside each
  worker, so a scheme comparison or parameter sweep uses every core. It
  is the one way to run many simulations at once;
* **memoization** — the same specs are content-hashable
  (:mod:`repro.analysis.cache`), so repeated runs of an identical
  (trace, array, policy, goal) configuration are served from disk.

Determinism guarantee: a simulation's outcome depends only on its spec
(seeded RNGs, deterministic event ordering), never on which process runs
it or on sibling runs. ``execute`` additionally returns results in spec
order. Metrics are therefore identical for any ``jobs=`` value; only
wall-clock instrumentation (``runtime_*`` extras) varies.

A spec describes its trace either by *recipe* (generator name + config,
cheap to pickle, regenerated in the worker), by *file* or *inline* (a
materialized :class:`~repro.traces.model.Trace`, content-hashed for
caching). A policy is always *named*: a :data:`POLICY_FACTORIES` entry
plus its params, built inside the worker.
"""

from __future__ import annotations

import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis.cache import ResultCache
from repro.core.hibernator import HibernatorConfig, HibernatorPolicy
from repro.disks.array import ArrayConfig
from repro.faults.plan import FaultPlan
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.base import PowerPolicy
from repro.policies.drpm import DrpmConfig, DrpmPolicy
from repro.policies.maid import MaidConfig, MaidPolicy, maid_array_config
from repro.policies.oracle import OraclePolicy
from repro.policies.pdc import PdcConfig, PdcPolicy
from repro.policies.tpm import TpmConfig, TpmPolicy
from repro.traces.cello import CelloConfig, generate_cello
from repro.traces.model import Trace
from repro.traces.oltp import OltpConfig, generate_oltp
from repro.traces.synthetic import (
    FlashCrowdConfig,
    MultiTenantConfig,
    SyntheticConfig,
    WriteBurstConfig,
    generate_flash_crowd,
    generate_multi_tenant,
    generate_synthetic,
    generate_write_burst,
)
from repro.traces.tracestats import per_extent_rates

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runner import SimulationResult

# -- trace specs -------------------------------------------------------------

#: Generator registry: name -> (config type, generator function).
TRACE_GENERATORS: dict[str, tuple[type, Callable[..., Trace]]] = {
    "oltp": (OltpConfig, generate_oltp),
    "cello": (CelloConfig, generate_cello),
    "synthetic": (SyntheticConfig, generate_synthetic),
    "flashcrowd": (FlashCrowdConfig, generate_flash_crowd),
    "multitenant": (MultiTenantConfig, generate_multi_tenant),
    "writeburst": (WriteBurstConfig, generate_write_burst),
}


@dataclass(eq=False)
class TraceSpec:
    """Picklable description of a workload trace.

    Exactly one source is set:

    * ``generator``/``config`` — regenerate from a registered generator
      inside the worker (cheapest to ship, key is the recipe);
    * ``path`` — load a trace file inside the worker. With ``format``
      set, the file goes through :func:`repro.traces.ingest.import_trace`
      (``options`` is the :class:`~repro.traces.ingest.IngestOptions`);
      otherwise it is a native :func:`~repro.traces.io.load_trace` file.
      Either way the key is the *content hash* of the file (plus format
      and options), never the path — moving or renaming the file keeps
      cached results valid, editing it invalidates them;
    * ``trace`` — carry a materialized trace (key is its content hash).
    """

    generator: str | None = None
    config: Any = None
    path: str | None = None
    trace: Trace | None = None
    format: str | None = None
    options: Any = None

    @classmethod
    def from_generator(cls, generator: str, config: Any) -> "TraceSpec":
        if generator not in TRACE_GENERATORS:
            raise ValueError(
                f"unknown trace generator {generator!r}; known: {sorted(TRACE_GENERATORS)}"
            )
        expected = TRACE_GENERATORS[generator][0]
        if not isinstance(config, expected):
            raise TypeError(f"generator {generator!r} expects {expected.__name__}, "
                            f"got {type(config).__name__}")
        return cls(generator=generator, config=config)

    @classmethod
    def from_file(cls, path: str) -> "TraceSpec":
        return cls(path=str(path))

    @classmethod
    def from_import(cls, path: str, format: str, options: Any = None) -> "TraceSpec":
        """Spec for a foreign-format trace file (see :mod:`repro.traces.ingest`)."""
        from repro.traces.ingest import INGEST_FORMATS

        if format not in INGEST_FORMATS:
            raise ValueError(
                f"unknown ingest format {format!r}; known: {sorted(INGEST_FORMATS)}"
            )
        return cls(path=str(path), format=format, options=options)

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceSpec":
        return cls(trace=trace)

    def build(self) -> Trace:
        """Materialize the trace (called inside the worker)."""
        if self.trace is not None:
            return self.trace
        if self.path is not None:
            if self.format is not None:
                from repro.traces.ingest import import_trace

                return import_trace(self.path, self.format, self.options).trace
            from repro.traces.io import load_trace

            return load_trace(self.path)
        if self.generator is None:
            raise ValueError("empty TraceSpec: set generator, path or trace")
        _, generate = TRACE_GENERATORS[self.generator]
        return generate(self.config)

    def _source_sha256(self) -> str:
        """Content hash of ``path``, memoized per spec instance (file
        contents are assumed stable for the spec's lifetime)."""
        memo = self.__dict__.get("_sha256_memo")
        if memo is None:
            from repro.traces.ingest import file_sha256

            memo = file_sha256(self.path)  # type: ignore[arg-type]
            self.__dict__["_sha256_memo"] = memo
        return memo

    def cache_key(self) -> dict[str, Any]:
        if self.trace is not None:
            t = self.trace
            return {
                "kind": "inline",
                "name": t.name,
                "num_extents": t.num_extents,
                "columns": [t.times, t.kinds, t.extents, t.offsets, t.sizes],
            }
        if self.path is not None:
            # Keyed by content, not path: the key must change iff the
            # source file's bytes change.
            return {
                "kind": "file",
                "sha256": self._source_sha256(),
                "format": self.format,
                "options": self.options,
            }
        return {"kind": "generator", "generator": self.generator, "config": self.config}


# -- policy specs ------------------------------------------------------------


def _make_hibernator(trace: Trace, **params: Any) -> PowerPolicy:
    prime = params.pop("prime", True)
    config = params.pop("config", None) or HibernatorConfig(**params)
    if prime and config.prime_rates is None:
        from dataclasses import replace

        config = replace(config, prime_rates=per_extent_rates(trace))
    return HibernatorPolicy(config)


#: Named factories: name -> callable(trace, **params) -> PowerPolicy.
#: ``trace`` lets trace-dependent setup (Hibernator heat priming) happen
#: inside the worker instead of being shipped as data.
POLICY_FACTORIES: dict[str, Callable[..., PowerPolicy]] = {
    "base": lambda trace, **kw: AlwaysOnPolicy(),
    "tpm": lambda trace, **kw: TpmPolicy(kw.pop("config", None) or TpmConfig(**kw)),
    "drpm": lambda trace, **kw: DrpmPolicy(kw.pop("config", None) or DrpmConfig(**kw)),
    "pdc": lambda trace, **kw: PdcPolicy(kw.pop("config", None) or PdcConfig(**kw)),
    "maid": lambda trace, **kw: MaidPolicy(kw.pop("config", None) or MaidConfig(**kw)),
    "hibernator": _make_hibernator,
    "oracle": lambda trace, **kw: OraclePolicy(**kw),
}


@dataclass(eq=False)
class PolicySpec:
    """Picklable description of a power-management policy: ``name``
    and ``params`` resolve through :data:`POLICY_FACTORIES`, and the
    cache key is that recipe."""

    name: str | None = None
    params: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def named(cls, name: str, **params: Any) -> "PolicySpec":
        if name not in POLICY_FACTORIES:
            raise ValueError(f"unknown policy {name!r}; known: {sorted(POLICY_FACTORIES)}")
        return cls(name=name, params=params)

    def build(self, trace: Trace, array_config: ArrayConfig) -> tuple[PowerPolicy, ArrayConfig]:
        """Policy instance plus the (possibly adjusted) array config.

        MAID excludes its cache disks from initial placement through
        :func:`repro.policies.maid.maid_array_config`.
        """
        if self.name is None:
            raise ValueError("empty PolicySpec: set name")
        params = dict(self.params)
        if self.name == "maid":
            maid_cfg = params.get("config") or MaidConfig(**params)
            return MaidPolicy(maid_cfg), maid_array_config(array_config, maid_cfg.num_cache_disks)
        return POLICY_FACTORIES[self.name](trace, **params), array_config

    def cache_key(self) -> dict[str, Any]:
        return {"kind": "named", "name": self.name, "params": self.params}


# -- run specs ---------------------------------------------------------------


@dataclass(eq=False)
class RunSpec:
    """Everything one simulation run needs, in picklable form.

    ``observe`` turns on the structured event trace (:mod:`repro.obs`);
    the events come back inside the result, so parallel workers and the
    cache carry them like any other metric. It is part of the cache key:
    an observed and an unobserved run of the same experiment are distinct
    entries (their metrics are identical, their payloads are not).

    ``faults`` carries the declarative fault plan (frozen dataclasses,
    picklable, canonicalized into the cache key field by field). None
    and an empty plan both mean a fault-free run.
    """

    trace: TraceSpec
    array: ArrayConfig
    policy: PolicySpec
    goal_s: float | None = None
    window_s: float | None = None
    keep_latency_samples: bool = True
    observe: bool = False
    faults: FaultPlan | None = None


def run_spec(spec: RunSpec) -> "SimulationResult":
    """Execute one spec from scratch (the worker entry point)."""
    from repro.sim.runner import ArraySimulation

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
    return sim.run()


def execute(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> "list[SimulationResult]":
    """Run every spec, in parallel when ``jobs > 1``, consulting ``cache``.

    Results come back in spec order regardless of completion order, and
    are metric-identical for any ``jobs`` value (see the module
    docstring's determinism guarantee). Cached entries are returned
    without simulating; fresh results are stored before returning.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    results: list[Any] = [None] * len(specs)
    pending: list[int] = []
    keys: dict[int, str] = {}
    for i, spec in enumerate(specs):
        if cache is not None:
            key = cache.key_for(spec)
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)
    if pending:
        if jobs == 1 or len(pending) == 1:
            fresh = [run_spec(specs[i]) for i in pending]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                fresh = list(pool.map(run_spec, [specs[i] for i in pending]))
        for i, result in zip(pending, fresh):
            results[i] = result
            if cache is not None:
                cache.put(keys[i], result)
    return results


def execute_one(spec: RunSpec, cache: ResultCache | None = None) -> "SimulationResult":
    """Single-spec convenience wrapper around :func:`execute`."""
    return execute([spec], jobs=1, cache=cache)[0]


def comparison_specs(
    trace_spec: TraceSpec,
    array_config: ArrayConfig,
    goal_s: float,
    hibernator_config: HibernatorConfig | None = None,
    window_s: float | None = None,
    observe: bool = False,
    faults: FaultPlan | None = None,
) -> list[RunSpec]:
    """The paper's comparison set, minus Base (which derives the goal).

    TPM, DRPM, PDC, MAID and Hibernator, in that order, as named specs:
    cheap to ship and cache-keyed by construction parameters. PDC's
    re-ranking period is Hibernator's epoch, so the adaptive schemes act
    on the same timescale; MAID's spec excludes its cache disks from
    initial placement, and Hibernator is primed with the trace's heat
    unless ``hibernator_config`` already carries ``prime_rates``.
    """
    hib_params: dict[str, Any] = {"config": hibernator_config} if hibernator_config else {}
    pdc_period = (hibernator_config or HibernatorConfig()).epoch_seconds
    names: list[tuple[str, dict[str, Any]]] = [
        ("tpm", {}),
        ("drpm", {}),
        ("pdc", {"period_s": pdc_period}),
        ("maid", {}),
        ("hibernator", hib_params),
    ]
    return [
        RunSpec(
            trace=trace_spec,
            array=array_config,
            policy=PolicySpec.named(name, **params),
            goal_s=goal_s,
            window_s=window_s,
            observe=observe,
            faults=faults,
        )
        for name, params in names
    ]
