"""Fleet specifications: N arrays as one simulated system.

A :class:`FleetSpec` is to a fleet what
:class:`~repro.analysis.parallel.RunSpec` is to one array: a picklable,
content-hashable recipe. Every field reaches the cache key through the
same dataclass canonicalization the run cache uses
(:func:`repro.analysis.cache.content_key`), so logically-equal fleets
hash equally and any field change invalidates cached shards
(``tests/test_cache.py`` audits this field by field).

Per-array randomness is derived, never shared: the fleet ``seed`` spawns
one independent stream per array through
:class:`numpy.random.SeedSequence`, so array *i*'s layout shuffle (and,
in ``replicate`` partitioning, its workload draw) is a pure function of
``(seed, i)`` — independent of sibling arrays, process placement and
``jobs=``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec
from repro.disks.array import ArrayConfig
from repro.fleet.faults import FleetFaultPlan
from repro.fleet.partition import PARTITIONERS, partition_trace

#: Partitioner names accepted by :attr:`FleetSpec.partitioner`.
PARTITIONER_NAMES: tuple[str, ...] = tuple(sorted(PARTITIONERS) + ["replicate"])


def spawn_seeds(seed: int, n: int) -> tuple[int, ...]:
    """``n`` independent per-array seeds derived from one fleet seed.

    Uses the SeedSequence spawn tree, the same mechanism the fault
    injector uses for per-disk streams: children are statistically
    independent and the derivation is a pure function of ``(seed, n)``,
    identical in every process.
    """
    if n < 1:
        raise ValueError(f"need at least one seed, got n={n!r}")
    children = np.random.SeedSequence(seed).spawn(n)
    return tuple(int(child.generate_state(1, dtype=np.uint64)[0]) for child in children)


@dataclass(eq=False)
class FleetSpec:
    """Everything a fleet-scale simulation needs, in picklable form.

    Attributes:
        num_arrays: fleet width (>= 1).
        trace: fleet-wide workload. For the splitting partitioners
            (``block``/``stripe``) it addresses the *global* extent
            space ``num_arrays * array.num_extents``; for ``replicate``
            it must be generator-based and addresses one array's space
            (each array regenerates it with a spawned seed).
        array: per-array template config. Each array gets a copy whose
            ``seed`` is replaced by its spawned per-array seed, so
            layout shuffles differ across the fleet.
        policy: power policy, shared recipe. Must be a *named* spec —
            an instance spec would share one stateful policy object
            across serial array runs while parallel workers each
            unpickle a private copy, which is exactly the
            serial-vs-parallel divergence the determinism guarantee
            forbids.
        partitioner: ``"block"`` (contiguous extent ranges),
            ``"stripe"`` (extents interleaved round-robin) or
            ``"replicate"`` (per-array regeneration with spawned
            seeds). See :mod:`repro.fleet.partition`.
        goal_s: per-array response-time goal.
        window_s: per-array time-series window; None disables.
        keep_latency_samples: retain per-request latencies per array.
        observe: collect structured events — fleet-scoped events on the
            :class:`~repro.fleet.executor.FleetResult` and per-array
            streams inside each shard result.
        faults: declarative fleet fault plan; None or an empty plan is
            byte-identical to a fault-free fleet.
        seed: fleet seed; spawns the per-array streams.
    """

    num_arrays: int
    trace: TraceSpec
    array: ArrayConfig
    policy: PolicySpec
    partitioner: str = "block"
    goal_s: float | None = None
    window_s: float | None = None
    keep_latency_samples: bool = True
    observe: bool = False
    faults: FleetFaultPlan | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_arrays < 1:
            raise ValueError(f"num_arrays must be >= 1, got {self.num_arrays!r}")
        if self.partitioner not in PARTITIONER_NAMES:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"known: {list(PARTITIONER_NAMES)}"
            )
        if getattr(self.policy, "instance", None) is not None:
            raise ValueError(
                "FleetSpec requires a named PolicySpec: an instance spec "
                "would be shared across serial array runs but copied per "
                "parallel worker, breaking the jobs-invariance guarantee"
            )
        if self.partitioner == "replicate" and self.trace.generator is None:
            raise ValueError(
                "replicate partitioning needs a generator-based TraceSpec "
                "(each array regenerates the workload with its own seed)"
            )

    # -- expansion ----------------------------------------------------------

    def array_specs(self) -> list[RunSpec]:
        """One :class:`RunSpec` per array — the shardable expansion.

        A pure function of the spec: per-array seeds come from
        :func:`spawn_seeds`, workload shards from the partitioner and
        per-array fault plans from :meth:`FleetFaultPlan.expand`, so the
        expansion is identical in every process.
        """
        seeds = spawn_seeds(self.seed, self.num_arrays)
        if self.faults is not None:
            plans = self.faults.expand(self.num_arrays)
        else:
            plans = (None,) * self.num_arrays
        trace_specs = self._trace_shards(seeds)
        return [
            RunSpec(
                trace=trace_specs[i],
                array=dataclasses.replace(self.array, seed=seeds[i]),
                policy=self.policy,
                goal_s=self.goal_s,
                window_s=self.window_s,
                keep_latency_samples=self.keep_latency_samples,
                observe=self.observe,
                faults=plans[i],
            )
            for i in range(self.num_arrays)
        ]

    def _trace_shards(self, seeds: tuple[int, ...]) -> list[TraceSpec]:
        if self.partitioner == "replicate":
            return [
                TraceSpec.from_generator(
                    self.trace.generator,  # type: ignore[arg-type]
                    _reseeded(self.trace.config, seeds[i]),
                )
                for i in range(self.num_arrays)
            ]
        trace = self.trace.build()
        shards = partition_trace(
            trace, self.num_arrays, self.array.num_extents, self.partitioner
        )
        return [TraceSpec.from_trace(shard) for shard in shards]


def _reseeded(config: object, seed: int) -> object:
    """Copy of a generator config with its ``seed`` (and, when the
    config names its trace, ``name``) replaced per array."""
    fields = {f.name for f in dataclasses.fields(config)}  # type: ignore[arg-type]
    if "seed" not in fields:
        raise ValueError(
            f"{type(config).__name__} has no seed field; replicate "
            "partitioning cannot derive per-array workloads from it"
        )
    changes: dict[str, object] = {"seed": seed}
    return dataclasses.replace(config, **changes)  # type: ignore[arg-type]
