"""One-dimensional parameter sweeps over simulation runs.

Each sweep point is independent, so :func:`sweep` can fan points out
over worker processes (``jobs=``) and memoize per-point metrics on disk
(``cache=``) — see :mod:`repro.analysis.parallel` for the execution
machinery and the determinism guarantee (results are identical for any
job count). Defaults stay sequential and uncached.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.analysis.cache import ResultCache

T = TypeVar("T")


@dataclass
class SweepPoint:
    """One point of a sweep: the parameter value and arbitrary metrics."""

    value: float
    metrics: dict[str, float]


def _call_tag(run: Callable, cache_tag: str | None) -> str:
    """Stable identity of the per-point callable, for cache keys."""
    if cache_tag is not None:
        return cache_tag
    if not inspect.isfunction(run) or "<" in run.__qualname__:
        raise ValueError(
            "cannot derive a stable cache key for this callable (lambda, "
            "closure, bound method or partial); pass cache_tag= explicitly"
        )
    return f"{run.__module__}.{run.__qualname__}"


def sweep(
    values: Sequence[T],
    run: Callable[[T], dict[str, float]],
    value_of: Callable[[T], float] = float,  # type: ignore[assignment]
    jobs: int = 1,
    cache: ResultCache | None = None,
    cache_tag: str | None = None,
) -> list[SweepPoint]:
    """Run ``run(v)`` for each value, collecting metric dictionaries.

    Args:
        values: parameter values, in presentation order.
        run: executes one configuration, returns named metrics. Must be
            picklable (a module-level function) when ``jobs > 1``.
        value_of: numeric projection of the value for the x-axis.
        jobs: worker processes to fan the points over (1 = in-process).
        cache: optional on-disk cache; per-point metrics are memoized
            under ``(callable identity, value)`` plus the code version.
        cache_tag: explicit cache identity for ``run`` when it has no
            stable qualified name (lambdas, closures, partials).
    """
    n = len(values)
    metrics_by_index: list[dict[str, float] | None] = [None] * n
    keys: dict[int, str] = {}
    pending = list(range(n))
    if cache is not None:
        tag = _call_tag(run, cache_tag)
        pending = []
        for i, v in enumerate(values):
            key = cache.key_for_call(tag, v)
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                metrics_by_index[i] = hit
            else:
                pending.append(i)
    if pending:
        from repro.analysis.parallel import map_parallel

        fresh = map_parallel(run, [values[i] for i in pending], jobs=jobs)
        for i, metrics in zip(pending, fresh):
            metrics_by_index[i] = metrics
            if cache is not None:
                cache.put(keys[i], metrics)
    return [
        SweepPoint(value=value_of(v), metrics=metrics_by_index[i])  # type: ignore[arg-type]
        for i, v in enumerate(values)
    ]


def series(points: Sequence[SweepPoint], metric: str) -> list[tuple[float, float]]:
    """Extract one (x, metric) series from sweep points."""
    return [(p.value, p.metrics[metric]) for p in points]
