"""Named counters and gauges for run metrics.

The registry replaces the ad-hoc ``extras`` dict plumbing: instead of
every policy assembling its own dict at the end of a run, components
register named instruments on the simulation's
:class:`MetricsRegistry` during ``attach`` and update them as events
happen. The runner flattens the registry into
``SimulationResult.extras`` at the end, so downstream consumers (tables,
CSV/JSON export, benchmarks) are unchanged.

Instrument types:

* :class:`Counter` — monotonically increasing count (epochs seen,
  boosts entered);
* :class:`Gauge` — last-write-wins value (final deficit, final epoch
  length, wall-clock spent simulating).

Names must be unique across instrument types; asking for an existing
name with a different type is a bug and raises.
"""

from __future__ import annotations

import math
from typing import TypeVar


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Constrained so ``_get`` returns exactly the instrument type asked for.
_InstrumentT = TypeVar("_InstrumentT", Counter, Gauge)


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    One registry lives on each :class:`~repro.sim.runner.ArraySimulation`
    (fresh per run, so policies reused across runs cannot leak state) and
    is flattened into ``SimulationResult.extras`` when the run ends.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge] = {}

    def _get(self, name: str, cls: type[_InstrumentT]) -> _InstrumentT:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        instrument = cls(name)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def as_dict(self) -> dict[str, float]:
        """Flatten every instrument to ``{name: value}``, sorted by name."""
        return {name: self._instruments[name].value for name in sorted(self._instruments)}

    def snapshot(self) -> dict[str, dict[str, float | str | None]]:
        """Typed view of every instrument, sorted by name.

        The serve daemon's ``status`` payload: unlike :meth:`as_dict`
        this keeps the instrument type so a dashboard can render
        counters and gauges differently. Values are JSON-strict:
        non-finite floats become None.
        """
        out: dict[str, dict[str, float | str | None]] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            value = instrument.value
            out[name] = {
                "type": type(instrument).__name__.lower(),
                "value": value if math.isfinite(value) else None,
            }
        return out
