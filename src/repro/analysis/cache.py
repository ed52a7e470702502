"""On-disk memoization of simulation results.

Every experiment run is a pure function of its spec (trace, array,
policy, goal), so results can be cached across processes and sessions.
:class:`ResultCache` stores pickled values under a content hash of the
spec plus a code-version tag, giving three invalidation levers:

* **automatic** — change any spec field and the key changes;
* **versioned** — bump :data:`CODE_VERSION` when simulator semantics
  change and every old entry becomes unreachable;
* **explicit** — :meth:`ResultCache.clear` (or ``python -m repro cache
  --clear``) deletes the entries on disk.

Keys are built by :func:`content_key`, which canonicalizes dataclasses,
dicts, numpy arrays and plain containers into a stable JSON form before
hashing, so logically-equal specs hash equally regardless of object
identity or dict insertion history.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator

import numpy as np

#: Bump whenever a change to the simulator alters the results a spec
#: produces (disk model, engine semantics, policy behaviour, ...).
#: Old cache entries become unreachable rather than silently stale.
CODE_VERSION = "2026.08-14"

_SUFFIX = ".result.pkl"


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable structure that is stable across
    processes for logically-equal inputs."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr() round-trips exactly; formatting floats any other way
        # would alias nearby spec values onto one key.
        return {"__float__": repr(obj)}
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {
            "__ndarray__": hashlib.sha256(arr.tobytes()).hexdigest(),
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if hasattr(obj, "cache_key"):
        return {"__custom__": type(obj).__qualname__, "key": _canonical(obj.cache_key())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__qualname__, "fields": fields}
    if isinstance(obj, dict):
        return {"__dict__": sorted((str(k), _canonical(v)) for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(_canonical(v), sort_keys=True) for v in obj)}
    if (isinstance(obj, type) or inspect.isfunction(obj)) and "<" not in obj.__qualname__:
        # A module-level function or class is identified by its name;
        # behaviour changes must be signalled through CODE_VERSION.
        return {"__callable__": f"{obj.__module__}.{obj.__qualname__}"}
    if callable(obj):
        # No name identifies a lambda, a closure, a bound method's
        # instance, a partial's arguments or a callable instance's state.
        raise TypeError(f"cannot build a stable cache key for {obj!r}: only "
                        "module-level functions and classes are keyed, by name")
    raise TypeError(f"cannot build a stable cache key for {type(obj).__qualname__}: {obj!r}")


def content_key(obj: Any, version: str = CODE_VERSION) -> str:
    """Stable hex digest of ``obj``'s content plus the code version."""
    payload = json.dumps({"version": version, "spec": _canonical(obj)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed pickle cache for simulation results.

    One file per entry (``<key><suffix>``), written atomically so a
    crashed or parallel writer can never leave a torn entry behind.
    Unreadable entries are treated as misses and deleted.

    Attributes:
        root: cache directory (created on first use).
        version: code-version tag folded into every key.
        hits / misses / stores: session counters for reporting.
    """

    def __init__(self, root: str | Path, version: str = CODE_VERSION) -> None:
        self.root = Path(root)
        self.version = version
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------------

    def key_for(self, spec: Any) -> str:
        """Content key of an arbitrary spec object."""
        return content_key(spec, version=self.version)

    # -- storage -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def get(self, key: str) -> Any | None:
        """Cached value for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Torn/corrupt/incompatible entry: drop it and miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob(f"*{_SUFFIX}")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        """Total bytes held by cache entries."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        """Session counters plus on-disk entry count."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"
