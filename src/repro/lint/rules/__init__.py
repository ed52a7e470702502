"""Built-in rule modules; importing this package registers every rule.

Rule id namespaces:

* ``DET00x`` — determinism (:mod:`repro.lint.rules.determinism`)
* ``UNIT00x`` — unit consistency (:mod:`repro.lint.rules.units`)
* ``CACHE002`` — CODE_VERSION guard (:mod:`repro.lint.rules.cachekey`)
* ``OBS002`` — guarded observability emits (:mod:`repro.lint.rules.obspairing`)
* ``PROTO003`` — serve-protocol version guard (:mod:`repro.lint.rules.protocol`)
* ``RES00x`` — resource lifecycle (:mod:`repro.lint.rules.resources`)
* ``CONC003`` — module-level mutable state (:mod:`repro.lint.rules.concurrency`)
* ``LINT00x/9xx`` — engine pseudo-rules (:mod:`repro.lint.engine`)
"""

from repro.lint.rules import (
    cachekey,
    concurrency,
    determinism,
    obspairing,
    protocol,
    resources,
    units,
)

__all__ = [
    "cachekey",
    "concurrency",
    "determinism",
    "obspairing",
    "protocol",
    "resources",
    "units",
]
