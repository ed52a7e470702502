"""Golden result digests: the byte-identity pins on simulator behaviour.

:func:`golden_specs` names a small set of run recipes; the
runtime-stripped :func:`result_digest` of each is pinned by
``tests/golden/golden_results.json`` (regenerated with ``repro perf
--write-golden PATH``), so "faster" or "simpler" can never silently
mean "different". Host-time performance is measured by the repo
benchmark, ``bench/run.py``, not here.
"""

from repro.perf.digest import DIGEST_VERSION, result_digest, strip_runtime
from repro.perf.scenarios import golden_specs, write_golden

__all__ = [
    "DIGEST_VERSION",
    "golden_specs",
    "result_digest",
    "strip_runtime",
    "write_golden",
]
