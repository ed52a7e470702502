"""Experiment harness and reporting.

* :mod:`repro.analysis.experiments` -- run policy comparisons the way
  the paper does: Base first (defines the goal), then every scheme on
  the identical trace and array.
* :mod:`repro.analysis.parallel` -- picklable run specs, the paper's
  comparison set as named specs, and ``execute``: the one process
  fan-out, with the determinism guarantee behind ``jobs=``.
* :mod:`repro.analysis.cache` -- on-disk memoization of run results
  keyed by spec content plus a code-version tag.
* :mod:`repro.analysis.energy` -- unit helpers and savings arithmetic.
* :mod:`repro.analysis.report` -- plain-text tables/series formatting
  shared by the benchmarks and examples.
"""

from repro.analysis.cache import CODE_VERSION, ResultCache, content_key
from repro.analysis.energy import joules_to_kwh, savings_fraction
from repro.analysis.experiments import (
    ComparisonResult,
    default_array_config,
    derive_goal,
    run_comparison,
    run_single,
)
from repro.analysis.parallel import (
    PolicySpec,
    RunSpec,
    TraceSpec,
    comparison_specs,
    execute,
    execute_one,
    run_spec,
)
from repro.analysis.report import format_count, format_duration, format_series, format_table

__all__ = [
    "joules_to_kwh",
    "savings_fraction",
    "ComparisonResult",
    "default_array_config",
    "derive_goal",
    "run_comparison",
    "run_single",
    "CODE_VERSION",
    "ResultCache",
    "content_key",
    "PolicySpec",
    "RunSpec",
    "TraceSpec",
    "comparison_specs",
    "execute",
    "execute_one",
    "run_spec",
    "format_table",
    "format_series",
    "format_count",
    "format_duration",
]
