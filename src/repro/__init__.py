"""repro: a reproduction of *Hibernator: helping disk arrays sleep
through the winter* (SOSP 2005).

Quick start::

    from repro import (
        HibernatorConfig, HibernatorPolicy,
        default_array_config, generate_oltp, run_comparison,
    )

    trace = generate_oltp()
    comparison = run_comparison(trace, default_array_config(), slack=1.5)
    print(comparison.rows())

Package map (details in DESIGN.md):

* :mod:`repro.sim` -- discrete-event engine, request model, runner.
* :mod:`repro.disks` -- multi-speed disk array substrate.
* :mod:`repro.traces` -- workload generators (OLTP, Cello99-style).
* :mod:`repro.policies` -- baselines: Base, TPM, DRPM, PDC, MAID.
* :mod:`repro.core` -- Hibernator itself (CR speed setting, tiered
  layout, shuffling migration, response-time guarantee).
* :mod:`repro.analysis` -- experiment harness and reporting.
"""

from repro.analysis.experiments import (
    ComparisonResult,
    default_array_config,
    derive_goal,
    run_comparison,
    run_single,
)
from repro.core.guarantee import BoostController, GuaranteeConfig
from repro.core.hibernator import HibernatorConfig, HibernatorPolicy
from repro.core.speed_setting import SpeedSettingConfig
from repro.disks.array import ArrayConfig, DiskArray
from repro.disks.specs import DiskSpec, make_multispeed_spec, ultrastar_36z15
from repro.policies.always_on import AlwaysOnPolicy
from repro.policies.drpm import DrpmConfig, DrpmPolicy
from repro.policies.maid import MaidConfig, MaidPolicy, maid_array_config
from repro.policies.oracle import OraclePolicy
from repro.policies.pdc import PdcConfig, PdcPolicy
from repro.policies.tpm import TpmConfig, TpmPolicy
from repro.sim.runner import ArraySimulation, SimulationResult
from repro.traces.cello import CelloConfig, generate_cello
from repro.traces.model import Trace, TraceBuilder
from repro.traces.oltp import OltpConfig, generate_oltp
from repro.traces.synthetic import SyntheticConfig, generate_synthetic
from repro.traces.tracestats import compute_trace_stats

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ComparisonResult",
    "default_array_config",
    "derive_goal",
    "run_comparison",
    "run_single",
    "BoostController",
    "GuaranteeConfig",
    "HibernatorConfig",
    "HibernatorPolicy",
    "SpeedSettingConfig",
    "ArrayConfig",
    "DiskArray",
    "DiskSpec",
    "make_multispeed_spec",
    "ultrastar_36z15",
    "AlwaysOnPolicy",
    "DrpmConfig",
    "DrpmPolicy",
    "MaidConfig",
    "MaidPolicy",
    "maid_array_config",
    "OraclePolicy",
    "PdcConfig",
    "PdcPolicy",
    "TpmConfig",
    "TpmPolicy",
    "ArraySimulation",
    "SimulationResult",
    "CelloConfig",
    "generate_cello",
    "Trace",
    "TraceBuilder",
    "OltpConfig",
    "generate_oltp",
    "SyntheticConfig",
    "generate_synthetic",
    "compute_trace_stats",
]
