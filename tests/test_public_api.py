"""Public API surface tests: imports, __all__, and docstrings."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.sim", "repro.sim.engine", "repro.sim.request", "repro.sim.stats",
    "repro.sim.runner",
    "repro.disks", "repro.disks.specs", "repro.disks.mechanics",
    "repro.disks.power", "repro.disks.scheduling", "repro.disks.disk",
    "repro.disks.mapping", "repro.disks.array", "repro.disks.raid",
    "repro.disks.rebuild",
    "repro.traces", "repro.traces.model", "repro.traces.io",
    "repro.traces.synthetic", "repro.traces.oltp", "repro.traces.cello",
    "repro.traces.tracestats", "repro.traces.transforms", "repro.traces.ingest",
    "repro.policies", "repro.policies.base", "repro.policies.always_on",
    "repro.policies.tpm", "repro.policies.drpm", "repro.policies.pdc",
    "repro.policies.maid", "repro.policies.oracle",
    "repro.faults", "repro.faults.plan", "repro.faults.injector",
    "repro.core", "repro.core.temperature", "repro.core.response_model",
    "repro.core.speed_setting", "repro.core.layout", "repro.core.migration",
    "repro.core.guarantee", "repro.core.hibernator",
    "repro.analysis", "repro.analysis.energy", "repro.analysis.experiments",
    "repro.analysis.report",
    "repro.analysis.parallel", "repro.analysis.cache",
    "repro.analysis.ascii_plot", "repro.analysis.export",
    "repro.analysis.atomicio",
    "repro.obs", "repro.obs.events", "repro.obs.metrics",
    "repro.obs.tracelog", "repro.obs.summary",
    "repro.serve", "repro.serve.protocol", "repro.serve.daemon",
    "repro.serve.client",
    "repro.lint", "repro.lint.findings", "repro.lint.context",
    "repro.lint.registry", "repro.lint.engine", "repro.lint.reporters",
    "repro.lint.guard",
    "repro.lint.rules", "repro.lint.rules.determinism",
    "repro.lint.rules.units", "repro.lint.rules.cachekey",
    "repro.lint.rules.obspairing", "repro.lint.rules.protocol",
    "repro.lint.rules.resources", "repro.lint.rules.concurrency",
    "repro.perf", "repro.perf.scenarios", "repro.perf.digest",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name}"


def test_subpackage_all_exports_resolve():
    for pkg_name in ("repro.sim", "repro.disks", "repro.traces",
                     "repro.policies", "repro.core", "repro.analysis"):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name}"


def test_every_source_module_is_in_the_checklist():
    """New modules must be added to MODULES (keeps the docstring check
    exhaustive)."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        found.add(info.name)
    missing = found - set(MODULES)
    assert not missing, f"modules missing from the API checklist: {sorted(missing)}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_public_classes_have_docstrings():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{name} lacks a class docstring"
