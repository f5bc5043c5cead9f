"""The names and calls the benchmark under ``perfbench/`` relies on.

The benchmark rebinds module globals of esfscan by name and calls the
public recursion API directly.  A rename or a removed import in ``src/``
would otherwise show up only as crashed benchmark repetitions.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench_module(name, monkeypatch):
    """Import perfbench/<name>.py by file path, registered for the test only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    assert tracing.GLOBAL_HOOKS
    for module_name, attr, _span in tracing.GLOBAL_HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_symfun_probes_run(monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    probes = workloads.symfun_probes(40)
    assert set(probes) == {"symfun.advance_s", "symfun.omit_us_per_triple"}
    assert all(value >= 0 for value in probes.values())
