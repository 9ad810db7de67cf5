"""The public surface: the package root's exports and the benchmark's hooks.

``perfbench/tracer.py`` wraps functions by module and name; a rename or a
move in the package would make the traced benchmark pass fail, so each of
its targets is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import corrcount
from corrcount.core import Pmf

ROOT_EXPORTS = {
    "CorrelationModel",
    "Pmf",
    "CorrcountError",
    "MixtureSpec",
    "limit_pmf",
    "finite_count_pmf",
    "count_pmf_from_joint",
    "build_mixture_joint",
    "char_fn",
    "sample_counts",
    "estimate_coefficients",
    "run_identity_suite",
}


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_root_exports_exactly_the_entry_points():
    assert len(corrcount.__all__) == len(ROOT_EXPORTS)
    assert set(corrcount.__all__) == ROOT_EXPORTS
    for name in corrcount.__all__:
        assert getattr(corrcount, name) is not None


def test_benchmark_trace_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module = importlib.import_module(f"corrcount.{target.module}")
        assert callable(getattr(module, target.function)), target
    assert isinstance(Pmf.__dict__["from_values"], classmethod)
    assert callable(Pmf.from_values)


def test_benchmark_trace_installs_and_restores():
    tracer = load_tracer()
    originals = {
        t: getattr(importlib.import_module(f"corrcount.{t.module}"), t.function)
        for t in tracer.TARGETS
    }
    from_values = Pmf.__dict__["from_values"]
    trace = tracer.Trace()
    trace.install()
    try:
        corrcount.limit_pmf(corrcount.CorrelationModel.from_coefficients([1.0]))
    finally:
        trace.uninstall()
    assert trace.counts["limit.pmf_calls"] == 1
    assert trace.self_times()["core.pmf_from_values_s"] > 0.0
    for t, fn in originals.items():
        assert getattr(importlib.import_module(f"corrcount.{t.module}"), t.function) is fn
    assert Pmf.__dict__["from_values"] is from_values
