"""The public surface: the package root's exports, the documented ceilings
and the benchmark's hooks.

``perfbench/tracer.py`` wraps functions by module and name; a rename or a
move in the package would make the traced benchmark pass fail, so each of
its targets is resolved here.  The tracer finds the modules in
``sys.modules`` right after ``import corrcount`` and ``import
corrcount.cli``, so those imports must load all of them; and they must
not load numpy, which only the commands that compute with arrays import,
nor the other modules in ``START_UP_FREE``, which every job would pay for.

Each ceiling constant stands in README "Ceilings" as ``module.NAME = value``,
with the value the code holds.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import corrcount
from corrcount.core import Pmf

from conftest import load_tracer, subprocess_env

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


def test_root_exports_exactly_the_entry_points():
    assert len(corrcount.__all__) == len(ROOT_EXPORTS)
    assert set(corrcount.__all__) == ROOT_EXPORTS
    for name in corrcount.__all__:
        assert getattr(corrcount, name) is not None


README = Path(__file__).resolve().parent.parent / "README.md"
CEILINGS = [
    "finite.MAX_EVENT_COUNT", "finite.MAX_RING_BYTES", "limit.SUPPORT_CAP", "limit.MAX_ORDER",
    "core.MAX_POINTS", "verify.VERIFY_MAX_N", "ursell.RECURSION_MAX_ORDER",
    "montecarlo.MAX_ESTIMATE_ORDER",
]


@pytest.mark.parametrize("constant", CEILINGS)
def test_every_ceiling_is_documented_with_its_value(constant):
    module, name = constant.split(".")
    value = getattr(importlib.import_module(f"corrcount.{module}"), name)
    section = README.read_text(encoding="utf-8").partition("\n## Ceilings\n")[2]
    section = " ".join(section.partition("\n## ")[0].split())  # lines joined
    assert f"`{constant} = {value:_}`" in section


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
        corrcount.limit_pmf(corrcount.CorrelationModel([1.0]))
    finally:
        trace.uninstall()
    assert trace.counts["limit.pmf_calls"] == 1
    assert trace.self_times()["core.pmf_from_values_s"] > 0.0
    for t, fn in originals.items():
        assert getattr(importlib.import_module(f"corrcount.{t.module}"), t.function) is fn
    assert Pmf.__dict__["from_values"] is from_values


CLI_PROBE = """
import contextlib, io, sys
from corrcount import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:  # argparse ends --help this way
        code = exc.code
print(code)
"""


def fresh_modules(code: str) -> tuple[str, set[str]]:
    """(stdout before the last line, sys.modules) after ``code`` runs in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=subprocess_env(),
    )
    *head, modules = done.stdout.splitlines()
    return "\n".join(head), set(modules.split())


@pytest.mark.parametrize("statement", ["import corrcount", "import corrcount.cli"])
def test_package_import_loads_every_traced_module_but_not_numpy(statement):
    traced = {f"corrcount.{t.module}" for t in load_tracer().TARGETS} | {"corrcount.core"}
    _, modules = fresh_modules(statement)
    assert traced <= modules
    assert "numpy" not in modules


SUBMODULES = {
    f"corrcount.{name}"
    for name in ("core", "finite", "limit", "montecarlo", "ursell", "verify")
}
# Each costs start-up time that no command needs before it runs.
START_UP_FREE = {
    "cmath", "dataclasses", "decimal", "fractions", "inspect", "json", "numbers",
    "numpy",
}


def test_cli_import_adds_only_what_starting_needs():
    # Measured against a bare interpreter, whose `site` may preload modules.
    _, baseline = fresh_modules("pass")
    _, modules = fresh_modules("import corrcount.cli")
    added = modules - baseline
    assert SUBMODULES <= added
    assert not added & START_UP_FREE


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["limit-pmf"], 3),
        (["limit-pmf", "--c", "10000,500,10,0.5", "--format", "json"], 0),
        (["oracle-pmf", "--n", "1000", "--mixture", "0.2:0.5,0.6:0.5"], 0),
        (["cf", "--c", "2", "--u", "0:1:5"], 0),
        (["cf", "--c", "2,0.5", "--u", "0:1:5", "--format", "json"], 0),
    ],
)
def test_scalar_commands_never_import_numpy(argv, code):
    out, modules = fresh_modules(CLI_PROBE.format(argv=argv))
    assert out == str(code)
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "argv",
    [["finite-pmf", "--n", "200", "--c", "3,0.6"]],
)
def test_array_commands_do_not_import_numpy_random(argv):
    out, modules = fresh_modules(CLI_PROBE.format(argv=argv))
    assert out == "0"
    assert "numpy" in modules
    assert "numpy.random" not in modules
