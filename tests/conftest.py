import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

from corrcount import MixtureSpec, build_mixture_joint
from corrcount.core import ExchangeableJoint, OutOfRangeError


ROOT = Path(__file__).resolve().parent.parent


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH.

    Child processes (``python -m corrcount``, the scripts) then import the
    package under test, installed or not.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def load_tracer():
    """``perfbench/tracer.py``, loaded by path: perfbench is not a package."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_random_mixture(rng, n_atoms=None):
    if n_atoms is None:
        n_atoms = int(rng.integers(1, 4))
    ps = rng.uniform(0.0, 1.0, size=n_atoms)
    ws = rng.uniform(0.1, 1.0, size=n_atoms)
    ws = ws / ws.sum()
    ws[-1] = 1.0 - float(np.sum(ws[:-1]))
    return MixtureSpec(tuple(zip(ps.tolist(), ws.tolist())))


def make_random_joint(rng, n):
    return build_mixture_joint(make_random_mixture(rng), n)


def class_totals(table):
    """The class totals of a table or a joint: one sum per number of ones."""
    return table.mass if isinstance(table, ExchangeableJoint) else table.values


def pattern_value(table, pattern):
    """Value of an exchangeable table or joint at an explicit 0/1 argument pattern.

    Both store the total over the C(k, m) patterns with m ones; this oracle
    reads one pattern's equal share, the way the paper writes the table, as
    a function of k arguments.
    """
    pattern = tuple(pattern)
    totals = class_totals(table)
    assert len(pattern) == len(totals) - 1, (pattern, len(totals) - 1)
    assert set(pattern) <= {0, 1}, pattern
    m = sum(pattern)
    return totals[m] / math.comb(len(pattern), m)


ALL_OR_NOTHING_3 = build_mixture_joint(MixtureSpec(((0.0, 0.5), (1.0, 0.5))), 3)


def m_factor(n_l: int, l: int, k_l: int) -> int:
    """Number of ways to choose l ordered k_l-plets from n_l elements.

    Exact integer value n_l! / (n_l - l*k_l)! / k_l!; arbitrary size.  An
    oracle for the paper's arrangement counts.
    """
    for name, value in (("n_l", n_l), ("l", l), ("k_l", k_l)):
        if not isinstance(value, int):
            raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if l < 1 or k_l < 0:
        raise OutOfRangeError(f"need l >= 1 and k_l >= 0, got l={l}, k_l={k_l}")
    if n_l < l * k_l:
        raise OutOfRangeError(f"n_l = {n_l} below l*k_l = {l * k_l}")
    return (
        math.factorial(n_l)
        // math.factorial(n_l - l * k_l)
        // math.factorial(k_l)
    )
