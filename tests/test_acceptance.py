"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from corrcount import (
    CorrelationModel,
    MixtureSpec,
    build_mixture_joint,
    char_fn,
    count_pmf_from_joint,
    estimate_coefficients,
    finite_count_pmf,
    limit_pmf,
    sample_counts,
)
from corrcount.cli import main
from corrcount.limit import factorial_cumulants
from corrcount.ursell import (
    correlation_partition,
    correlation_recursive_expanded,
    marginalize,
    probability_from_correlations,
)
from corrcount.verify import (
    measure_coefficients,
    random_admissible_model,
    random_joint,
    random_model,
)

from conftest import subprocess_env


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_pmf_csv(text):
    rows = text.strip().splitlines()
    assert rows[0] == "s,p"
    return {int(s): float(p) for s, p in (row.split(",") for row in rows[1:])}


def test_c01_poisson_recovery(capsys):
    with criterion(1, "limit-pmf --c 2.0 matches Poisson(2) to 1e-12 for s <= 40"):
        start = time.perf_counter()
        code, out = run_cli(capsys, "limit-pmf", "--c", "2.0")
        elapsed = time.perf_counter() - start
        assert code == 0
        pmf = parse_pmf_csv(out)
        for s in range(41):
            expected = math.exp(-2.0) * 2.0 ** s / math.factorial(s)
            assert abs(pmf.get(s, 0.0) - expected) <= 1e-12
        assert elapsed < 1.0


def test_c02_exact_small_case(capsys):
    with criterion(2, "finite-pmf --n 3 --c 1.5,2.25 = (0.5, 0, 0, 0.5) to 1e-12"):
        code, out = run_cli(capsys, "finite-pmf", "--n", "3", "--c", "1.5,2.25")
        assert code == 0
        pmf = parse_pmf_csv(out)
        for s, expected in enumerate((0.5, 0.0, 0.0, 0.5)):
            assert abs(pmf[s] - expected) <= 1e-12


def test_c03_full_oracle_equivalence():
    with criterion(3, "100 random joints (N <= 7): full-order model pmf == joint pmf to 1e-10"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(100):
            joint = random_joint(rng, n_max=7)
            coeffs = measure_coefficients(joint)
            rebuilt = finite_count_pmf(
                CorrelationModel(coeffs, n=joint.n)
            )
            direct = count_pmf_from_joint(joint)
            worst = max(
                worst, max(abs(a - b) for a, b in zip(rebuilt.values, direct.values))
            )
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10
        assert elapsed < 60.0


def test_c04_ursell_suite():
    with criterion(4, "expansion identities on 50 random joints (N <= 6) at 1e-12; iid C_k at 1e-10"):
        rng = np.random.default_rng(404)
        worst_eq = worst_sym = worst_flip = worst_round = 0.0
        for _ in range(50):
            joint = random_joint(rng, n_max=6)
            top = min(joint.n, 6)
            p_tables = [marginalize(joint, k) for k in range(1, top + 1)]
            for k in range(2, top + 1):
                expanded = correlation_recursive_expanded(p_tables[:k])
                partition = correlation_partition(p_tables[:k])
                for m in range(k + 1):
                    canonical = (1,) * m + (0,) * (k - m)
                    per_pattern = partition.values[m] / math.comb(k, m)
                    worst_eq = max(worst_eq, abs(expanded[canonical] - per_pattern))
                for pattern, value in expanded.items():
                    for sigma in itertools.permutations(range(k)):
                        permuted = tuple(pattern[i] for i in sigma)
                        worst_sym = max(worst_sym, abs(value - expanded[permuted]))
                    if pattern[0] == 1:
                        worst_flip = max(
                            worst_flip, abs(value + expanded[(0,) + pattern[1:]])
                        )
            g_tables = [correlation_partition(p_tables[:k]) for k in range(1, top + 1)]
            rebuilt = probability_from_correlations(g_tables)
            worst_round = max(
                worst_round,
                max(abs(a - b) for a, b in zip(rebuilt.values, p_tables[-1].mass)),
            )
        assert worst_eq <= 1e-12
        assert worst_sym <= 1e-12
        assert worst_flip <= 1e-12
        assert worst_round <= 1e-12

        # iid joints: all genuine correlations vanish (dyadic atoms keep the
        # family exactly representable, so residues expose logic errors)
        worst_iid = 0.0
        for _ in range(10):
            p = int(rng.integers(4, 61)) / 64.0
            joint = build_mixture_joint(MixtureSpec(((p, 1.0),)), 6)
            coeffs = measure_coefficients(joint)
            worst_iid = max(worst_iid, max(abs(c) for c in coeffs[1:6]))
        assert worst_iid <= 1e-10


def test_c05_normalization_and_mean():
    with criterion(5, "sum p_N = 1 (1e-9) and mean = C_1 (1e-8) for 100 random models"):
        rng = np.random.default_rng(505)
        worst_norm = worst_mean = 0.0
        n_inadmissible = 0
        for i in range(100):
            model = random_model(rng, n=(10, 100, 1000)[i % 3])
            pmf = finite_count_pmf(model)
            if not pmf.admissible:
                n_inadmissible += 1
            worst_norm = max(worst_norm, abs(pmf.total_mass() - 1.0))
            worst_mean = max(worst_mean, abs(pmf.mean() - model.coefficient(1)))
        assert worst_norm <= 1e-9
        assert worst_mean <= 1e-8
        assert n_inadmissible > 0  # the identities hold beyond admissibility


def test_c06_convergence_rate():
    with criterion(6, "finite-to-limit error halves with N for C = (1, 0.3)"):
        start = time.perf_counter()
        model_inf = CorrelationModel([1.0, 0.3])
        p_inf = np.array(limit_pmf(model_inf, mass_tolerance=1e-12).values)
        errors = {}
        for n in (125, 250, 500, 1000):
            pmf = finite_count_pmf(CorrelationModel([1.0, 0.3], n=n))
            p_n = np.array(pmf.values)
            length = max(p_n.size, p_inf.size)
            a = np.zeros(length)
            a[: p_n.size] = p_n
            b = np.zeros(length)
            b[: p_inf.size] = p_inf
            errors[n] = float(np.max(np.abs(a - b)))
        for n in (125, 250, 500):
            ratio = errors[n] / errors[2 * n]
            assert 1.6 <= ratio <= 2.4
        assert time.perf_counter() - start < 10.0


def test_c07_cf_pmf_duality():
    with criterion(7, "pmf Fourier sum matches closed-form cf to 1e-8 on 20 admissible models"):
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(20):
            model = random_admissible_model(rng)
            pmf = limit_pmf(model, mass_tolerance=1e-12)
            assert pmf.tail_bound <= 1e-12
            grid = np.linspace(0.0, 2.0 * math.pi, 32)
            cf = char_fn(model, grid)
            s = np.arange(len(pmf.values))
            p = np.asarray(pmf.values)
            for u, chi in zip(cf.u, cf.chi):
                series = complex(np.sum(p * np.exp(1j * u * s)))
                worst = max(worst, abs(series - chi))
        assert worst <= 1e-8


def test_c08_coefficient_round_trip():
    with criterion(8, "factorial cumulants of limit pmf return C to 1e-8 on 20 admissible models"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            model = random_admissible_model(rng)
            pmf = limit_pmf(model, mass_tolerance=1e-12)
            cumulants = factorial_cumulants(pmf.values, model.l_max)
            for got, want in zip(cumulants, model.c):
                assert abs(got - want) <= 1e-8


def test_c09_estimator_consistency():
    with criterion(9, "10^6 samples from C = (2, 0.5) recover both coefficients within 4 SE"):
        start = time.perf_counter()
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        counts = sample_counts(pmf, 10 ** 6, seed=42)
        report = estimate_coefficients(counts, l_max=2, n_bootstrap=200, seed=7)
        for got, want, se in zip(report.c_hat, (2.0, 0.5), report.std_err):
            assert abs(got - want) <= 4 * se
        assert time.perf_counter() - start < 30.0


def test_c10_determinism(tmp_path):
    with criterion(10, "sample and estimate are byte-identical across reruns with one seed"):
        env = subprocess_env()
        sample_cmd = [
            sys.executable, "-m", "corrcount",
            "sample", "--c", "2.0,0.5", "--count", "20000", "--seed", "42",
        ]
        first = subprocess.run(sample_cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(sample_cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout

        counts_file = tmp_path / "counts.txt"
        counts_file.write_bytes(first.stdout)
        estimate_cmd = [
            sys.executable, "-m", "corrcount",
            "estimate", "--input", str(counts_file), "--lmax", "2", "--seed", "7",
        ]
        first = subprocess.run(estimate_cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(estimate_cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert set(report) == {"c_hat", "std_err", "n_samples", "n_bootstrap"}
