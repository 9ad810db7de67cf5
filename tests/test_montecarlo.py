import math

import numpy as np
import pytest

from corrcount import (
    BadSpecError,
    CorrelationModel,
    InadmissiblePmfError,
    MixtureSpec,
    OutOfRangeError,
    Pmf,
    TooFewSamplesError,
    build_mixture_joint,
    correlation_coefficient,
    correlation_partition,
    estimate_coefficients,
    limit_pmf,
    marginalize,
    sample_counts,
)
from corrcount.core import MAX_JOINT_EVENTS
from corrcount.verify import measure_coefficients

from conftest import make_random_mixture


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadSpecError):
            MixtureSpec(((0.5, 0.4), (0.4, 0.4)))

    def test_probability_bounds(self):
        with pytest.raises(BadSpecError):
            MixtureSpec(((1.5, 1.0),))
        with pytest.raises(BadSpecError):
            MixtureSpec(((-0.1, 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(BadSpecError):
            MixtureSpec(())


class TestBuildMixtureJoint:
    def test_all_or_nothing(self):
        joint = build_mixture_joint(MixtureSpec(((0.0, 0.5), (1.0, 0.5))), 3)
        assert joint.pattern_weight == (0.5, 0.0, 0.0, 0.5)

    def test_single_atom_is_iid(self):
        joint = build_mixture_joint(MixtureSpec(((0.25, 1.0),)), 5)
        coeffs = measure_coefficients(joint)
        assert coeffs[0] == pytest.approx(5 * 0.25, abs=1e-14)
        assert max(abs(c) for c in coeffs[1:]) == 0.0

    def test_two_atom_example(self):
        joint = build_mixture_joint(MixtureSpec(((0.2, 0.5), (0.8, 0.5))), 2)
        p1 = marginalize(joint, 1)
        assert p1.value_at((1,)) == pytest.approx(0.5, abs=1e-15)
        g2 = correlation_partition([p1, marginalize(joint, 2)])
        assert g2.value_at((1, 1)) == pytest.approx(0.09, abs=1e-15)
        assert correlation_coefficient(g2, 2) == pytest.approx(0.36, abs=1e-14)

    def test_coefficients_match_mixture_moments(self, rng):
        # C_1 = N E[p], C_2 = N^2 Var(p) for any Bernoulli mixture
        for _ in range(10):
            spec = make_random_mixture(rng)
            n = int(rng.integers(2, 7))
            joint = build_mixture_joint(spec, n)
            coeffs = measure_coefficients(joint, k_max=2)
            mean_p = math.fsum(w * p for p, w in spec.atoms)
            var_p = math.fsum(w * (p - mean_p) ** 2 for p, w in spec.atoms)
            assert coeffs[0] == pytest.approx(n * mean_p, abs=1e-10)
            assert coeffs[1] == pytest.approx(n * n * var_p, abs=1e-10)

    def test_bad_event_count(self):
        with pytest.raises(BadSpecError):
            build_mixture_joint(MixtureSpec(((0.5, 1.0),)), 0)

    def test_event_count_ceiling(self):
        spec = MixtureSpec(((0.3, 1.0),))
        assert build_mixture_joint(spec, MAX_JOINT_EVENTS).n == MAX_JOINT_EVENTS
        with pytest.raises(OutOfRangeError):
            build_mixture_joint(spec, MAX_JOINT_EVENTS + 1)


class TestSampleCounts:
    def test_determinism(self):
        pmf = limit_pmf(CorrelationModel.from_coefficients([2.0]))
        a = sample_counts(pmf, 1000, seed=42)
        b = sample_counts(pmf, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_counts(pmf, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_poisson_mean_within_standard_error(self):
        pmf = limit_pmf(CorrelationModel.from_coefficients([2.0]))
        counts = sample_counts(pmf, 10 ** 6, seed=7)
        se = math.sqrt(2.0 / 10 ** 6)
        assert abs(counts.mean() - 2.0) < 4 * se

    def test_point_mass(self):
        pmf = Pmf.from_values([1.0])
        counts = sample_counts(pmf, 5, seed=0)
        assert counts.tolist() == [0, 0, 0, 0, 0]

    def test_inadmissible_rejected(self):
        pmf = limit_pmf(CorrelationModel.from_coefficients([0.1, -5.0]))
        with pytest.raises(InadmissiblePmfError):
            sample_counts(pmf, 10, seed=0)

    def test_sample_count_domain(self):
        pmf = Pmf.from_values([1.0])
        with pytest.raises(OutOfRangeError):
            sample_counts(pmf, 0, seed=0)


class TestEstimateCoefficients:
    def test_constant_counts(self):
        report = estimate_coefficients([3] * 200, l_max=2, n_bootstrap=10, seed=1)
        assert report.c_hat == pytest.approx((3.0, -3.0), abs=1e-12)
        assert report.std_err == pytest.approx((0.0, 0.0), abs=1e-12)
        assert report.n_samples == 200
        assert report.n_bootstrap == 10

    def test_floor_on_sample_count(self):
        with pytest.raises(TooFewSamplesError):
            estimate_coefficients([1] * 99, l_max=2)

    def test_order_cap(self):
        with pytest.raises(OutOfRangeError):
            estimate_coefficients([1] * 100000, l_max=5)

    def test_negative_counts_rejected(self):
        with pytest.raises(OutOfRangeError):
            estimate_coefficients([3] * 99 + [-1], l_max=1)

    def test_determinism(self):
        pmf = limit_pmf(CorrelationModel.from_coefficients([2.0, 0.5]))
        counts = sample_counts(pmf, 20000, seed=3)
        a = estimate_coefficients(counts, l_max=2, seed=11)
        b = estimate_coefficients(counts, l_max=2, seed=11)
        assert a == b

    def test_consistency_with_growing_samples(self):
        pmf = limit_pmf(CorrelationModel.from_coefficients([2.0]))
        spread = {}
        for size in (10 ** 4, 10 ** 5, 10 ** 6):
            counts = sample_counts(pmf, size, seed=5)
            report = estimate_coefficients(counts, l_max=2, n_bootstrap=50, seed=5)
            spread[size] = report.std_err
            # truth within four bootstrap standard errors
            assert abs(report.c_hat[0] - 2.0) < 4 * report.std_err[0]
            assert abs(report.c_hat[1] - 0.0) < 4 * report.std_err[1]
        # bootstrap spread shrinks roughly like 1/sqrt(n)
        for order in (0, 1):
            assert spread[10 ** 5][order] < spread[10 ** 4][order]
            assert spread[10 ** 6][order] < spread[10 ** 5][order]

    def test_report_json_schema(self):
        import json

        report = estimate_coefficients([2] * 150, l_max=1, n_bootstrap=5, seed=0)
        data = json.loads(report.to_json())
        assert set(data) == {"c_hat", "std_err", "n_samples", "n_bootstrap"}
        assert data["n_samples"] == 150
        assert len(data["c_hat"]) == len(data["std_err"]) == 1
