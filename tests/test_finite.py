import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcount import (
    BadShapeError,
    CorrelationModel,
    MixtureSpec,
    SeriesOverflowError,
    TrailingZeroWarning,
    build_exponent,
    build_mixture_joint,
    count_pmf_from_joint,
    finite_count_pmf,
    limit_pmf,
    m_factor,
    p_full_count,
)
from corrcount.verify import measure_coefficients

from conftest import ALL_OR_NOTHING_3, make_random_joint


class TestCountPmfFromJoint:
    def test_all_or_nothing(self):
        pmf = count_pmf_from_joint(ALL_OR_NOTHING_3)
        assert pmf.values == (0.5, 0.0, 0.0, 0.5)
        assert pmf.tail_bound == 0.0

    def test_iid_half_is_binomial(self):
        joint = build_mixture_joint(MixtureSpec(((0.5, 1.0),)), 2)
        assert count_pmf_from_joint(joint).values == (0.25, 0.5, 0.25)

    def test_two_point_mixture(self):
        spec = MixtureSpec(((0.2, 0.5), (0.8, 0.5)))
        pmf = count_pmf_from_joint(build_mixture_joint(spec, 2))
        assert pmf.values[2] == pytest.approx(0.34, abs=1e-15)


class TestBuildExponent:
    def test_two_order_example(self):
        poly = build_exponent(CorrelationModel.from_coefficients([1.5, 2.25], n=3))
        assert poly.rows[0] == (0.5, 0.5)
        assert poly.rows[1] == pytest.approx((0.125, -0.25, 0.125), abs=1e-16)

    def test_first_order_only(self):
        poly = build_exponent(CorrelationModel.from_coefficients([3.0], n=10))
        assert poly.degree == 1
        assert poly.rows[0] == (0.7, 0.3)

    def test_rows_telescope(self, rng):
        for _ in range(20):
            l_max = int(rng.integers(1, 6))
            c = rng.uniform(-5, 5, size=l_max).tolist()
            model = CorrelationModel.from_coefficients(c, n=int(rng.integers(l_max, 50)))
            poly = build_exponent(model)
            assert abs(math.fsum(poly.rows[0]) - 1.0) <= 1e-14
            for row in poly.rows[1:]:
                assert abs(math.fsum(row)) <= 1e-14

    def test_requires_event_count(self):
        with pytest.raises(BadShapeError):
            build_exponent(CorrelationModel.from_coefficients([1.0, 0.5]))


class TestFiniteCountPmf:
    def test_first_order_is_binomial(self):
        pmf = finite_count_pmf(CorrelationModel.from_coefficients([1.0], n=2))
        assert pmf.values == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_all_or_nothing_coefficients(self):
        # measured coefficients of the all-or-nothing joint: C = (1.5, 2.25, 0)
        measured = measure_coefficients(ALL_OR_NOTHING_3)
        assert measured[0] == pytest.approx(1.5, abs=1e-14)
        assert measured[1] == pytest.approx(2.25, abs=1e-14)
        assert measured[2] == pytest.approx(0.0, abs=1e-13)
        pmf = finite_count_pmf(CorrelationModel.from_coefficients([1.5, 2.25], n=3))
        assert pmf.values == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-14)

    def test_truncation_consistency(self):
        # a joint correlation-free beyond l_max is reproduced by truncation
        truncated = finite_count_pmf(
            CorrelationModel.from_coefficients([1.5, 2.25], n=3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TrailingZeroWarning)
            full = finite_count_pmf(
                CorrelationModel.from_coefficients([1.5, 2.25, 0.0], n=3)
            )
        assert truncated.values == pytest.approx(full.values, abs=1e-15)

    def test_large_n_approaches_limit(self):
        p_inf = limit_pmf(CorrelationModel.from_coefficients([1.0, 0.3]))
        expected0 = math.exp(-1.0 + 0.15)
        assert p_inf.values[0] == pytest.approx(expected0, abs=1e-13)
        err = {}
        for n in (1000, 2000):
            pmf = finite_count_pmf(CorrelationModel.from_coefficients([1.0, 0.3], n=n))
            err[n] = abs(pmf.values[0] - p_inf.values[0])
        assert err[1000] < 5.0 / 1000
        assert 1.6 < err[1000] / err[2000] < 2.4

    def test_oracle_equivalence_on_random_joints(self, rng):
        for _ in range(20):
            joint = make_random_joint(rng, n=int(rng.integers(2, 8)))
            coeffs = measure_coefficients(joint)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TrailingZeroWarning)
                rebuilt = finite_count_pmf(
                    CorrelationModel.from_coefficients(coeffs, n=joint.n)
                )
            direct = count_pmf_from_joint(joint)
            assert max(
                abs(a - b) for a, b in zip(rebuilt.values, direct.values)
            ) < 1e-10

    def test_error_estimate_tracks_conditioning(self):
        benign = finite_count_pmf(CorrelationModel.from_coefficients([1.0, 0.2], n=50))
        assert 0.0 < benign.error_estimate < 1e-12
        wild = finite_count_pmf(CorrelationModel.from_coefficients([1.0, 40.0], n=50))
        assert wild.error_estimate > benign.error_estimate

    def test_error_estimate_matches_array_shadow(self, rng):
        models = [
            CorrelationModel.from_coefficients([1.0, 40.0], n=50),
            CorrelationModel.from_coefficients([0.1, -5.0], n=20),
        ]
        for i in range(16):
            l_max = int(rng.integers(1, 5))
            c = rng.uniform(-5, 5, size=l_max).tolist()
            n = (4, 17, 60, 200)[i % 4]
            models.append(CorrelationModel.from_coefficients(c, n=n))
        for model in models:
            want = array_shadow_error_estimate(model)
            got = finite_count_pmf(model).error_estimate
            assert abs(got - want) <= 1e-12 * want

    def test_event_count_ceiling(self):
        with pytest.raises(SeriesOverflowError):
            finite_count_pmf(CorrelationModel.from_coefficients([1.0], n=100_001))

    def test_requires_n_at_least_l_max(self):
        with pytest.raises(BadShapeError):
            finite_count_pmf(CorrelationModel.from_coefficients([1.0, 0.5, 0.1], n=2))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        c=st.lists(st.floats(-5, 5).filter(lambda x: x != 0), min_size=1, max_size=4),
    )
    def test_normalization_and_mean_for_any_coefficients(self, n, c):
        # Far outside admissibility the true entries oscillate at huge
        # amplitude; accuracy there is governed by the shipped cancellation
        # estimate rather than the absolute tolerance.
        n = max(n, len(c))
        model = CorrelationModel.from_coefficients(c, n=n)
        pmf = finite_count_pmf(model)
        norm_tol = max(1e-9, n * pmf.error_estimate)
        mean_tol = max(
            1e-9 * max(1.0, abs(c[0])), 10.0 * n * pmf.error_estimate
        )
        assert abs(pmf.total_mass() - 1.0) <= norm_tol
        assert abs(pmf.mean() - c[0]) <= mean_tol

    def test_normalization_and_mean_in_moderate_envelope(self, rng):
        # raw tolerances hold throughout the desk-scale envelope
        for i in range(60):
            l_max = int(rng.integers(1, 5))
            c = rng.uniform(-5, 5, size=l_max)
            if c[-1] == 0.0:
                c[-1] = 1.0
            n = (10, 100, 1000)[i % 3]
            model = CorrelationModel.from_coefficients(c.tolist(), n=max(n, l_max))
            pmf = finite_count_pmf(model)
            assert abs(pmf.total_mass() - 1.0) <= 1e-9
            assert abs(pmf.mean() - c[0]) <= 1e-9 * max(1.0, abs(c[0]))


def array_shadow_error_estimate(model):
    """eps times the summed absolute-value shadow of the pmf recurrence.

    The literal array form: every y-polynomial H_n of the recurrence is
    rebuilt from |j * a_{j,t} * (n-1)!/(n-j)!| times the shadow of
    H_{n-j}, and the entries of the shadow of H_N are summed.
    """
    rows = build_exponent(model).rows
    window = [np.array([1.0])]
    for n in range(1, model.n + 1):
        acc = np.zeros(n + 1)
        for j in range(1, min(n, len(rows)) + 1):
            prev = window[-j]
            ratio = float(math.perm(n - 1, j - 1))
            for t, a in enumerate(rows[j - 1]):
                acc[t : t + prev.size] += abs(j * a * ratio) * prev
        window.append(acc)
    return float(window[-1].sum()) * float(np.finfo(float).eps)


def iter_multiplicity_vectors(n, l_max):
    """All (k_1, ..., k_l_max) with sum l*k_l = n."""
    def rec(l, remaining, prefix):
        if l > l_max:
            if remaining == 0:
                yield tuple(prefix)
            return
        for k in range(remaining // l + 1):
            yield from rec(l + 1, remaining - l * k, prefix + [k])

    yield from rec(1, n, [])


def p_full_by_enumeration(model):
    """All-events probability summed literally over connected-factor counts.

    Each multiset of factor multiplicities contributes the product of
    all-ones factor values, the per-order 1/l! argument-order weights, and
    the exact arrangement counts from m_factor.
    """
    n = model.n
    total = 0.0
    for ks in iter_multiplicity_vectors(n, model.l_max):
        term = 1.0
        remaining = n
        for l, k_l in enumerate(ks, start=1):
            term *= (model.coefficient(l) / float(n) ** l) ** k_l
            term *= (1.0 / math.factorial(l)) ** k_l
            term *= m_factor(remaining, l, k_l)
            remaining -= l * k_l
        total += term
    return total


class TestPFullCount:
    def test_independent_case(self):
        model = CorrelationModel.from_coefficients([1.0], n=4)
        assert p_full_count(model) == pytest.approx(0.25 ** 4, abs=1e-18)

    def test_all_or_nothing(self):
        model = CorrelationModel.from_coefficients([1.5, 2.25], n=3)
        assert p_full_count(model) == pytest.approx(0.5, abs=1e-15)

    def test_matches_pmf_tail_entry(self):
        for c, n in (((2.0, 0.5), 6), ((1.0, -0.3, 0.2), 9), ((4.0,), 12)):
            model = CorrelationModel.from_coefficients(c, n=n)
            assert abs(p_full_count(model) - finite_count_pmf(model).values[n]) < 1e-12

    def test_matches_multiplicity_enumeration(self, rng):
        # independent oracle built from exact arrangement counts
        for _ in range(10):
            l_max = int(rng.integers(1, 4))
            n = int(rng.integers(l_max, 9))
            c = rng.uniform(-3, 3, size=l_max).tolist()
            model = CorrelationModel.from_coefficients(c, n=n)
            assert p_full_count(model) == pytest.approx(
                p_full_by_enumeration(model), abs=1e-13
            )
