import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcount import (
    CorrelationModel,
    MixtureSpec,
    build_mixture_joint,
    count_pmf_from_joint,
    finite_count_pmf,
    limit_pmf,
)
from corrcount.core import (
    BadShapeError,
    NonFiniteError,
    OutOfRangeError,
)
from corrcount.finite import build_exponent
from corrcount.verify import measure_coefficients, random_model

from conftest import ALL_OR_NOTHING_3, m_factor, make_random_joint

# (C, N) for the closed-form oracle: admissible and signed vectors, l_max
# 1 to 5, N from 7 to 10^4, C_1 up to 100, and 30 draws of verify's
# random (mostly inadmissible) models at N = 10, 100 and 1000.
ORACLE_MODELS = [
    ((2.0, 0.5, 0.1), 10_000),
    ((1.0, 0.3), 2000),
    ((2.0, 0.5, -0.1), 300),
    ((1.0, 40.0), 30),
    ((3.0,), 7),
    ((1.5, -0.4, 0.3, -0.05), 60),
    ((0.5, 2.0, -1.0), 1000),
    ((4.0, 1.0, 0.2, 0.05, 0.01), 3000),
    ((100.0, 50.0), 1000),
    ((50.0, 20.0, 5.0), 500),
    ((100.0, 10.0), 10_000),
    ((60.0, -20.0), 1000),
    ((5.0, 2.0, 0.5), 10_000),
    ((2.0, -3.0, 4.0), 1000),
    ((10.0, 3.0, 0.5), 3000),
]
_ladder_rng = np.random.default_rng(7)
ORACLE_MODELS += [
    (random_model(_ladder_rng).c, (10, 100, 1000)[i % 3]) for i in range(30)
]


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
        rows = build_exponent(CorrelationModel([1.5, 2.25], n=3))
        assert rows[0] == (0.5, 0.5)
        assert rows[1] == pytest.approx((0.125, -0.25, 0.125), abs=1e-16)

    def test_first_order_only(self):
        rows = build_exponent(CorrelationModel([3.0], n=10))
        assert rows == ((0.7, 0.3),)

    def test_rows_telescope(self, rng):
        for _ in range(20):
            l_max = int(rng.integers(1, 6))
            c = rng.uniform(-5, 5, size=l_max).tolist()
            model = CorrelationModel(c, n=int(rng.integers(l_max, 50)))
            rows = build_exponent(model)
            assert [len(row) for row in rows] == list(range(2, l_max + 2))
            assert abs(math.fsum(rows[0]) - 1.0) <= 1e-14
            for row in rows[1:]:
                assert abs(math.fsum(row)) <= 1e-14

    def test_requires_event_count(self):
        with pytest.raises(BadShapeError):
            build_exponent(CorrelationModel([1.0, 0.5]))

    def test_trailing_zero_orders_are_dropped(self):
        # the degree-1 row always stays; a zero below a nonzero order stays too
        assert build_exponent(CorrelationModel([1.0, 0.0, -0.0], n=5)) == ((0.8, 0.2),)
        assert len(build_exponent(CorrelationModel([1.0, 0.0, 0.5, 0.0], n=5))) == 3

    def test_a_dropped_order_cannot_overflow(self):
        # N^l overflows a double at l = 103 for N = 1000, but C_l = 0 there
        model = CorrelationModel([1.0] + [0.0] * 110, n=1000)
        assert build_exponent(model) == build_exponent(CorrelationModel([1.0], n=1000))
        with pytest.raises(OutOfRangeError):
            build_exponent(CorrelationModel([1.0] + [0.0] * 101 + [1e-300], n=1000))

    def test_huge_first_coefficient_row_sums_to_one(self):
        # (1 - 1e18, 1e18): the sum is exact only relative to the magnitude.
        rows = build_exponent(CorrelationModel([1e20], n=100))
        assert rows[0] == (1.0 - 1e18, 1e18)


class TestFiniteCountPmf:
    def test_first_order_is_binomial(self):
        pmf = finite_count_pmf(CorrelationModel([1.0], n=2))
        assert pmf.values == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_all_or_nothing_coefficients(self):
        # measured coefficients of the all-or-nothing joint: C = (1.5, 2.25, 0)
        measured = measure_coefficients(ALL_OR_NOTHING_3)
        assert measured[0] == pytest.approx(1.5, abs=1e-14)
        assert measured[1] == pytest.approx(2.25, abs=1e-14)
        assert measured[2] == pytest.approx(0.0, abs=1e-13)
        pmf = finite_count_pmf(CorrelationModel([1.5, 2.25], n=3))
        assert pmf.values == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-14)

    def test_zero_top_coefficient_is_silent(self):
        # a model of lower order is valid: the law neither warns nor prints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite_count_pmf(CorrelationModel([1.0, 0.0], n=5))

    def test_truncation_consistency(self):
        # a joint correlation-free beyond l_max is reproduced by truncation
        truncated = finite_count_pmf(
            CorrelationModel([1.5, 2.25], n=3)
        )
        full = finite_count_pmf(
            CorrelationModel([1.5, 2.25, 0.0], n=3)
        )
        assert truncated.values == pytest.approx(full.values, abs=1e-15)

    @pytest.mark.parametrize(
        "c, n", [([1.0], 5), ([2.0, 0.5], 50), ([2.0, 0.5], 3000), ([1.5, 2.25], 5)]
    )
    def test_trailing_zeros_keep_the_law_bit_for_bit(self, c, n):
        # before, the zero order ran through the ring: for (2, 0.5, 0) at
        # N = 50, 36 of the 51 entries differed from those of (2, 0.5)
        truncated = finite_count_pmf(CorrelationModel(c, n=n))
        for zeros in (1, 3):
            full = finite_count_pmf(CorrelationModel(c + [0.0] * zeros, n=n))
            assert list(map(repr, full.values)) == list(map(repr, truncated.values))
            assert full.error_estimate == truncated.error_estimate
        if c == [1.0]:
            assert truncated.values[1] == 0.40960000000000013

    def test_large_n_approaches_limit(self):
        p_inf = limit_pmf(CorrelationModel([1.0, 0.3]))
        expected0 = math.exp(-1.0 + 0.15)
        assert p_inf.values[0] == pytest.approx(expected0, abs=1e-13)
        err = {}
        for n in (1000, 2000):
            pmf = finite_count_pmf(CorrelationModel([1.0, 0.3], n=n))
            err[n] = abs(pmf.values[0] - p_inf.values[0])
        assert err[1000] < 5.0 / 1000
        assert 1.6 < err[1000] / err[2000] < 2.4

    def test_oracle_equivalence_on_random_joints(self, rng):
        for _ in range(20):
            joint = make_random_joint(rng, n=int(rng.integers(2, 8)))
            coeffs = measure_coefficients(joint)
            rebuilt = finite_count_pmf(
                CorrelationModel(coeffs, n=joint.n)
            )
            direct = count_pmf_from_joint(joint)
            assert max(
                abs(a - b) for a, b in zip(rebuilt.values, direct.values)
            ) < 1e-10

    def test_error_estimate_tracks_conditioning(self):
        benign = finite_count_pmf(CorrelationModel([1.0, 0.2], n=50))
        assert 0.0 < benign.error_estimate < 1e-12
        wild = finite_count_pmf(CorrelationModel([1.0, 40.0], n=50))
        assert wild.error_estimate > benign.error_estimate

    @pytest.mark.parametrize("c, n", ORACLE_MODELS)
    def test_entries_match_closed_form_oracle(self, c, n):
        # The rows of A round C_l / N^l, which moves entries by about
        # N * eps at N = 10^4; N * error_estimate bounds that and the
        # recurrence's own rounding.  It overstates the error by at most
        # 10^3, counting an error below one rounding of the largest entry
        # as that rounding.
        model = CorrelationModel(list(c), n=n)
        pmf = finite_count_pmf(model)
        want = closed_form_count_pmf(model)
        got = np.asarray(pmf.values)
        err = np.max(np.abs(got - want))
        budget = n * pmf.error_estimate
        assert err <= budget
        assert budget <= 1e3 * max(err, np.finfo(float).eps * np.max(np.abs(got)))

    def test_entries_match_full_range_loop(self, rng):
        models = [CorrelationModel([2.0, -3.0, 4.0], n=3000)]
        for i in range(30):
            l_max = 1 + i % 5
            scale = (0.5, 3.0, 20.0)[i % 3]
            c = rng.uniform(-scale, scale, size=l_max)
            if i % 2:
                c[0] = abs(c[0]) + 0.1
            if c[-1] == 0.0:
                c[-1] = 1.0
            n = (l_max, 9, 60, 300, 1000)[i % 5]
            models.append(CorrelationModel(c.tolist(), n=n))
        for model in models:
            pmf = finite_count_pmf(model)
            values = np.asarray(pmf.values)
            want = full_range_count_pmf(model)
            assert np.max(np.abs(values - want)) <= model.n * pmf.error_estimate
            support = np.flatnonzero(values)[-1] + 1
            assert not np.signbit(values[support:]).any()

    def test_large_n_mass_and_mean(self):
        pmf = finite_count_pmf(
            CorrelationModel([2.0, 0.5, 0.1], n=20_000)
        )
        assert len(pmf.values) == 20_001
        assert abs(pmf.total_mass() - 1.0) <= 1e-10
        assert abs(pmf.mean() - 2.0) <= 1e-10

    @pytest.mark.parametrize("c", [[1e20], [1.0, 1e40]])
    def test_overflowing_entries_raise_non_finite(self, c):
        model = CorrelationModel(c, n=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match=r"p_N\(0\) = (inf|nan) "):
                finite_count_pmf(model)

    def test_event_count_ceiling(self):
        with pytest.raises(OutOfRangeError):
            finite_count_pmf(CorrelationModel([1.0], n=100_001))

    def test_ring_ceiling(self, monkeypatch):
        # the ring widens 264 -> 520 -> 1032 columns of 2 * 8 * 9 doubles:
        # 1,188,864 bytes at the third width, past a ceiling of 2^20
        from corrcount import finite

        monkeypatch.setattr(finite, "MAX_RING_BYTES", 2 ** 20)
        model = CorrelationModel((1000, 0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6), n=2000)
        with pytest.raises(OutOfRangeError) as caught:
            finite_count_pmf(model)
        assert str(caught.value) == (
            "order l_max = 8 needs a ring 1032 entries wide, 1188864 bytes, "
            "past the supported ceiling of 1048576 bytes"
        )
        # the last width, 2009 columns, fits a ceiling of exactly its bytes
        monkeypatch.setattr(finite, "MAX_RING_BYTES", 2009 * 2 * 8 * 9 * 8)
        assert finite_count_pmf(model).s_max == 2000

    def test_requires_n_at_least_l_max(self):
        with pytest.raises(BadShapeError):
            finite_count_pmf(CorrelationModel([1.0, 0.5, 0.1], n=2))

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
        model = CorrelationModel(c, n=n)
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
            model = CorrelationModel(c.tolist(), n=max(n, l_max))
            pmf = finite_count_pmf(model)
            assert abs(pmf.total_mass() - 1.0) <= 1e-9
            assert abs(pmf.mean() - c[0]) <= 1e-9 * max(1.0, abs(c[0]))


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


def exp_series_at(coeffs, n_events):
    """N! [x^N] exp(sum_j coeffs[j-1] x^j) by the rescaled scalar recurrence.

    h_n = sum_j j * coeffs[j-1] * h_{n-j} * (n-1)!/(n-j)! with h_0 = 1
    absorbs the N! prefactor step by step.  O(N * len(coeffs)).
    """
    window = [1.0]
    for n in range(1, n_events + 1):
        window.append(
            math.fsum(
                j * coeffs[j - 1] * window[-j] * float(math.perm(n - 1, j - 1))
                for j in range(1, min(n, len(coeffs)) + 1)
            )
        )
    return window[-1]


def p_full_count(model):
    """Probability that all N events occur.

    Independent single-variable specialization: only all-ones connected
    factors can contribute at s = N, so p_N(N) = N! [x^N] exp(B(x)) with
    B(x) = sum_l C_l x^l / (N^l l!).  Cross-checks the bivariate route.
    """
    b = [
        model.coefficient(l) / (float(model.n) ** l * math.factorial(l))
        for l in range(1, model.l_max + 1)
    ]
    return exp_series_at(b, model.n)


class TestPFullCount:
    def test_independent_case(self):
        model = CorrelationModel([1.0], n=4)
        assert p_full_count(model) == pytest.approx(0.25 ** 4, abs=1e-18)

    def test_all_or_nothing(self):
        model = CorrelationModel([1.5, 2.25], n=3)
        assert p_full_count(model) == pytest.approx(0.5, abs=1e-15)

    def test_matches_pmf_tail_entry(self):
        for c, n in (((2.0, 0.5), 6), ((1.0, -0.3, 0.2), 9), ((4.0,), 12)):
            model = CorrelationModel(c, n=n)
            assert abs(p_full_count(model) - finite_count_pmf(model).values[n]) < 1e-12

    def test_matches_multiplicity_enumeration(self, rng):
        # independent oracle built from exact arrangement counts
        for _ in range(10):
            l_max = int(rng.integers(1, 4))
            n = int(rng.integers(l_max, 9))
            c = rng.uniform(-3, 3, size=l_max).tolist()
            model = CorrelationModel(c, n=n)
            assert p_full_count(model) == pytest.approx(
                p_full_by_enumeration(model), abs=1e-13
            )


def full_range_count_pmf(model):
    """The pmf recurrence with every H_n kept over its full range 0..n.

    Each (j, t) term w * H_{n-j} is added to H_n[t : t + n - j + 1] with a
    compensated (Kahan) sum, in order of j and t: the package's kernel
    before it switched to one plain fixed-order product per step, kept as
    a reference for it.
    """
    rows = build_exponent(model)
    window = [np.array([1.0])]
    for n in range(1, model.n + 1):
        acc = np.zeros(n + 1)
        comp = np.zeros(n + 1)
        for j in range(1, min(n, len(rows)) + 1):
            prev = window[-j]
            ratio = float(math.perm(n - 1, j - 1))
            for t, a in enumerate(rows[j - 1]):
                w = j * a * ratio
                if w == 0.0:
                    continue
                sl = slice(t, t + prev.size)
                y = w * prev - comp[sl]
                s = acc[sl] + y
                comp[sl] = (s - acc[sl]) - y
                acc[sl] = s
        window.append(acc)
    return window[-1]


def closed_form_count_pmf(model):
    """p_N(0..N) from the finite-N factorial moments, in mpmath.

    With F(u) = exp(sum_l C_l u^l / l!) = sum_k f_k u^k, the generating
    function of p_N is H_N(1 + w) = sum_k f_k (N)_k / N^k w^k, so
    p_N(s) = sum_{k >= s} (-1)^(k-s) C(k, s) f_k (N)_k / N^k.  The sum over
    k stops once l_max consecutive terms b_k = f_k (N)_k / N^k have
    |b_k| 2^k below 1e-40, or at k = N, past which (N)_k is zero.  Shares
    nothing with the package's recurrence but the coefficient vector.

    The alternating sum cancels about log10(max |b_k| 2^k) digits, so the
    terms are formed at 60 digits first and again at a precision raised
    past the measured cancellation, until it is below 10^(dps - 30).
    """
    n, l_max = model.n, model.l_max
    dps = 60
    while True:
        with mpmath.workdps(dps):
            q = [mpmath.mpf(c) / math.factorial(l) for l, c in enumerate(model.c, start=1)]
            f = [mpmath.mpf(1)]
            b = [mpmath.mpf(1)]
            falling = mpmath.mpf(1)
            for k in range(1, n + 1):
                orders = range(1, min(k, l_max) + 1)
                f.append(mpmath.fsum(l * q[l - 1] * f[k - l] for l in orders) / k)
                falling *= 1 - mpmath.mpf(k - 1) / n
                b.append(f[k] * falling)
                if k >= 2 * l_max and all(abs(x) * 2 ** k < 1e-40 for x in b[-l_max:]):
                    break
            largest = max(abs(x) * 2 ** k for k, x in enumerate(b))
            if largest < mpmath.mpf(10) ** (dps - 30):
                break
        dps = 40 + int(mpmath.log10(largest))
    with mpmath.workdps(dps):
        out = np.zeros(n + 1)
        for s in range(len(b)):
            binom = mpmath.mpf(1)
            terms = []
            for k in range(s, len(b)):
                terms.append((-1) ** (k - s) * binom * b[k])
                binom = binom * (k + 1) / (k + 1 - s)
            out[s] = float(mpmath.fsum(terms))
    return out
