import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrcount import (
    CorrcountError,
    CorrelationModel,
    Pmf,
    char_fn,
    finite_count_pmf,
    limit_pmf,
)
from corrcount.core import (
    NonConvergentError,
    NonFiniteError,
    OutOfRangeError,
)
from corrcount.limit import exponent_polynomial, factorial_cumulants
from corrcount.verify import random_admissible_model, random_model


def binomial_form(model):
    """q by the second route: sum of C_l (z - 1)^l / l! as polynomials."""
    alt = np.zeros(model.l_max + 1)
    power = np.array([1.0])  # coefficients of (z - 1)^l
    for l in range(1, model.l_max + 1):
        power = np.convolve(power, [-1.0, 1.0])
        alt[: l + 1] += model.coefficient(l) / math.factorial(l) * power
    return alt


class TestExponentPolynomial:
    def test_two_order_example(self):
        poly = exponent_polynomial(CorrelationModel([2.0, 0.5]))
        assert poly == pytest.approx((-1.75, 1.5, 0.25), abs=1e-16)

    def test_poisson_exponent(self):
        poly = exponent_polynomial(CorrelationModel([3.0]))
        assert poly == (-3.0, 3.0)

    def test_pure_second_order(self):
        poly = exponent_polynomial(CorrelationModel([0.0, 1.0]))
        assert poly == pytest.approx((0.5, -1.0, 0.5), abs=1e-16)

    def test_q_at_one_vanishes(self, rng):
        for _ in range(1000):
            l_max = int(rng.integers(1, 7))
            c = rng.uniform(-10, 10, size=l_max).tolist()
            poly = exponent_polynomial(CorrelationModel(c))
            assert abs(math.fsum(poly)) <= 1e-14

    def test_double_sum_matches_binomial_form(self, rng):
        for _ in range(1000):
            l_max = int(rng.integers(1, 7))
            c = rng.uniform(-10, 10, size=l_max).tolist()
            model = CorrelationModel(c)
            q = exponent_polynomial(model)
            assert max(abs(a - b) for a, b in zip(q, binomial_form(model))) <= 1e-14


class TestCharFn:
    def test_value_at_zero(self, rng):
        for _ in range(10):
            c = rng.uniform(-3, 3, size=int(rng.integers(1, 5))).tolist()
            grid = char_fn(CorrelationModel(c), [0.0])
            assert abs(grid.chi[0] - 1.0) <= 1e-14

    def test_poisson_at_pi(self):
        grid = char_fn(CorrelationModel([1.0]), [math.pi])
        assert grid.chi[0].real == pytest.approx(math.exp(-2.0), abs=1e-15)
        assert abs(grid.chi[0].imag) < 1e-15

    def test_grid_ceiling(self, monkeypatch):
        monkeypatch.setattr("corrcount.limit.MAX_POINTS", 3)
        model = CorrelationModel([1.0])
        assert len(char_fn(model, [0.0, 1.0, 2.0]).chi) == 3
        with pytest.raises(OutOfRangeError, match="ceiling 3"):
            char_fn(model, [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        model = CorrelationModel([1.0])
        with pytest.raises(NonFiniteError, match=rf"u\[1\] = {bad!r} is not finite"):
            char_fn(model, [0.0, bad, 1.0, math.nan])

    def test_overflowing_chi_refused(self):
        # Q(e^{iu}) = -1000 (e^{iu} - 1), so Re Q(e^{1.5i}) = 929 > log(max double)
        model = CorrelationModel([-1000.0])
        assert char_fn(model, [0.0]).chi == (1.0,)
        with pytest.raises(NonFiniteError, match=r"chi\(u\[1\] = 1\.5\) = .* is not finite"):
            char_fn(model, [0.0, 1.5, 3.0])

    @pytest.mark.parametrize(
        "c",
        [
            (1.0,),
            (40.0,),
            (2.0, 0.5),
            (1.0, 0.3),
            (2.0, -0.5),
            (3.0, 1.0, 0.2),
            (2.0, -3.0, 4.0),
            (0.5, 2.0, -1.0),
            (12.0, 3.0, 0.5, 0.05),
            (300.0, 30.0, 2.0, 0.1),
        ],
    )
    def test_matches_mpmath_oracle(self, c):
        # Q(e^{iu}) from the same rounded q in 200-bit arithmetic: what is
        # left is the rounding of Horner's rule and of exp.
        model = CorrelationModel(c)
        q = exponent_polynomial(model)
        grid = char_fn(model, np.linspace(-7.0, 7.0, 701))
        budget = 2.0 * sys.float_info.epsilon * (1.0 + math.fsum(map(abs, q)))
        with mpmath.workprec(200):
            for u, chi in zip(grid.u, grid.chi):
                z = mpmath.expj(u)
                exact = mpmath.exp(mpmath.fsum(x * z**t for t, x in enumerate(q)))
                assert abs(chi - exact) <= budget * max(1.0, abs(chi)), u

    def test_modulus_bounded_for_admissible_models(self, rng):
        for _ in range(5):
            model = random_admissible_model(rng)
            grid = char_fn(model, np.linspace(0, 2 * math.pi, 64))
            assert max(abs(z) for z in grid.chi) <= 1.0 + 1e-12

    def test_duality_with_pmf_fourier_sum(self):
        model = CorrelationModel([2.0, 0.5])
        pmf = limit_pmf(model, mass_tolerance=1e-12)
        u = math.pi / 2
        series = sum(
            p * cmath.exp(1j * u * s) for s, p in enumerate(pmf.values)
        )
        chi = char_fn(model, [u]).chi[0]
        assert abs(series - chi) < 1e-8


def poisson_pmf(lam, s):
    return math.exp(-lam) * lam ** s / math.factorial(s)


def log_space_poisson(lam, s):
    return math.exp(s * math.log(lam) - lam - math.lgamma(s + 1))


def unscaled_limit_pmf(model, mass_tolerance=1e-12, cap=1 << 13):
    """The recurrence seeded with p(0) = exp(q_0), unscaled, stopped by the
    mass rule |1 - sum p| <= tol over doubling supports; None past ``cap``."""
    q = exponent_polynomial(model)
    c1 = model.coefficient(1)
    c2 = model.coefficient(2) if model.l_max >= 2 else 0.0
    s_max = max(math.ceil(c1 + 10.0 * math.sqrt(max(c1 + c2, 1.0))), len(q) - 1, 1)
    p = [math.exp(q[0])]
    while s_max <= cap:
        for n in range(len(p), s_max + 1):
            terms = (j * q[j] * p[n - j] for j in range(1, min(n, len(q) - 1) + 1))
            p.append(math.fsum(terms) / n)
        if abs(1.0 - math.fsum(p)) <= mass_tolerance:
            while len(p) > 1 and p[-1] == 0.0:
                p.pop()
            return tuple(p)
        s_max *= 2
    return None


def invert_cf_by_dft(model, n_grid=4096, keep=64):
    """Independent inversion: sample chi on a uniform grid and alias-fold.

    For an integer-supported law, (1/M) sum_j chi(2 pi j / M) e^{-2 pi i j s / M}
    equals sum_k p(s + k M), which is p(s) up to the (negligible) tail
    beyond M.
    """
    u = 2.0 * math.pi * np.arange(n_grid) / n_grid
    chi = np.array(char_fn(model, u).chi)
    folded = np.fft.fft(chi) / n_grid
    return folded.real[:keep]


class TestLimitPmf:
    def test_poisson_one(self):
        pmf = limit_pmf(CorrelationModel([1.0]))
        e = math.exp(-1.0)
        assert pmf.values[0] == pytest.approx(e, abs=1e-16)
        assert pmf.values[1] == pytest.approx(e, abs=1e-16)
        assert pmf.values[2] == pytest.approx(e / 2, abs=1e-16)

    def test_poisson_all_entries_to_40(self):
        pmf = limit_pmf(CorrelationModel([2.0]))
        for s in range(41):
            value = pmf.values[s] if s < len(pmf.values) else 0.0
            assert abs(value - poisson_pmf(2.0, s)) < 1e-12

    def test_second_order_example_by_hand(self):
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        p0 = math.exp(-1.75)
        p1 = 1.5 * p0
        p2 = 0.5 * (1.5 * p1 + 2 * 0.25 * p0)
        assert pmf.values[0] == pytest.approx(p0, abs=1e-15)
        assert pmf.values[1] == pytest.approx(p1, abs=1e-15)
        assert pmf.values[2] == pytest.approx(p2, abs=1e-15)
        assert pmf.values[0] == pytest.approx(0.1737739435, abs=1e-9)
        assert pmf.values[1] == pytest.approx(0.2606609, abs=1e-6)
        assert pmf.values[2] == pytest.approx(0.2389392, abs=1e-6)

    def test_against_dft_inversion(self):
        model = CorrelationModel([2.0, 0.5])
        pmf = limit_pmf(model, mass_tolerance=1e-12)
        folded = invert_cf_by_dft(model)
        for s in range(min(len(pmf.values), len(folded))):
            assert abs(pmf.values[s] - folded[s]) < 1e-10

    def test_degenerate_point_mass(self):
        pmf = limit_pmf(CorrelationModel([0.0]))
        assert pmf.values == (1.0,)
        assert pmf.tail_bound == 0.0

    def test_mass_tolerance_domain(self):
        model = CorrelationModel([1.0])
        with pytest.raises(OutOfRangeError):
            limit_pmf(model, mass_tolerance=1e-3)
        with pytest.raises(OutOfRangeError):
            limit_pmf(model, mass_tolerance=0.0)

    @pytest.mark.parametrize("tol", ["1e-9", None, True, [1e-9]], ids=repr)
    def test_mass_tolerance_must_be_a_number(self, tol):
        with pytest.raises(OutOfRangeError) as caught:
            limit_pmf(CorrelationModel([1.0]), mass_tolerance=tol)
        assert str(caught.value) == f"mass_tolerance must lie in (0, 1e-6], got {tol!r}"

    def test_wild_coefficients_refuse(self):
        with pytest.raises(NonConvergentError):
            limit_pmf(CorrelationModel([5e6]))

    def test_refusal_messages_name_their_cause(self):
        # An admissible Poisson law beyond the support cap is not blamed on
        # admissibility; only the drift of a signed vector is.
        with pytest.raises(NonConvergentError) as cap:
            limit_pmf(CorrelationModel([5e6]))
        # The start, 5.02e6, is past the cap, but the bound there is finite.
        assert "cap of 1000000 entries: the tail bound there is 1.087e+07" in str(cap.value)
        assert "admissib" not in str(cap.value)
        with pytest.raises(NonConvergentError) as drift:
            limit_pmf(CorrelationModel([1.0, 40.0]))
        assert "mass drifts from 1 by 1.41" in str(drift.value)
        assert "far from admissible" in str(drift.value)

    @pytest.mark.parametrize("c", [[1.0, 1000.0], [1.0, 1400.0]])
    def test_entries_beyond_double_range_refused(self, c):
        # p(0) = exp(C_2 / 2 - C_1) is above 1e216 and later entries pass the
        # double range: a drift of inf, not a raw OverflowError or ValueError.
        with pytest.raises(NonConvergentError, match="drifts from 1 by inf"):
            limit_pmf(CorrelationModel(c))

    @pytest.mark.parametrize(
        "c",
        [[5000.0, 200.0], [1e4, 500.0, 10.0, 0.5]],
        ids=["5000,200", "1e4,500,10,0.5"],
    )
    def test_large_mean_matches_dft_inversion(self, c):
        # p(0) underflows to 0.0 here; the scaled recurrence keeps the rest.
        model = CorrelationModel(c)
        pmf = limit_pmf(model)
        size = len(pmf.values)
        assert pmf.values[0] == 0.0 and pmf.admissible
        assert pmf.tail_bound <= 1e-12
        assert abs(pmf.total_mass() - 1.0) <= 1e-12 + size * sys.float_info.epsilon
        assert abs(pmf.mean() - c[0]) <= 1e-10 * c[0]
        folded = invert_cf_by_dft(model, n_grid=16384, keep=size)
        assert max(abs(a - b) for a, b in zip(pmf.values, folded)) <= 1e-10

    def test_rounded_exponent_mass_is_in_the_drift_budget(self):
        # Every q_j >= 0, so nothing cancels; but the rounded q sum to
        # Q(1) = 3.54e-12, and the exact series of exp(Q) has mass exp(Q(1)).
        c = [9831.9101, 490.687988, 10.11039, 0.505686]
        model = CorrelationModel(c)
        q = exponent_polynomial(model)
        assert min(q[1:]) >= 0.0
        shift = math.expm1(math.fsum(q))
        assert shift > 3e-12
        pmf = limit_pmf(model)
        assert pmf.admissible
        assert pmf.error_estimate > 1e-12 + len(pmf.values) * sys.float_info.epsilon
        assert abs(pmf.total_mass() - 1.0) <= 1e-12 + shift
        assert abs(pmf.mean() - c[0]) <= 1e-10 * c[0]

    @pytest.mark.parametrize(
        "c, drift",
        [
            ([1.0, 40.0], "1.410e+17"),
            ([1.0, 20.0], "4.502e-02"),
            ([2.0, 10.0], "3.403e-11"),
        ],
    )
    def test_cancelling_vectors_still_refused(self, c, drift):
        # Q(1) rounds to exactly 0 here, so the budget is the one before.
        model = CorrelationModel(c)
        assert math.fsum(exponent_polynomial(model)) == 0.0
        with pytest.raises(NonConvergentError) as exc:
            limit_pmf(model)
        assert str(exc.value) == (
            f"pmf mass drifts from 1 by {drift}, above tolerance 1e-12 plus "
            "rounding: cancellation swamps coefficients far from admissible"
        )

    @pytest.mark.parametrize("c", [[1.0, 0.0, 0.0, 1e5], [1.0, 1e300]])
    def test_p0_overflow_refused(self, c):
        with pytest.raises(OutOfRangeError, match=r"overflows: q_0 = .* 709\.78"):
            limit_pmf(CorrelationModel(c))

    def test_large_mean_near_underflow_still_computed(self):
        # C_1 = 700 starts the recurrence at p(0) = exp(-700), about 1e-304.
        pmf = limit_pmf(CorrelationModel([700.0]))
        assert pmf.values[0] == math.exp(-700.0)
        assert abs(pmf.mean() - 700.0) <= 1e-8
        assert pmf.admissible

    def test_subnormal_p0_still_computed_when_mass_is_kept(self):
        # p(0) = exp(-716) is subnormal, yet the missing mass is 2e-13.
        pmf = limit_pmf(CorrelationModel([716.0]))
        assert pmf.values[0] < sys.float_info.min
        poisson = [
            math.exp(s * math.log(716.0) - 716.0 - math.lgamma(s + 1))
            for s in range(len(pmf.values))
        ]
        assert max(abs(a - b) for a, b in zip(pmf.values, poisson)) <= 1e-13

    @pytest.mark.parametrize("c1", [718.0, 740.0, 800.0, 5000.0, 10000.0])
    def test_large_mean_matches_poisson(self, c1):
        # p(0) = exp(-c1) is subnormal or 0.0 in doubles.
        pmf = limit_pmf(CorrelationModel([c1]))
        assert pmf.values[0] < sys.float_info.min
        assert pmf.tail_bound <= 1e-12
        poisson = [log_space_poisson(c1, s) for s in range(len(pmf.values))]
        assert max(abs(a - b) for a, b in zip(pmf.values, poisson)) <= 1e-12
        assert abs(pmf.mean() - c1) <= 1e-10 * c1

    def test_normal_seed_entries_bit_identical_to_unscaled_recurrence(self, rng):
        compared = 0
        for i in range(120):
            if i % 3 == 0:  # large means, p(0) still normal
                c1 = float(rng.uniform(50, 700))
                model = CorrelationModel([c1])
            else:  # signed vectors included
                model = random_model(rng) if i % 2 else random_admissible_model(rng)
            reference = unscaled_limit_pmf(model)
            if reference is None:  # the mass rule never met: no reference
                continue
            values = limit_pmf(model).values
            assert len(values) >= len(reference)
            assert values[: len(reference)] == reference
            compared += 1
        assert compared >= 100

    def test_normalization_contract(self, rng):
        for _ in range(10):
            model = random_admissible_model(rng)
            pmf = limit_pmf(model, mass_tolerance=1e-12)
            assert abs(pmf.total_mass() + pmf.tail_bound - 1.0) <= 1e-9
            assert pmf.admissible

    def test_mean_and_variance(self, rng):
        for _ in range(10):
            model = random_admissible_model(rng)
            pmf = limit_pmf(model, mass_tolerance=1e-12)
            c1 = model.coefficient(1)
            c2 = model.coefficient(2) if model.l_max >= 2 else 0.0
            mean = pmf.mean()
            second = math.fsum(s * s * p for s, p in enumerate(pmf.values))
            assert abs(mean - c1) <= 1e-8
            assert abs(second - mean ** 2 - (c1 + c2)) <= 1e-8

    def test_inadmissible_flagged_not_raised(self):
        pmf = limit_pmf(CorrelationModel([0.1, -5.0]))
        assert not pmf.admissible
        s, value = pmf.most_negative()
        assert value < -1e-9


class TestFactorialCumulants:
    def test_poisson_cumulants_vanish_beyond_first(self):
        pmf = limit_pmf(CorrelationModel([2.0]))
        cumulants = factorial_cumulants(pmf.values, 3)
        assert cumulants[0] == pytest.approx(2.0, abs=1e-10)
        assert cumulants[1] == pytest.approx(0.0, abs=1e-10)
        assert cumulants[2] == pytest.approx(0.0, abs=1e-10)

    def test_round_trip_through_generating_function(self):
        target = (2.0, 0.5, -0.1)
        pmf = limit_pmf(CorrelationModel(target))
        cumulants = factorial_cumulants(pmf.values, 3)
        for got, want in zip(cumulants, target):
            assert got == pytest.approx(want, abs=1e-8)

    def test_point_mass_at_three(self):
        pmf = Pmf.from_values([0.0, 0.0, 0.0, 1.0])
        cumulants = factorial_cumulants(pmf.values, 3)
        assert cumulants == pytest.approx((3.0, -3.0, 6.0), abs=1e-12)

    def test_moment_to_cumulant_map_symbolically(self):
        # expand log of the exponential moment series and compare with the
        # recursion used in the implementation
        sympy = pytest.importorskip("sympy")
        w = sympy.symbols("w")
        f = sympy.symbols("f1:7")
        series = 1 + sum(
            f[r - 1] * w ** r / sympy.factorial(r) for r in range(1, 7)
        )
        log_series = sympy.log(series).series(w, 0, 7).removeO()
        reference = [
            sympy.expand(log_series.coeff(w, r) * sympy.factorial(r))
            for r in range(1, 7)
        ]
        moments = [sympy.Integer(1), *f]
        recursion = []
        for r in range(1, 7):
            acc = moments[r]
            for j in range(1, r):
                acc -= sympy.binomial(r - 1, j - 1) * recursion[j - 1] * moments[r - j]
            recursion.append(sympy.expand(acc))
        for got, want in zip(recursion, reference):
            assert sympy.simplify(got - want) == 0


@settings(max_examples=50, deadline=None)
@given(c=st.lists(st.floats(-10, 10), min_size=1, max_size=6))
def test_exponent_forms_agree_property(c):
    if c[-1] == 0.0:
        c[-1] = 1.0
    model = CorrelationModel(c)
    poly = exponent_polynomial(model)
    scale = max(
        1.0,
        sum(abs(x) * 2.0 ** l / math.factorial(l) for l, x in enumerate(c, start=1)),
    )
    assert max(abs(a - b) for a, b in zip(poly, binomial_form(model))) <= 1e-14 * scale
    assert abs(math.fsum(poly)) <= 1e-13 * max(
        1.0, max(abs(x) for x in poly)
    )


@settings(max_examples=25, deadline=None)
@given(
    q=st.integers(1, 4).flatmap(
        lambda top: st.tuples(
            *(st.floats(0.0, 1e4 / (j * top)) for j in range(1, top + 1))
        )
    )
)
def test_limit_law_across_the_domain_property(q):
    # Q(z) = sum_t q_t (z^t - 1) with q_t >= 0 is a compound Poisson law of
    # mean sum_t t q_t <= 1e4; C_l = l! sum_{t >= l} binom(t, l) q_t.
    top = len(q)
    c = [
        math.factorial(l)
        * math.fsum(math.comb(t, l) * q[t - 1] for t in range(l, top + 1))
        for l in range(1, top + 1)
    ]
    pmf = limit_pmf(CorrelationModel(c))
    assert pmf.admissible
    rounding = len(pmf.values) * sys.float_info.epsilon
    assert abs(pmf.total_mass() - 1.0) <= 1e-12 + rounding
    assert abs(pmf.mean() - c[0]) <= 1e-8 * max(c[0], 1.0)
    assert pmf.tail_bound <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    c=st.lists(
        st.builds(
            lambda sign, k: sign * 10.0 ** k,
            st.sampled_from((1.0, -1.0)),
            st.integers(20, 308),
        ),
        min_size=1,
        max_size=4,
    ),
    n=st.integers(1, 10),
)
@example(c=[1e308, -1e308], n=2)
@example(c=[1e307, 1e307, 1e307], n=3)
@example(c=[1e308, 1e308], n=2)
@example(c=[1e20, 1e308, -1e308], n=3)
@example(c=[1e308], n=1)
def test_edge_of_double_range_property(c, n):
    # Each law returns or raises a CorrcountError; no raw Python exception.
    model = CorrelationModel(c)
    finite_model = CorrelationModel(c, n=max(n, len(c)))
    for compute in (
        lambda: limit_pmf(model),
        lambda: char_fn(model, [0.0, 1.5, 3.0]),
        lambda: finite_count_pmf(finite_model),
    ):
        try:
            compute()
        except CorrcountError:
            pass
