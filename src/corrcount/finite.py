"""Exact count distributions at finite N.

The direct route reads the pmf straight off a joint's pattern classes.
The model route evaluates the count probability of a truncated coefficient
vector as

    p_N(s) = N! * [x^N y^s] exp(A(x, y)),

where A is a bivariate polynomial with one term per (correlation order l,
number of occurring arguments t): x counts how many events a connected
factor couples, y counts how many of them occur.  Expanding the
exponential reproduces, term by term, the sum over multiplicities of
connected factors with its two counting constraints, so the identity is
exact, and A(x, 1) = x forces normalization for any coefficient vector.

Coefficients of exp(A) are generated by the standard series recurrence for
the exponential of a polynomial, run on the rescaled quantities
H_n(y) = n! [x^n] exp(A), which keeps every intermediate at H_n(1) = 1:
the N! prefactor is absorbed step by step and nothing overflows.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    BadShapeError,
    CorrelationModel,
    ExchangeableJoint,
    IdentityCheckError,
    OutOfRangeError,
    Pmf,
    SeriesOverflowError,
    validate_model,
)

__all__ = [
    "MAX_EVENT_COUNT",
    "BivariatePolynomial",
    "count_pmf_from_joint",
    "build_exponent",
    "finite_count_pmf",
    "p_full_count",
]

# The recurrence is O(N^2 * l_max) in y-convolutions; refuse beyond.
MAX_EVENT_COUNT = 100_000

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BivariatePolynomial:
    """Coefficients a[d][t] of sum_d sum_t a x^d y^t, 1 <= d <= degree, 0 <= t <= d."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for d, row in enumerate(self.rows, start=1):
            if len(row) != d + 1:
                raise BadShapeError(
                    f"x-degree {d} needs {d + 1} y-coefficients, got {len(row)}"
                )

    @property
    def degree(self) -> int:
        return len(self.rows)

    def coefficient(self, d: int, t: int) -> float:
        if not 1 <= d <= self.degree:
            raise OutOfRangeError(f"x-degree {d} outside 1..{self.degree}")
        if not 0 <= t <= d:
            raise OutOfRangeError(f"y-degree {t} outside 0..{d}")
        return self.rows[d - 1][t]


def count_pmf_from_joint(joint: ExchangeableJoint) -> Pmf:
    """Exact count pmf of a joint: p(s) = C(N, s) * pattern_weight[s]."""
    values = [
        math.comb(joint.n, s) * joint.pattern_weight[s] for s in range(joint.n + 1)
    ]
    return Pmf.from_values(values, tail_bound=0.0)


def _require_finite_model(model: CorrelationModel) -> CorrelationModel:
    model = validate_model(model)
    if model.n is None:
        raise BadShapeError("finite-N computation requires a model with n")
    return model


def build_exponent(model: CorrelationModel) -> BivariatePolynomial:
    """Bivariate exponent A(x, y) of the finite-N generating identity.

    Degree-1 row: (1 - C_1/N, C_1/N).  For l >= 2 the occupancy-t entry is
    (-1)^(l-t) C_l / (N^l (l-t)! t!).  Each row with l >= 2 sums to zero
    and the degree-1 row sums to one (alternating binomial identity), so
    A(x, 1) = x; both facts are asserted here because downstream
    normalization rests on them.
    """
    model = _require_finite_model(model)
    n = model.n
    c1 = model.coefficient(1)
    rows = [(1.0 - c1 / n, c1 / n)]
    for l in range(2, model.l_max + 1):
        scaled = model.coefficient(l) / float(n) ** l
        row = tuple(
            (-1) ** (l - t) * scaled / (math.factorial(l - t) * math.factorial(t))
            for t in range(l + 1)
        )
        magnitude = max(1.0, math.fsum(abs(x) for x in row))
        if abs(math.fsum(row)) > 1e-14 * magnitude:
            raise IdentityCheckError(
                f"x-degree {l} row of A does not telescope to zero"
            )
        rows.append(row)
    if abs(math.fsum(rows[0]) - 1.0) > 1e-14:
        raise IdentityCheckError("x-degree 1 row of A does not sum to one")
    return BivariatePolynomial(tuple(rows))


def _rising(n: int, j: int) -> float:
    """(n-1)! / (n-j)! as a float; log-gamma fallback for extreme orders."""
    if j <= 1:
        return 1.0
    if (j - 1) * math.log10(n) < 300.0:
        out = 1.0
        for i in range(n - j + 1, n):
            out *= i
        return out
    return math.exp(math.lgamma(n) - math.lgamma(n - j + 1))


def _kahan_add(acc: np.ndarray, comp: np.ndarray, offset: int, term: np.ndarray) -> None:
    """Compensated acc[offset:offset+len(term)] += term."""
    sl = slice(offset, offset + term.size)
    y = term - comp[sl]
    t = acc[sl] + y
    comp[sl] = (t - acc[sl]) - y
    acc[sl] = t


def _exp_series_at(coeffs, n_events: int) -> float:
    """N! [x^N] exp(sum_j coeffs[j-1] x^j) by the rescaled scalar recurrence.

    h_n = sum_j j * coeffs[j-1] * h_{n-j} * (n-1)!/(n-j)! with h_0 = 1
    absorbs the N! prefactor step by step.  O(N * len(coeffs)).
    """
    l_max = len(coeffs)
    window: deque[float] = deque([1.0], maxlen=l_max)
    for n in range(1, n_events + 1):
        terms = [
            j * coeffs[j - 1] * window[-j] * _rising(n, j)
            for j in range(1, min(n, l_max) + 1)
        ]
        window.append(math.fsum(terms))
    return window[-1]


def _require_event_count(model: CorrelationModel) -> CorrelationModel:
    model = _require_finite_model(model)
    if model.n > MAX_EVENT_COUNT:
        raise SeriesOverflowError(
            f"N = {model.n} exceeds the supported ceiling {MAX_EVENT_COUNT}"
        )
    return model


def finite_count_pmf(model: CorrelationModel) -> Pmf:
    """Exact count pmf of a truncated coefficient model at finite N.

    Runs the rescaled exponential-series recurrence
    H_n = sum_j j * A_j(y) * H_{n-j} * (n-1)!/(n-j)! and returns H_N, whose
    entries are p_N(0..N).  The sum over s is 1 and the mean is C_1 for any
    real coefficient vector; entries may be negative for inadmissible
    vectors, which the returned flag records.  ``error_estimate`` is
    eps * N! [x^N] exp(sum_j R_j x^j) with R_j = sum_t |a_{j,t}|, the
    total of the same recurrence run on absolute values, a proxy for
    accumulated cancellation.
    """
    model = _require_event_count(model)
    n_events = model.n
    exponent = build_exponent(model)
    l_max = exponent.degree

    window: deque[np.ndarray] = deque([np.array([1.0])], maxlen=l_max)
    for n in range(1, n_events + 1):
        acc = np.zeros(n + 1)
        comp = np.zeros(n + 1)
        for j in range(1, min(n, l_max) + 1):
            prev = window[-j]
            ratio = _rising(n, j)
            row = exponent.rows[j - 1]
            for t in range(j + 1):
                w = j * row[t] * ratio
                if w == 0.0:
                    continue
                _kahan_add(acc, comp, t, w * prev)
        window.append(acc)

    magnitudes = [math.fsum(abs(a) for a in row) for row in exponent.rows]
    error_estimate = _exp_series_at(magnitudes, n_events) * _EPS
    return Pmf.from_values(window[-1], tail_bound=0.0, error_estimate=error_estimate)


def p_full_count(model: CorrelationModel) -> float:
    """Probability that all N events occur.

    Independent single-variable specialization: only all-ones connected
    factors can contribute at s = N, so p_N(N) = N! [x^N] exp(B(x)) with
    B(x) = sum_l C_l x^l / (N^l l!).  Cross-checks the bivariate route.
    """
    model = _require_event_count(model)
    b = [
        model.coefficient(l) / (float(model.n) ** l * math.factorial(l))
        for l in range(1, model.l_max + 1)
    ]
    return _exp_series_at(b, model.n)
