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
    NonFiniteError,
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
]

# The recurrence is O(N * S * l_max), S the pmf's underflow index (a few
# hundred for moderate C); refuse beyond.
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


def count_pmf_from_joint(joint: ExchangeableJoint) -> Pmf:
    """Exact count pmf of a joint: p(s) = C(N, s) * pattern_weight[s]."""
    values = [
        math.comb(joint.n, s) * joint.pattern_weight[s] for s in range(joint.n + 1)
    ]
    return Pmf.from_values(values, tail_bound=0.0)


def build_exponent(model: CorrelationModel) -> BivariatePolynomial:
    """Bivariate exponent A(x, y) of the finite-N generating identity.

    Degree-1 row: (1 - C_1/N, C_1/N).  For l >= 2 the occupancy-t entry is
    (-1)^(l-t) C_l / (N^l (l-t)! t!).  Each row with l >= 2 sums to zero
    and the degree-1 row sums to one (alternating binomial identity), so
    A(x, 1) = x; both facts are asserted here because downstream
    normalization rests on them.
    """
    model = validate_model(model)
    n = model.n
    if n is None:
        raise BadShapeError("finite-N computation requires a model with n")
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
    magnitude = max(1.0, math.fsum(abs(x) for x in rows[0]))
    if abs(math.fsum(rows[0]) - 1.0) > 1e-14 * magnitude:
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


@np.errstate(over="ignore", invalid="ignore")
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

    Each H_n is +0.0 past an underflow index S (about 320 for C = (2, 0.5,
    0.1) even at N = 10^5), so step n is computed only on [0, size) with
    size = min(n, max_j(len(H_{n-j}) - 1 + j)) + 1, len(H) the index of
    its last nonzero entry plus one.  This is exact, not a truncation:
    past ``size`` every term of the full-range recurrence is a signed zero
    added to acc = comp = +0.0, which leaves both at +0.0.  Inside it each
    (j, t) term keeps the full-range slice, clipped to [0, size), and the
    same compensated-add operations in the same order, so every entry is
    bit-identical to the full-range loop and the cost is O(N * S * l_max).

    Raises:
        SeriesOverflowError: N above MAX_EVENT_COUNT.
        NonFiniteError: an entry overflowed to inf or nan (coefficients too
            large for double precision).
    """
    exponent = build_exponent(model)
    n_events = model.n
    if n_events > MAX_EVENT_COUNT:
        raise SeriesOverflowError(
            f"N = {n_events} exceeds the supported ceiling {MAX_EVENT_COUNT}"
        )
    l_max = exponent.degree

    # Slot n % slots holds H_n, zero-padded to width N+1; lengths[slot] is
    # its nonzero length.  One slot more than the window, so H_n is built
    # in place over H_{n-l_max-1}, which no later step reads.
    slots = l_max + 1
    ring = np.zeros((slots, n_events + 1))
    ring[0, 0] = 1.0
    lengths = [1] + [0] * l_max
    comp = np.zeros(n_events + 1)
    term = np.empty(n_events + 1)
    total = np.empty(n_events + 1)
    for n in range(1, n_events + 1):
        steps = range(1, min(n, l_max) + 1)
        size = min(n, max(lengths[(n - j) % slots] - 1 + j for j in steps)) + 1
        slot = n % slots
        acc = ring[slot]
        acc[: lengths[slot]] = 0.0
        comp[:size] = 0.0
        for j in steps:
            prev = ring[(n - j) % slots]
            ratio = _rising(n, j)
            row = exponent.rows[j - 1]
            for t in range(j + 1):
                w = j * row[t] * ratio
                m = min(n - j + 1, size - t)
                if w == 0.0 or m <= 0:
                    continue
                # Compensated acc[t:t+m] += w * prev[:m], without temporaries.
                a, c, y, s = acc[t : t + m], comp[t : t + m], term[:m], total[:m]
                np.multiply(prev[:m], w, y)
                np.subtract(y, c, y)
                np.add(a, y, s)
                np.subtract(s, a, c)
                np.subtract(c, y, c)
                a[...] = s
        length = size
        while length and acc[length - 1] == 0.0:
            length -= 1
        lengths[slot] = length

    values = np.zeros(n_events + 1)
    values[:size] = ring[n_events % slots, :size]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        s = int(bad[0])
        raise NonFiniteError(
            f"p_N({s}) = {float(values[s])!r} is not finite: the recurrence "
            "overflowed double precision"
        )
    magnitudes = [math.fsum(abs(a) for a in row) for row in exponent.rows]
    error_estimate = _exp_series_at(magnitudes, n_events) * _EPS
    return Pmf.from_values(values, tail_bound=0.0, error_estimate=error_estimate)
