"""Exact count distributions at finite N.

The direct route reads the pmf straight off a joint's class masses.
The model route evaluates the count probability of a truncated coefficient
vector as

    p_N(s) = N! * [x^N y^s] exp(A(x, y)),

where A is a bivariate polynomial with one term per (correlation order l,
number of occurring arguments t): x counts how many events a connected
factor couples, y counts how many of them occur.  Expanding the
exponential reproduces, term by term, the sum over multiplicities of
connected factors with its two counting constraints, so the identity is
exact, and A(x, 1) = x forces normalization for any coefficient vector.
N above MAX_EVENT_COUNT, and an order l whose N^l overflows a double,
are refused.

Coefficients of exp(A) are generated by the standard series recurrence for
the exponential of a polynomial, run on the rescaled quantities
H_n(y) = n! [x^n] exp(A), which keeps every intermediate at H_n(1) = 1:
the N! prefactor is absorbed step by step and nothing overflows.  It is
the only series kernel here: the error estimate is read off its result.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import TYPE_CHECKING

from .core import (
    BadShapeError,
    CorrelationModel,
    ExchangeableJoint,
    NonFiniteError,
    Pmf,
    SeriesOverflowError,
    fsum_or_inf,
    is_int_in,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_EVENT_COUNT",
    "count_pmf_from_joint",
    "build_exponent",
    "finite_count_pmf",
]

# The recurrence is N products of an (l_max * (l_max + 1)) x S block, S the
# pmf's underflow index (a few hundred for moderate C): about 1 s at this
# ceiling for C = (2, 0.5, 0.1) on a 2-vCPU machine.  Refuse beyond.
MAX_EVENT_COUNT = 100_000

_EPS = sys.float_info.epsilon
# Starting width of the ring's rows; it doubles as the support grows.
_FIRST_WIDTH = 256
# Steps whose weights are formed at a time from the ratio table.
_CHUNK = 1024


def count_pmf_from_joint(joint: ExchangeableJoint) -> Pmf:
    """Exact count pmf of a joint: its class masses."""
    return Pmf.from_values(joint.mass, tail_bound=0.0)


def build_exponent(model: CorrelationModel) -> tuple[tuple[float, ...], ...]:
    """Bivariate exponent A(x, y) of the finite-N generating identity.

    Row d - 1 holds the coefficients a[d][0..d] of x^d y^t, d = 1..L, L
    the highest order above 1 whose C_l is not 0, or 1 if there is none: a
    model and its truncation past its trailing zeros share one exponent,
    so their laws agree bit for bit.  Degree-1 row: (1 - C_1/N, C_1/N).  For l >= 2
    the occupancy-t entry is (-1)^(l-t) C_l / (N^l (l-t)! t!).  Each row
    with l >= 2 sums to zero and the degree-1 row sums to one (alternating
    binomial identity), so A(x, 1) = x.

    Raises:
        SeriesOverflowError: N^l overflows a double for some order l <= L.
    """
    n = model.n
    if n is None:
        raise BadShapeError("finite-N computation requires a model with n")
    c1 = model.coefficient(1)
    rows = [(1.0 - c1 / n, c1 / n)]
    top = model.l_max
    while top > 1 and model.coefficient(top) == 0.0:
        top -= 1
    for l in range(2, top + 1):
        try:
            scaled = model.coefficient(l) / float(n) ** l
        except OverflowError:  # float ** int raises rather than return inf
            raise SeriesOverflowError(
                f"order l = {l} at N = {n}: N^l overflows a double"
            ) from None
        rows.append(tuple(
            (-1) ** (l - t) * scaled / (math.factorial(l - t) * math.factorial(t))
            for t in range(l + 1)
        ))
    return tuple(rows)


def _ratio_table(n_events: int, l_max: int) -> np.ndarray:
    """ratio[n, i] = (n-1)!/(n-j)! with j = l_max - i, shape (N+1, l_max).

    Columns run from j = l_max down to j = 1, the order of the ring block
    in :func:`finite_count_pmf`.  Each column is the previous one times
    n - j + 1, so an entry with j > n is zero.
    """
    import numpy as np

    ratio = np.ones((n_events + 1, l_max))
    steps = np.arange(n_events + 1.0)
    for j in range(2, l_max + 1):
        ratio[:, l_max - j] = ratio[:, l_max - j + 1] * (steps - (j - 1))
    return ratio


def _ring_views(ring: np.ndarray) -> tuple[list, list]:
    """Step blocks and write-back views of a doubled shift-stack ring.

    ``blocks[k]`` is slots k..k + l_max - 1 as one (l_max * (l_max + 1)) x
    width matrix; ``diagonals[k]`` views slot k with row t starting at
    column t, so one assignment stores an H with all its shifts.
    """
    import numpy as np

    slots, shifts, width = ring.shape
    l_max = slots // 2
    strides = (ring.strides[1] + ring.strides[2], ring.strides[2])
    blocks = [ring[k : k + l_max].reshape(l_max * shifts, width) for k in range(l_max)]
    diagonals = [
        np.lib.stride_tricks.as_strided(slot, (shifts, width - l_max), strides)
        for slot in ring
    ]
    return blocks, diagonals


def finite_count_pmf(model: CorrelationModel) -> Pmf:
    """Exact count pmf of a truncated coefficient model at finite N.

    Runs the rescaled exponential-series recurrence
    H_n = sum_j j * A_j(y) * H_{n-j} * (n-1)!/(n-j)! and returns H_N, whose
    entries are p_N(0..N).  The sum over s is 1 and the mean is C_1 for any
    real coefficient vector; entries may be negative for inadmissible
    vectors, which the returned flag records.  ``error_estimate`` is
    eps * sum_s |p_N(s)| of the computed entries: eps for a probability
    law, larger by the cancellation a signed one needs to sum to 1.  N *
    error_estimate bounds the error on the l_max <= 5 oracle ladder, tested
    from both sides, but not at full order: on Bernoulli mixtures with
    l_max = N it is 300x too small at N = 15 (README, "Numerical notes").

    Each step is one product.  H_{n-l_max}..H_{n-1} sit in a ring of
    l_max slots, stored twice over so that the l_max slots step n reads
    are contiguous, and each slot holds its H in l_max + 1 rows, row t
    shifted right by t.  Step n's (j, t) terms are then the rows of one
    (l_max * (l_max + 1)) x size block, and H_n is the vector of weights
    j * a_{j,t} * (n-1)!/(n-j)! times that block: a plain sum in a fixed
    order, with the ratios taken from a table built once per call.

    Each H_n is zero past an underflow index S (about 320 for C = (2, 0.5,
    0.1) even at N = 10^5), so step n is computed only on [0, size) with
    size = min(n, max_j(len(H_{n-j}) - 1 + j)) + 1, len(H) the index of
    its last nonzero entry plus one.  This is exact, not a truncation:
    past ``size`` every term is a product with zero.  The ring is as wide
    as the largest size so far, so the cost is O(N * S * l_max^2) flops
    in N products, and the memory O(S * l_max^2).

    Raises:
        SeriesOverflowError: N above MAX_EVENT_COUNT, or N^l overflows a
            double for some order l.
        NonFiniteError: an entry overflowed to inf or nan (coefficients too
            large for double precision).
    """
    import numpy as np

    n_events = model.n
    if is_int_in(n_events, MAX_EVENT_COUNT + 1):
        raise SeriesOverflowError(
            f"N = {n_events} exceeds the supported ceiling {MAX_EVENT_COUNT}"
        )
    exponent = build_exponent(model)
    l_max = len(exponent)
    shifts = l_max + 1
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = _ratio_table(n_events, l_max)
        # base[i, t] = j * a_{j,t} for j = l_max - i, zero for t > j.
        base = np.zeros((l_max, shifts))
        for j, row in enumerate(exponent, start=1):
            base[l_max - j, : j + 1] = [j * a for a in row]

        # Slots k and k + l_max hold H_m for m = k mod l_max, so step n reads
        # slots n % l_max onward, oldest first.  H_m for m < 0 is zero.
        width = min(n_events + 1, _FIRST_WIDTH) + l_max
        ring = np.zeros((2 * l_max, shifts, width))
        blocks, diagonals = _ring_views(ring)
        diagonals[0][:, 0] = diagonals[l_max][:, 0] = 1.0
        # len(H_m) - 1 - m for the last l_max values of m
        reach: deque[int] = deque([0], maxlen=l_max)
        for start in range(1, n_events + 1, _CHUNK):
            chunk = ratio[start : start + _CHUNK, :, None] * base
            step_weights = chunk.reshape(-1, l_max * shifts)
            for n, weights in enumerate(step_weights, start):
                size = n + 1 + max(reach)
                if size + l_max > width:
                    width = min(n_events + 1, max(2 * (width - l_max), size)) + l_max
                    wider = np.zeros((2 * l_max, shifts, width))
                    wider[:, :, : ring.shape[2]] = ring
                    ring = wider
                    blocks, diagonals = _ring_views(ring)
                slot = n % l_max
                h = weights @ blocks[slot][:, :size]
                length = size
                while length and h[length - 1] == 0.0:
                    length -= 1
                reach.append(length - 1 - n)
                diagonals[slot][:, :size] = h
                diagonals[slot + l_max][:, :size] = h

        values = np.zeros(n_events + 1)
        values[:length] = h[:length]
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            s = int(bad[0])
            raise NonFiniteError(
                f"p_N({s}) = {float(values[s])!r} is not finite: the recurrence "
                "overflowed double precision"
            )
        error_estimate = fsum_or_inf(map(abs, values[:length].tolist())) * _EPS
    return Pmf.from_values(values, tail_bound=0.0, error_estimate=error_estimate)
