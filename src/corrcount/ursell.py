"""Correlation (Ursell) expansion machinery on exchangeable tables.

Marginals of a joint give probability tables P_k; subtracting every
factorized lower-order contribution gives the connected correlation tables
G_k.  Two equivalent routes are implemented.  The literal recursion over
argument permutations is kept on all 2^k argument patterns, so symmetry
and sign identities can be tested from first principles; it runs one
order on all patterns at once, in (k-1)! * (k-1) vector steps.
The production path uses that P_k sums the product of G over the blocks
of every set partition, and that an exchangeable table depends only on a
block's size and number of ones: so P is the exponential of G as
bivariate series, and G its logarithm, with no partition enumerated.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .core import (
    KIND_CORRELATION,
    KIND_PROBABILITY,
    BadShapeError,
    ExchangeableJoint,
    NonFiniteError,
    OutOfRangeError,
    SymmetricTable,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RECURSION_MAX_ORDER",
    "marginalize",
    "correlation_recursive",
    "correlation_recursive_expanded",
    "correlation_partition",
    "probability_from_correlations",
]

# The literal recursion's top order takes (k-1)! * (k-1) vector steps over
# 2^k patterns: about 0.5 s at k = 8, 7 s at k = 9 and 85 s at k = 10.
RECURSION_MAX_ORDER = 10


def marginalize(joint: ExchangeableJoint, k: int) -> SymmetricTable:
    """Order-k probability table of a joint: sum out the other N-k events.

    A pattern with s ones has probability mass[s] / C(N, s), so
    values[m] = sum_j mass[m+j] * C(N-k, j) / C(N, m+j), each ratio of
    exact integers rounded once.
    """
    if not isinstance(k, int) or not 1 <= k <= joint.n:
        raise OutOfRangeError(f"marginal order {k!r} outside 1..{joint.n}")
    rest = joint.n - k
    values = [
        math.fsum(
            joint.mass[m + j] * (math.comb(rest, j) / math.comb(joint.n, m + j))
            for j in range(rest + 1)
        )
        for m in range(k + 1)
    ]
    return SymmetricTable.probability(values)


def _check_tables(tables: Sequence[SymmetricTable], kind: str) -> int:
    if not tables:
        raise BadShapeError("need at least the order-1 table")
    for j, table in enumerate(tables, start=1):
        if table.order != j:
            raise BadShapeError(
                f"expected table of order {j} at position {j - 1}, got {table.order}"
            )
        if table.kind != kind:
            raise BadShapeError(f"expected {kind} table at order {j}, got {table.kind}")
    return len(tables)


def _recursive_orders(p_tables: Sequence[SymmetricTable]) -> list[np.ndarray]:
    """G_1..G_k of the literal recursion, each over all 2^j patterns.

    Entry b of order j is the argument pattern with r_i = (b >> i) & 1, so
    an exchangeable table puts values[m] at every b with m bits set.  Each
    order works on all 2^j argument patterns at once; every pattern gets
    the float operations of the per-pattern sum in its (sigma, l) order, so
    the values are bit-identical to a loop over patterns
    (tests/test_ursell.py keeps that loop as the reference).
    """
    import numpy as np

    k = _check_tables(p_tables, KIND_PROBABILITY)
    if k > RECURSION_MAX_ORDER:
        raise OutOfRangeError(
            f"literal recursion supports k <= {RECURSION_MAX_ORDER}; "
            "use correlation_partition beyond"
        )
    p_vec, g_vec = {}, {}
    for j in range(1, k + 1):
        patterns = np.arange(2 ** j)
        bit = [(patterns >> i) & 1 for i in range(j)]
        p_vec[j] = np.asarray(p_tables[j - 1].values)[sum(bit)]
        weight = {
            l: 1.0 / (math.factorial(l - 1) * math.factorial(j - l))
            for l in range(1, j)
        }
        acc = np.zeros(2 ** j)
        for sigma in itertools.permutations(range(1, j)):
            # bit t of q is r[sigma[t]]: the trailing slots read in sigma order
            q = sum(bit[s] << t for t, s in enumerate(sigma))
            for l in range(1, j):
                g_args = bit[0] | ((q & ((1 << (l - 1)) - 1)) << 1)
                p_args = q >> (l - 1)
                acc += weight[l] * g_vec[l][g_args] * p_vec[j - l][p_args]
        g_vec[j] = p_vec[j] - acc
    return [g_vec[j] for j in range(1, k + 1)]


def correlation_recursive_expanded(
    p_tables: Sequence[SymmetricTable],
) -> dict[tuple[int, ...], float]:
    """Expanded-view G_k via the literal recursion over argument permutations.

    For each pattern, subtracts sum_sigma sum_l G_l(r_1, r_sigma(2..l)) *
    P_{k-l}(r_sigma(l+1..k)) / ((l-1)! (k-l)!) with sigma running over all
    permutations of the trailing k-1 argument slots.  Nothing assumes
    symmetry of the inputs or intermediates, so the returned dictionary is
    the right object for testing permutation invariance and the sign-flip
    identity from scratch.
    """
    values = _recursive_orders(p_tables)[-1].tolist()
    return {
        r: values[sum(x << i for i, x in enumerate(r))]
        for r in itertools.product((0, 1), repeat=len(p_tables))
    }


def correlation_recursive(p_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k correlation table from the literal permutation recursion."""
    g = _recursive_orders(p_tables)[-1]
    values = [g[(1 << m) - 1] for m in range(len(p_tables) + 1)]
    return SymmetricTable.correlation(values)


def _exact_formula(
    tables: Sequence[Sequence], log: bool
) -> tuple[list[list[int]], int]:
    """P_1..P_k from the values of G_1..G_k, or G from P if ``log``, exactly.

    With class masses B_j[m] = C(j, m) P_j[m] and K_j[o] = C(j, o) G_j[o],
    grouping partitions by the block of size j holding the first event
    gives B_n = K_n + sum_{j<n} C(n-1, j-1) (K_j * B_{n-j}), B_0 = [1], with
    * the convolution over the count of ones: the degree-n part of
    D exp(L) = exp(L) D L, for the series L of G, D = x d/dx + y d/dy.
    Entries are floats or fractions; times D^j, D their common denominator,
    order j is integral, and the recurrence is homogeneous in the order.
    Returns (numerators, D): entry m of order j is
    numerators[j-1][m] / (C(j, m) D^j).
    """
    try:
        ratios = [[v.as_integer_ratio() for v in values] for values in tables]
    except (OverflowError, ValueError) as exc:  # inf or nan
        raise NonFiniteError(f"table entries must be finite ({exc})") from exc
    scale = math.lcm(*(den for values in ratios for _, den in values))
    given = [
        [math.comb(j, m) * num * (scale**j // den) for m, (num, den) in enumerate(row)]
        for j, row in enumerate(ratios, start=1)
    ]
    out: list[list[int]] = []
    for n in range(1, len(given) + 1):
        lower, masses = (out, given) if log else (given, out)
        rest = [0] * (n + 1)
        for j in range(1, n):
            weight = math.comb(n - 1, j - 1)
            for o, a in enumerate(lower[j - 1]):
                for t, b in enumerate(masses[n - j - 1]):
                    rest[o + t] += weight * a * b
        out.append([v - r if log else v + r for v, r in zip(given[n - 1], rest)])
    return out, scale


def _exponential_formula(tables: Sequence[Sequence], log: bool) -> list[list[float]]:
    """:func:`_exact_formula`, each entry correctly rounded to a float."""
    out, scale = _exact_formula(tables, log)
    try:
        return [
            [v / (math.comb(j, m) * scale**j) for m, v in enumerate(values)]
            for j, values in enumerate(out, start=1)
        ]
    except OverflowError as exc:
        raise NonFiniteError(f"a table entry leaves the double range ({exc})") from exc


def _correlation_orders(p_tables: Sequence[SymmetricTable]) -> list[SymmetricTable]:
    """G_1..G_k of the probability tables P_1..P_k."""
    _check_tables(p_tables, KIND_PROBABILITY)
    values = _exponential_formula([table.values for table in p_tables], log=True)
    return [SymmetricTable.correlation(g) for g in values]


def correlation_partition(p_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k correlation table by the exponential formula.

    G_k = P_k - sum over partitions of {1..k} with >= 2 blocks of the
    product of lower-order G on the blocks; each entry is the correctly
    rounded exact value.  Agrees with the literal recursion.
    """
    return _correlation_orders(p_tables)[-1]


def probability_from_correlations(g_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k probability table, the inverse of :func:`correlation_partition`.

    P_k = sum over all partitions of {1..k} of the product of G on the blocks.
    """
    _check_tables(g_tables, KIND_CORRELATION)
    values = _exponential_formula([table.values for table in g_tables], log=False)[-1]
    return SymmetricTable(order=len(values) - 1, kind=KIND_PROBABILITY, values=values)
