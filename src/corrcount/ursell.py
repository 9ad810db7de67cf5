"""Correlation (Ursell) expansion machinery on exchangeable tables.

Marginals of a joint are the joints P_k of k events; subtracting every
factorized lower-order contribution gives the connected correlation tables
G_k.  All are stored by class total.  Two equivalent routes are
implemented.  The literal recursion over argument permutations is kept on
all 2^k argument patterns, the only per-pattern view, so symmetry and sign
identities can be tested from first principles; it runs one order on all
patterns at once, a block of argument permutations at a time.
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
    BadShapeError,
    ExchangeableJoint,
    NonFiniteError,
    OutOfRangeError,
    SymmetricTable,
    is_int_in,
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

# The literal recursion's top order sums (k-1)! * (k-1) terms on each of
# 2^k patterns: about 0.24 s at k = 8, 1.9 s at k = 9 and 39 s at k = 10
# in process on 2 vCPUs.
RECURSION_MAX_ORDER = 10
# Doubles in one block of (sigma, l) terms: 512 KB, which stays in cache.
# Order 9 took 1.7 s at this size and 5.1 s at 10^6 doubles.
_RECURSION_BLOCK = 2 ** 16


def marginalize(joint: ExchangeableJoint, k: int) -> ExchangeableJoint:
    """Joint of k of the N events: sum out the other N-k.

    Given that m+j of all N events occur, the count among k of them is
    hypergeometric, so mass_k[m] = sum_j mass[m+j] * C(k, m) C(N-k, j) /
    C(N, m+j), each weight a ratio of exact integers rounded once.  At
    k = N every weight is 1 and the joint comes back unchanged.
    """
    if not is_int_in(k, 1, joint.n):
        raise OutOfRangeError(f"marginal order {k!r} outside 1..{joint.n}")
    rest = joint.n - k
    c_k, c_rest, c_n = ([math.comb(t, i) for i in range(t + 1)] for t in (k, rest, joint.n))
    mass = [
        math.fsum(
            joint.mass[m + j] * (c_k[m] * c_rest[j] / c_n[m + j])
            for j in range(rest + 1)
        )
        for m in range(k + 1)
    ]
    return ExchangeableJoint(mass)


def _check_tables(tables: Sequence, cls: type) -> list[tuple[float, ...]]:
    """Class totals of the order-1..k tables, each checked to be a ``cls``."""
    if not tables:
        raise BadShapeError("need at least the order-1 table")
    for j, table in enumerate(tables, start=1):
        if not isinstance(table, cls):
            raise BadShapeError(
                f"expected {cls.__name__} at order {j}, got {type(table).__name__}"
            )
    totals = [t.mass if cls is ExchangeableJoint else t.values for t in tables]
    for j, values in enumerate(totals, start=1):
        if len(values) != j + 1:
            raise BadShapeError(
                f"expected table of order {j} at position {j - 1}, got {len(values) - 1}"
            )
    return totals


def _recursive_orders(p_tables: Sequence[ExchangeableJoint]) -> list[np.ndarray]:
    """Per-pattern G_1..G_k of the literal recursion, each over all 2^j patterns.

    Entry b of order j is the argument pattern with r_i = (b >> i) & 1, so
    a joint puts its per-pattern probability mass[m] / C(j, m) at every b
    with m bits set.  Term (sigma, l) of pattern b depends only on its
    argument word under sigma (r_0, then the trailing slots in sigma
    order), so each order forms its j - 1 products once on all 2^j words.
    It then takes the permutations in blocks of about _RECURSION_BLOCK /
    (2^j (j-1)), gathers the block's (sigma, l) terms on every pattern as
    one array and folds them into the sum with np.add.accumulate, which
    adds sequentially.  So every pattern gets the float operations of the
    per-pattern sum in its (sigma, l) order, and the values are
    bit-identical to a loop over patterns (tests/test_ursell.py keeps
    that loop as the reference).
    """
    import numpy as np

    totals = _check_tables(p_tables, ExchangeableJoint)
    k = len(totals)
    if k > RECURSION_MAX_ORDER:
        raise OutOfRangeError(
            f"literal recursion supports k <= {RECURSION_MAX_ORDER}; "
            "use correlation_partition beyond"
        )
    p_vec, g_vec = {}, {}
    for j in range(1, k + 1):
        x = np.arange(2 ** j)
        bit = (x >> np.arange(j)[:, None]) & 1  # bit[i] is r_i
        per_pattern = [v / math.comb(j, m) for m, v in enumerate(totals[j - 1])]
        p_vec[j] = np.asarray(per_pattern)[bit.sum(axis=0)]
        # term l of word x: G_l reads its low l bits and P_{j-l} the rest
        term = [
            1.0 / (math.factorial(l - 1) * math.factorial(j - l))
            * g_vec[l][x & ((1 << l) - 1)] * p_vec[j - l][x >> l]
            for l in range(1, j)
        ]
        acc = np.zeros(2 ** j)
        sigmas = itertools.permutations(range(1, j))
        # order 1 has no terms
        block = _RECURSION_BLOCK // (2 ** j * (j - 1)) + 1 if j > 1 else 0
        while rows := list(itertools.islice(sigmas, block)):
            sigma = np.asarray(rows)
            # bit t + 1 of a word is r[sigma[t]]
            word = bit[0] | sum(bit[sigma[:, t]] << (t + 1) for t in range(j - 1))
            # row 0 carries the sum so far; row 1 + s (j-1) + (l-1) is term (s, l)
            terms = np.empty((1 + len(rows) * (j - 1), 2 ** j))
            terms[0] = acc
            by_sigma = terms[1:].reshape(len(rows), j - 1, 2 ** j)
            for l in range(1, j):
                by_sigma[:, l - 1] = term[l - 1][word]
            acc = np.add.accumulate(terms, axis=0)[-1]
        g_vec[j] = p_vec[j] - acc
    return [g_vec[j] for j in range(1, k + 1)]


def correlation_recursive_expanded(
    p_tables: Sequence[ExchangeableJoint],
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


def correlation_recursive(p_tables: Sequence[ExchangeableJoint]) -> SymmetricTable:
    """Order-k correlation table from the literal permutation recursion."""
    g, k = _recursive_orders(p_tables)[-1], len(p_tables)
    # class m totals C(k, m) copies of its canonical pattern, all ones first
    return SymmetricTable(math.comb(k, m) * g[(1 << m) - 1] for m in range(k + 1))


def _exact_formula(
    tables: Sequence[Sequence], log: bool
) -> tuple[list[list[int]], int]:
    """Class totals P_1..P_k from those of G_1..G_k, or G from P if ``log``, exactly.

    With B_j the class totals of P_j and K_j those of G_j, grouping
    partitions by the block of size j holding the first event gives
    B_n = K_n + sum_{j<n} C(n-1, j-1) (K_j * B_{n-j}), B_0 = [1], with
    * the convolution over the count of ones: the degree-n part of
    D exp(L) = exp(L) D L, for the series L of G, D = x d/dx + y d/dy.
    Entries are floats or fractions; times D^j, D their common denominator,
    order j is integral, and the recurrence is homogeneous in the order.
    Returns (numerators, D): entry m of order j is numerators[j-1][m] / D^j.
    """
    try:
        ratios = [[v.as_integer_ratio() for v in values] for values in tables]
    except (OverflowError, ValueError) as exc:  # inf or nan
        raise NonFiniteError(f"table entries must be finite ({exc})") from exc
    scale = math.lcm(*(den for values in ratios for _, den in values))
    given = [
        [num * (scale**j // den) for num, den in row]
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
            [v / scale**j for v in values]
            for j, values in enumerate(out, start=1)
        ]
    except OverflowError as exc:
        raise NonFiniteError(f"a table entry leaves the double range ({exc})") from exc


def _correlation_orders(p_tables: Sequence[ExchangeableJoint]) -> list[SymmetricTable]:
    """G_1..G_k of the probability tables P_1..P_k."""
    values = _exponential_formula(_check_tables(p_tables, ExchangeableJoint), log=True)
    return [SymmetricTable(g) for g in values]


def correlation_partition(p_tables: Sequence[ExchangeableJoint]) -> SymmetricTable:
    """Order-k correlation table by the exponential formula.

    G_k = P_k - sum over partitions of {1..k} with >= 2 blocks of the
    product of lower-order G on the blocks; each entry is the correctly
    rounded exact value.  Agrees with the literal recursion.
    """
    return _correlation_orders(p_tables)[-1]


def probability_from_correlations(g_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k probability table, the inverse of :func:`correlation_partition`.

    P_k = sum over all partitions of {1..k} of the product of G on the blocks.
    The result carries the rounding of G, so it is a table, not a joint.
    """
    return SymmetricTable(
        _exponential_formula(_check_tables(g_tables, SymmetricTable), log=False)[-1]
    )
