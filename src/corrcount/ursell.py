"""Correlation (Ursell) expansion machinery on exchangeable tables.

Marginals of a joint give probability tables P_k; subtracting every
factorized lower-order contribution gives the connected correlation tables
G_k.  Two equivalent routes are implemented: the literal recursion over
argument permutations (kept on the expanded per-pattern view, so symmetry
and sign identities can be tested from first principles) and the
set-partition sum used as the production path.  The recursion computes
every one of the 2^k patterns and never uses symmetry, but it runs one
order on all patterns at once: (k-1)! * (k-1) vector steps, one per
permutation and split, over arrays of 2^k entries.  The inverse
reconstruction P-from-G and the partition enumerator they share live here
too.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from .core import (
    KIND_CORRELATION,
    KIND_PROBABILITY,
    BadShapeError,
    ExchangeableJoint,
    OutOfRangeError,
    SymmetricTable,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PARTITION_MAX_ORDER",
    "RECURSION_MAX_ORDER",
    "enumerate_set_partitions",
    "marginalize",
    "correlation_recursive",
    "correlation_recursive_expanded",
    "correlation_partition",
    "probability_from_correlations",
]

# Bell(12) = 4,213,597 terms is the enumeration ceiling; refuse beyond.
PARTITION_MAX_ORDER = 12
# The literal recursion's top order takes (k-1)! * (k-1) vector steps over
# 2^k patterns: about 0.5 s at k = 8, 7 s at k = 9 and 85 s at k = 10.
RECURSION_MAX_ORDER = 10


def enumerate_set_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every set partition of {1, ..., k} exactly once, as its blocks.

    Partitions appear in the lexicographic order of their restricted-growth
    strings (element i joins an existing block, in block-creation order,
    before opening a new one), which makes every yielded partition
    canonical: elements ascend within each block and blocks are ordered by
    their smallest element.  The stream length is the Bell number of k.
    """
    if not isinstance(k, int) or not 1 <= k <= PARTITION_MAX_ORDER:
        raise OutOfRangeError(
            f"partition enumeration supports 1 <= k <= {PARTITION_MAX_ORDER}, got {k!r}"
        )

    blocks: list[list[int]] = [[1]]

    def extend(element: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if element > k:
            yield tuple(tuple(b) for b in blocks)
            return
        for block in blocks:
            block.append(element)
            yield from extend(element + 1)
            block.pop()
        blocks.append([element])
        yield from extend(element + 1)
        blocks.pop()

    yield from extend(2)


def marginalize(joint: ExchangeableJoint, k: int) -> SymmetricTable:
    """Order-k probability table of a joint: sum out the other N-k events.

    values[m] = sum_j C(N-k, j) * pattern_weight[m+j].
    """
    if not isinstance(k, int) or not 1 <= k <= joint.n:
        raise OutOfRangeError(f"marginal order {k!r} outside 1..{joint.n}")
    rest = joint.n - k
    values = [
        math.fsum(
            math.comb(rest, j) * joint.pattern_weight[m + j] for j in range(rest + 1)
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


def _pattern_index(pattern: tuple[int, ...]) -> int:
    return sum(r << i for i, r in enumerate(pattern))


def _pattern_vector(table: SymmetricTable) -> np.ndarray:
    import numpy as np

    vec = np.empty(2 ** table.order)
    for pattern, value in table.expanded().items():
        vec[_pattern_index(pattern)] = value
    return vec


def _recursive_orders(p_tables: Sequence[SymmetricTable]) -> list[np.ndarray]:
    """G_1..G_k of the literal recursion, each over all 2^j patterns.

    Entry b of order j is the pattern with r_i = (b >> i) & 1.  Each order
    works on all 2^j argument patterns at once; every pattern gets the
    float operations of the per-pattern sum in its (sigma, l) order, so
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
    p_vec = {j: _pattern_vector(p_tables[j - 1]) for j in range(1, k + 1)}
    g_vec = {1: p_vec[1]}
    for j in range(2, k + 1):
        weight = {
            l: 1.0 / (math.factorial(l - 1) * math.factorial(j - l))
            for l in range(1, j)
        }
        patterns = np.arange(2 ** j)
        bit = [(patterns >> i) & 1 for i in range(j)]
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


def _expanded(vec: np.ndarray, k: int) -> dict[tuple[int, ...], float]:
    values = vec.tolist()
    return {
        r: values[_pattern_index(r)] for r in itertools.product((0, 1), repeat=k)
    }


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
    return _expanded(_recursive_orders(p_tables)[-1], len(p_tables))


def correlation_recursive(p_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k correlation table from the literal permutation recursion."""
    expanded = correlation_recursive_expanded(p_tables)
    k = len(p_tables)
    values = [expanded[(1,) * m + (0,) * (k - m)] for m in range(k + 1)]
    return SymmetricTable.correlation(values)


def _block_product(g, blocks, m) -> float:
    prod = 1.0
    for block in blocks:
        # elements <= m are the ones under the canonical m-ones pattern
        prod *= g[len(block)][bisect_right(block, m)]
    return prod


def _partition_orders(p_tables: Sequence[SymmetricTable]) -> list[SymmetricTable]:
    """G_1..G_k by the set-partition sum, each order built once from below."""
    k = _check_tables(p_tables, KIND_PROBABILITY)
    if k > PARTITION_MAX_ORDER:
        raise OutOfRangeError(f"partition route supports k <= {PARTITION_MAX_ORDER}")
    g: dict[int, list[float]] = {1: list(p_tables[0].values)}
    for j in range(2, k + 1):
        disconnected = [0.0] * (j + 1)
        for blocks in enumerate_set_partitions(j):
            if len(blocks) == 1:
                continue
            for m in range(j + 1):
                disconnected[m] += _block_product(g, blocks, m)
        p_j = p_tables[j - 1].values
        g[j] = [p_j[m] - disconnected[m] for m in range(j + 1)]
    return [SymmetricTable.correlation(g[j]) for j in range(1, k + 1)]


def correlation_partition(p_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k correlation table via the set-partition sum, bottom-up.

    G_k = P_k - sum over partitions of {1..k} with >= 2 blocks of the
    product of lower-order G values on each block.  Agrees with the
    literal recursion wherever both are defined.
    """
    return _partition_orders(p_tables)[-1]


def probability_from_correlations(g_tables: Sequence[SymmetricTable]) -> SymmetricTable:
    """Order-k probability table rebuilt from correlation tables.

    P_k = sum over all set partitions of {1..k} of the product of G values
    on the blocks; the inverse of :func:`correlation_partition`.  Summing
    the result over one argument reproduces the order k-1 reconstruction.
    """
    k = _check_tables(g_tables, KIND_CORRELATION)
    if k > PARTITION_MAX_ORDER:
        raise OutOfRangeError(f"partition route supports k <= {PARTITION_MAX_ORDER}")
    g = {j: list(g_tables[j - 1].values) for j in range(1, k + 1)}
    values = [0.0] * (k + 1)
    for blocks in enumerate_set_partitions(k):
        for m in range(k + 1):
            values[m] += _block_product(g, blocks, m)
    return SymmetricTable(order=k, kind=KIND_PROBABILITY, values=tuple(values))
