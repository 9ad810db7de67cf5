import itertools
import math
import struct
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcount import MixtureSpec, build_mixture_joint
from corrcount.core import (
    BadShapeError,
    ExchangeableJoint,
    NonFiniteError,
    OutOfRangeError,
    SymmetricTable,
)
from corrcount.ursell import (
    _correlation_orders,
    _exact_formula,
    correlation_partition,
    correlation_recursive,
    correlation_recursive_expanded,
    marginalize,
    probability_from_correlations,
)
from corrcount.verify import measure_coefficients

from conftest import (
    ALL_OR_NOTHING_3,
    class_totals,
    make_random_joint,
    make_random_mixture,
    pattern_value,
)


def bell_recurrence(k):
    # Bell(n+1) = sum_j C(n, j) Bell(j), Bell(0) = 1
    bell = [1]
    for n in range(k):
        bell.append(sum(math.comb(n, j) * bell[j] for j in range(n + 1)))
    return bell[k]


def iid_tables(p, k):
    joint = build_mixture_joint(MixtureSpec(((p, 1.0),)), k)
    return [marginalize(joint, j) for j in range(1, k + 1)]


def enumerate_set_partitions(k):
    """Yield every set partition of {1, ..., k} exactly once, as its blocks.

    Partitions appear in the lexicographic order of their restricted-growth
    strings (element i joins an existing block, in block-creation order,
    before opening a new one), which makes every yielded partition
    canonical: elements ascend within each block and blocks are ordered by
    their smallest element.  The stream length is the Bell number of k.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    blocks = [[1]]

    def extend(element):
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


def block_product(g, blocks, m):
    prod = 1.0
    for block in blocks:
        # elements <= m are the ones under the canonical m-ones pattern
        prod *= g[len(block)][bisect_right(block, m)]
    return prod


def per_pattern(totals):
    k = len(totals) - 1
    return [v / math.comb(k, m) for m, v in enumerate(totals)]


def to_totals(values):
    k = len(values) - 1
    return [math.comb(k, m) * v for m, v in enumerate(values)]


def partition_orders(p_tables):
    """Class totals of G_1..G_k by the set-partition sum, built from below.

    The definition of the Ursell expansion, enumerated term by term on
    per-pattern values: the oracle for the exponential formula in
    corrcount.ursell.
    """
    g = {1: per_pattern(class_totals(p_tables[0]))}
    for j in range(2, len(p_tables) + 1):
        disconnected = [0.0] * (j + 1)
        for blocks in enumerate_set_partitions(j):
            if len(blocks) == 1:
                continue
            for m in range(j + 1):
                disconnected[m] += block_product(g, blocks, m)
        p_j = per_pattern(class_totals(p_tables[j - 1]))
        g[j] = [p_j[m] - disconnected[m] for m in range(j + 1)]
    return [to_totals(g[j]) for j in range(1, len(p_tables) + 1)]


def partition_probability(g_tables):
    """Class totals of P_k: over all set partitions, the product of G on the blocks."""
    k = len(g_tables)
    g = {j: per_pattern(g_tables[j - 1].values) for j in range(1, k + 1)}
    values = [0.0] * (k + 1)
    for blocks in enumerate_set_partitions(k):
        for m in range(k + 1):
            values[m] += block_product(g, blocks, m)
    return to_totals(values)


def is_canonical(blocks):
    """Disjoint nonempty ascending blocks covering {1, ..., k}, by smallest element."""
    seen: set[int] = set()
    for block in blocks:
        if not block or list(block) != sorted(block):
            return False
        if seen & set(block):
            return False
        seen |= set(block)
    mins = [b[0] for b in blocks]
    order = sum(len(b) for b in blocks)
    return mins == sorted(mins) and seen == set(range(1, order + 1))


class TestEnumerateSetPartitions:
    def test_single_element(self):
        parts = list(enumerate_set_partitions(1))
        assert parts == [((1,),)]

    def test_three_elements(self):
        parts = list(enumerate_set_partitions(3))
        assert len(parts) == 5
        assert parts[0] == ((1, 2, 3),)
        assert ((1, 3), (2,)) in parts

    @pytest.mark.parametrize("k", range(1, 10))
    def test_count_matches_bell_recurrence(self, k):
        assert sum(1 for _ in enumerate_set_partitions(k)) == bell_recurrence(k)

    def test_each_partition_once_and_canonical(self):
        seen = set()
        for part in enumerate_set_partitions(6):
            assert is_canonical(part)
            assert part not in seen
            seen.add(part)
        assert len(seen) == 203

    def test_stream_is_deterministic(self):
        first = list(enumerate_set_partitions(5))
        second = list(enumerate_set_partitions(5))
        assert first == second

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_set_partitions(0))
        with pytest.raises(ValueError):
            list(enumerate_set_partitions(-1))


class TestMarginalize:
    def test_iid_half(self):
        joint = build_mixture_joint(MixtureSpec(((0.5, 1.0),)), 3)
        table = marginalize(joint, 2)
        assert pattern_value(table, (1, 1)) == pytest.approx(0.25, abs=1e-15)

    def test_all_or_nothing_first_order(self):
        table = marginalize(ALL_OR_NOTHING_3, 1)
        assert pattern_value(table, (1,)) == pytest.approx(0.5, abs=0)

    def test_all_or_nothing_second_order(self):
        table = marginalize(ALL_OR_NOTHING_3, 2)
        assert pattern_value(table, (1, 1)) == pytest.approx(0.5, abs=0)
        assert pattern_value(table, (1, 0)) == 0.0

    def test_order_past_the_double_range_of_binomials(self):
        # C(k, m) overflows a double past k = 1029, and the per-pattern
        # probabilities mass[m] / C(n, m) underflow; class masses do neither
        joint = build_mixture_joint(MixtureSpec(((0.3, 1.0),)), 1100)
        marginal = marginalize(joint, 1030)
        assert isinstance(marginal, ExchangeableJoint) and marginal.n == 1030
        assert math.fsum(marginal.mass) == pytest.approx(1.0, abs=1e-12)
        # every hypergeometric weight is exactly 1 at k = n
        assert marginalize(joint, 1100) == joint

    @pytest.mark.parametrize("n", [*range(2, 13), 301])
    def test_masses_match_the_exact_hypergeometric_sums(self, rng, n):
        joint = build_mixture_joint(make_random_mixture(rng), n)
        for k in sorted({1, 2, n // 2, n - 1, n} - {0}):
            exact = [
                sum(
                    Fraction(joint.mass[m + j])
                    * Fraction(math.comb(k, m) * math.comb(n - k, j), math.comb(n, m + j))
                    for j in range(n - k + 1)
                )
                for m in range(k + 1)
            ]
            got = marginalize(joint, k).mass
            assert max(abs(a - float(b)) for a, b in zip(got, exact)) < 1e-15

    def test_order_bounds(self):
        with pytest.raises(OutOfRangeError):
            marginalize(ALL_OR_NOTHING_3, 4)
        with pytest.raises(OutOfRangeError):
            marginalize(ALL_OR_NOTHING_3, 0)

    def test_against_outcome_enumeration(self, rng):
        # sum the joint over every completion pattern, no binomial shortcut
        # beyond the one per-pattern probability mass[s] / C(n, s)
        for _ in range(10):
            joint = make_random_joint(rng, n=int(rng.integers(2, 7)))
            k = int(rng.integers(1, joint.n + 1))
            table = marginalize(joint, k)
            for head in itertools.product((0, 1), repeat=k):
                ones = (
                    sum(head) + sum(rest)
                    for rest in itertools.product((0, 1), repeat=joint.n - k)
                )
                brute = math.fsum(joint.mass[s] / math.comb(joint.n, s) for s in ones)
                assert pattern_value(table, head) == pytest.approx(brute, abs=1e-14)


class TestCorrelationRecursive:
    def test_iid_second_order_vanishes(self):
        g2 = correlation_recursive(iid_tables(0.375, 2))
        assert max(abs(v) for v in g2.values) == 0.0

    def test_all_or_nothing_second_order(self):
        p_tables = [marginalize(ALL_OR_NOTHING_3, k) for k in (1, 2)]
        g2 = correlation_recursive(p_tables)
        assert pattern_value(g2, (1, 1)) == pytest.approx(0.25, abs=1e-15)
        assert pattern_value(g2, (1, 0)) == pytest.approx(-0.25, abs=1e-15)

    def test_all_or_nothing_third_order_all_ones(self):
        p_tables = [marginalize(ALL_OR_NOTHING_3, k) for k in (1, 2, 3)]
        g3 = correlation_recursive(p_tables)
        # 0.5 - 0.125 - 3 * 0.5 * 0.25 = 0
        assert pattern_value(g3, (1, 1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_order_cap(self):
        with pytest.raises(OutOfRangeError):
            correlation_recursive(iid_tables(0.5, 11))

    def test_table_sequence_validated(self):
        tables = iid_tables(0.5, 3)
        with pytest.raises(BadShapeError):
            correlation_recursive([tables[0], tables[2]])

    @pytest.mark.parametrize(
        "route", [correlation_recursive, correlation_recursive_expanded, correlation_partition]
    )
    def test_a_correlation_table_is_not_a_joint(self, route):
        p_tables = iid_tables(0.5, 2)
        g_tables = [correlation_partition(p_tables[:k]) for k in (1, 2)]
        with pytest.raises(BadShapeError, match="expected ExchangeableJoint at order 1"):
            route(g_tables)
        with pytest.raises(BadShapeError, match="expected SymmetricTable at order 2"):
            probability_from_correlations([g_tables[0], p_tables[1]])


def g3_literal(p1, p2, p3, g1, g2, r):
    """Third-order connected part, written out term by term."""
    r1, r2, r3 = r
    G1 = lambda a: pattern_value(g1, (a,))
    G2 = lambda a, b: pattern_value(g2, (a, b))
    return (
        pattern_value(p3, r)
        - G1(r1) * G1(r2) * G1(r3)
        - G1(r1) * G2(r2, r3)
        - G1(r2) * G2(r1, r3)
        - G1(r3) * G2(r1, r2)
    )


def g4_literal(p4, g1, g2, g3, r):
    """Fourth-order connected part: all 14 factorized terms subtracted."""
    r1, r2, r3, r4 = r
    G1 = lambda a: pattern_value(g1, (a,))
    G2 = lambda a, b: pattern_value(g2, (a, b))
    G3 = lambda a, b, c: pattern_value(g3, (a, b, c))
    return (
        pattern_value(p4, r)
        - G1(r1) * G1(r2) * G1(r3) * G1(r4)
        - G2(r1, r2) * G1(r3) * G1(r4)
        - G2(r1, r3) * G1(r2) * G1(r4)
        - G2(r1, r4) * G1(r2) * G1(r3)
        - G2(r2, r3) * G1(r1) * G1(r4)
        - G2(r2, r4) * G1(r1) * G1(r3)
        - G2(r3, r4) * G1(r1) * G1(r2)
        - G2(r1, r2) * G2(r3, r4)
        - G2(r1, r3) * G2(r2, r4)
        - G2(r1, r4) * G2(r2, r3)
        - G3(r1, r2, r3) * G1(r4)
        - G3(r1, r2, r4) * G1(r3)
        - G3(r1, r3, r4) * G1(r2)
        - G3(r2, r3, r4) * G1(r1)
    )


class TestCorrelationPartition:
    def test_matches_recursive_on_examples(self):
        for tables in (
            iid_tables(0.3, 3),
            [marginalize(ALL_OR_NOTHING_3, k) for k in (1, 2, 3)],
        ):
            for k in range(2, len(tables) + 1):
                a = correlation_recursive(tables[:k])
                b = correlation_partition(tables[:k])
                assert max(abs(x - y) for x, y in zip(a.values, b.values)) < 1e-15

    def test_iid_third_order_vanishes(self):
        g3 = correlation_partition(iid_tables(0.3, 3))
        assert max(abs(v) for v in g3.values) < 1e-16

    def test_fourth_order_against_literal_expansion(self, rng):
        joint = make_random_joint(rng, n=5)
        p_tables = [marginalize(joint, k) for k in range(1, 5)]
        g_tables = [correlation_partition(p_tables[:k]) for k in range(1, 5)]
        g4 = correlation_partition(p_tables)
        g1, g2, g3 = g_tables[0], g_tables[1], g_tables[2]
        for r in itertools.product((0, 1), repeat=4):
            literal = g4_literal(p_tables[3], g1, g2, g3, r)
            assert pattern_value(g4, r) == pytest.approx(literal, abs=1e-14)

    def test_third_order_against_literal_expansion(self, rng):
        joint = make_random_joint(rng, n=4)
        p_tables = [marginalize(joint, k) for k in range(1, 4)]
        g1 = correlation_partition(p_tables[:1])
        g2 = correlation_partition(p_tables[:2])
        g3 = correlation_partition(p_tables)
        for r in itertools.product((0, 1), repeat=3):
            literal = g3_literal(p_tables[0], p_tables[1], p_tables[2], g1, g2, r)
            assert pattern_value(g3, r) == pytest.approx(literal, abs=1e-14)


class TestRecursiveVsPartition:
    def test_agreement_on_random_joints(self, rng):
        joints = [make_random_joint(rng, n=int(rng.integers(2, 8))) for _ in range(8)]
        joints.append(make_random_joint(rng, n=8))
        for joint in joints:
            p_tables = [marginalize(joint, k) for k in range(1, joint.n + 1)]
            for k in range(2, len(p_tables) + 1):
                a = correlation_recursive(p_tables[:k])
                b = correlation_partition(p_tables[:k])
                assert max(abs(x - y) for x, y in zip(a.values, b.values)) < 1e-12


def expanded_view(table):
    """Per-pattern dictionary of a table or joint over all 2^k argument patterns."""
    patterns = itertools.product((0, 1), repeat=len(class_totals(table)) - 1)
    return {r: pattern_value(table, r) for r in patterns}


def recursion_loop(p_tables):
    """The literal recursion as a per-pattern loop over dictionaries.

    The reference for the vectorized correlation_recursive_expanded: the
    same floating-point operations in the same order, one pattern at a time.
    """
    k = len(p_tables)
    p_exp = {j: expanded_view(p_tables[j - 1]) for j in range(1, k + 1)}
    g_exp: dict[int, dict[tuple[int, ...], float]] = {1: dict(p_exp[1])}
    for j in range(2, k + 1):
        weight = {
            l: 1.0 / (math.factorial(l - 1) * math.factorial(j - l))
            for l in range(1, j)
        }
        current: dict[tuple[int, ...], float] = {}
        for r in itertools.product((0, 1), repeat=j):
            acc = 0.0
            for sigma in itertools.permutations(range(1, j)):
                for l in range(1, j):
                    g_args = (r[0],) + tuple(r[i] for i in sigma[: l - 1])
                    p_args = tuple(r[i] for i in sigma[l - 1 :])
                    acc += weight[l] * g_exp[l][g_args] * p_exp[j - l][p_args]
            current[r] = p_exp[j][r] - acc
        g_exp[j] = current
    return g_exp[k]


def float_bytes(expanded):
    return {r: struct.pack("<d", value) for r, value in expanded.items()}


class TestRecursionBitIdentity:
    def test_matches_the_loop_on_random_joints(self, rng):
        joints = [make_random_joint(rng, n=int(rng.integers(2, 7))) for _ in range(30)]
        joints.append(make_random_joint(rng, n=7))
        for joint in joints:
            p_tables = [marginalize(joint, k) for k in range(1, joint.n + 1)]
            for k in range(2, joint.n + 1):
                got = correlation_recursive_expanded(p_tables[:k])
                want = recursion_loop(p_tables[:k])
                assert list(got) == list(want)
                assert all(type(value) is float for value in got.values())
                assert float_bytes(got) == float_bytes(want)


class TestExpandedIdentities:
    def test_permutation_symmetry_and_flip(self, rng):
        for _ in range(6):
            joint = make_random_joint(rng, n=int(rng.integers(2, 7)))
            p_tables = [
                marginalize(joint, k) for k in range(1, min(joint.n, 6) + 1)
            ]
            for k in range(2, len(p_tables) + 1):
                expanded = correlation_recursive_expanded(p_tables[:k])
                for pattern, value in expanded.items():
                    for sigma in itertools.permutations(range(k)):
                        permuted = tuple(pattern[i] for i in sigma)
                        assert abs(value - expanded[permuted]) < 1e-12
                    if pattern[0] == 1:
                        assert abs(value + expanded[(0,) + pattern[1:]]) < 1e-12


class TestProbabilityFromCorrelations:
    def test_inverse_of_all_or_nothing_example(self):
        g1 = SymmetricTable([0.5, 0.5])
        g2 = SymmetricTable([0.25, -0.5, 0.25])
        g3 = SymmetricTable([0.0, 0.0, 0.0, 0.0])
        p3 = probability_from_correlations([g1, g2, g3])
        # 0.125 + 3 * 0.5 * 0.25 + 0
        assert pattern_value(p3, (1, 1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_vanishing_higher_orders_mean_independence(self):
        p = 0.3
        g1 = SymmetricTable([1 - p, p])
        zeros = [SymmetricTable([0.0] * (k + 1)) for k in range(2, 5)]
        table = probability_from_correlations([g1, *zeros])
        for m in range(5):
            assert table.values[m] == pytest.approx(
                math.comb(4, m) * p ** m * (1 - p) ** (4 - m), abs=1e-15
            )

    def test_round_trip_on_random_joint(self, rng):
        joint = make_random_joint(rng, n=6)
        p_tables = [marginalize(joint, k) for k in range(1, 7)]
        g_tables = [correlation_partition(p_tables[:k]) for k in range(1, 7)]
        rebuilt = probability_from_correlations(g_tables)
        assert max(
            abs(a - b) for a, b in zip(rebuilt.values, p_tables[-1].mass)
        ) < 1e-12

    def test_marginal_consistency(self, rng):
        # summing the order-k reconstruction over one argument gives order k-1
        joint = make_random_joint(rng, n=5)
        p_tables = [marginalize(joint, k) for k in range(1, 6)]
        g_tables = [correlation_partition(p_tables[:k]) for k in range(1, 6)]
        for k in range(2, 6):
            full = probability_from_correlations(g_tables[:k])
            lower = probability_from_correlations(g_tables[: k - 1])
            for m in range(k):
                ones = (1,) * m + (0,) * (k - 1 - m)
                summed = pattern_value(full, ones + (0,)) + pattern_value(full, ones + (1,))
                assert summed == pytest.approx(pattern_value(lower, ones), abs=1e-13)

    def test_no_order_cap(self):
        # the set-partition sum stopped at order 12; the series has no cap
        p = 0.25
        g1 = SymmetricTable([1 - p, p])
        zeros = [SymmetricTable([0.0] * (k + 1)) for k in range(2, 22)]
        table = probability_from_correlations([g1, *zeros])
        assert table.order == 21
        for m in range(22):
            assert table.values[m] == pytest.approx(
                math.comb(21, m) * p ** m * (1 - p) ** (21 - m), rel=1e-14
            )

    def test_non_finite_result_refused(self):
        g1 = SymmetricTable([0.5, 0.5])
        g2 = SymmetricTable([0.0, math.nan, 0.0])
        with pytest.raises(NonFiniteError):
            probability_from_correlations([g1, g2])


def random_dyadic_tables(rng, k):
    """Tables of order 1..k with entries i / 2^10, i in [-512, 512], as fractions."""
    return [
        [Fraction(int(i), 1024) for i in rng.integers(-512, 513, size=j + 1)]
        for j in range(1, k + 1)
    ]


def exact_tables(tables, log):
    numerators, scale = _exact_formula(tables, log)
    return [
        [Fraction(v, scale**j) for v in values]
        for j, values in enumerate(numerators, start=1)
    ]


class TestExponentialFormula:
    def test_log_matches_the_partition_sum(self, rng):
        for n in [*range(2, 10), 9]:
            joint = make_random_joint(rng, n=n)
            p_tables = [marginalize(joint, k) for k in range(1, n + 1)]
            want = partition_orders(p_tables)
            got = _correlation_orders(p_tables)
            for g, w in zip(got, want):
                assert max(abs(a - b) for a, b in zip(g.values, w)) < 1e-12

    def test_exp_matches_the_partition_sum(self, rng):
        for n in [*range(2, 10), 9]:
            joint = make_random_joint(rng, n=n)
            p_tables = [marginalize(joint, k) for k in range(1, n + 1)]
            g_tables = _correlation_orders(p_tables)
            want = partition_probability(g_tables)
            got = probability_from_correlations(g_tables).values
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("k", [5, 9, 14])
    def test_exact_round_trips(self, rng, k):
        tables = random_dyadic_tables(rng, k)
        assert exact_tables(exact_tables(tables, log=True), log=False) == tables
        assert exact_tables(exact_tables(tables, log=False), log=True) == tables

    def test_results_are_correctly_rounded(self, rng):
        # each float is the nearest double to the exact expansion
        for n in (3, 6, 12):
            joint = make_random_joint(rng, n=n)
            p_tables = [marginalize(joint, k) for k in range(1, n + 1)]
            exact = exact_tables([t.mass for t in p_tables], log=True)
            got = _correlation_orders(p_tables)
            assert [list(g.values) for g in got] == [[float(v) for v in t] for t in exact]

    def test_float_round_trip_at_order_20(self, rng):
        # The exponential cancels G back to P <= 1, so its rounding scales
        # with the largest |G|: 1e-12 of it, or of 1 when |G| is smaller.
        for _ in range(6):
            joint = make_random_joint(rng, n=20)
            p_tables = [marginalize(joint, k) for k in range(1, 21)]
            g_tables = _correlation_orders(p_tables)
            scale = max(1.0, max(abs(v) for g in g_tables for v in g.values))
            rebuilt = probability_from_correlations(g_tables)
            worst = max(abs(a - b) for a, b in zip(rebuilt.values, p_tables[-1].mass))
            assert worst < 1e-12 * scale

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_iid_chain_is_correlation_free(self, n):
        # 6n <= 53 bits: the float joint of a dyadic p is exact up to n = 8
        for i in (4, 17, 32, 60):
            joint = build_mixture_joint(MixtureSpec(((i / 64.0, 1.0),)), n)
            coeffs = measure_coefficients(joint)
            assert max(abs(c) for c in coeffs[1:]) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    atoms=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 1.0)),
        min_size=1,
        max_size=3,
    ),
)
def test_round_trip_property(n, atoms):
    total = math.fsum(w for _, w in atoms)
    norm = [w / total for _, w in atoms]
    norm[-1] = 1.0 - math.fsum(norm[:-1])
    spec = MixtureSpec(tuple((p, w) for (p, _), w in zip(atoms, norm)))
    joint = build_mixture_joint(spec, n)
    p_tables = [marginalize(joint, k) for k in range(1, n + 1)]
    g_tables = [correlation_partition(p_tables[:k]) for k in range(1, n + 1)]
    rebuilt = probability_from_correlations(g_tables)
    assert max(abs(a - b) for a, b in zip(rebuilt.values, p_tables[-1].mass)) < 1e-12
