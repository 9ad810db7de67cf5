import math
import tracemalloc
import warnings

import numpy as np
import pytest

from corrcount import (
    CorrelationModel,
    MixtureSpec,
    Pmf,
    build_mixture_joint,
    estimate_coefficients,
    limit_pmf,
    sample_counts,
)
from corrcount.core import (
    MAX_POINTS,
    BadShapeError,
    InadmissiblePmfError,
    InvalidDistributionError,
    NonFiniteError,
    OutOfRangeError,
    correlation_coefficient,
)
from corrcount.finite import MAX_EVENT_COUNT
from corrcount.limit import SUPPORT_CAP, factorial_cumulants
from corrcount.montecarlo import EstimateReport, sample_blocks
from corrcount.ursell import correlation_partition, marginalize
from corrcount.verify import measure_coefficients

from conftest import make_random_mixture, pattern_value


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            MixtureSpec(((0.5, 0.4), (0.4, 0.4)))

    def test_probability_bounds(self):
        with pytest.raises(OutOfRangeError):
            MixtureSpec(((1.5, 1.0),))
        with pytest.raises(OutOfRangeError):
            MixtureSpec(((-0.1, 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(BadShapeError):
            MixtureSpec(())

    @pytest.mark.parametrize(
        "atoms, error, message",
        [
            (((math.nan, 1.0),), NonFiniteError, "non-finite atom (nan, 1.0)"),
            (((0.2, 1.5), (0.8, -0.5)), InvalidDistributionError, "negative atom weight -0.5"),
        ],
        ids=["nan-atom", "negative-weight"],
    )
    def test_bad_atom_named(self, atoms, error, message):
        with pytest.raises(error) as caught:
            MixtureSpec(atoms)
        assert str(caught.value) == message


class TestBuildMixtureJoint:
    def test_all_or_nothing(self):
        joint = build_mixture_joint(MixtureSpec(((0.0, 0.5), (1.0, 0.5))), 3)
        assert joint.mass == (0.5, 0.0, 0.0, 0.5)

    def test_single_atom_is_iid(self):
        joint = build_mixture_joint(MixtureSpec(((0.25, 1.0),)), 5)
        coeffs = measure_coefficients(joint)
        assert coeffs[0] == pytest.approx(5 * 0.25, abs=1e-14)
        assert max(abs(c) for c in coeffs[1:]) == 0.0

    def test_two_atom_example(self):
        joint = build_mixture_joint(MixtureSpec(((0.2, 0.5), (0.8, 0.5))), 2)
        p1 = marginalize(joint, 1)
        assert pattern_value(p1, (1,)) == pytest.approx(0.5, abs=1e-15)
        g2 = correlation_partition([p1, marginalize(joint, 2)])
        assert pattern_value(g2, (1, 1)) == pytest.approx(0.09, abs=1e-15)
        assert correlation_coefficient(g2, 2) == pytest.approx(0.36, abs=1e-14)

    def test_coefficients_match_mixture_moments(self, rng):
        # C_1 = N E[p], C_2 = N^2 Var(p) for any Bernoulli mixture
        for _ in range(10):
            spec = make_random_mixture(rng)
            n = int(rng.integers(2, 7))
            joint = build_mixture_joint(spec, n)
            coeffs = measure_coefficients(joint)[:2]
            mean_p = math.fsum(w * p for p, w in spec.atoms)
            var_p = math.fsum(w * (p - mean_p) ** 2 for p, w in spec.atoms)
            assert coeffs[0] == pytest.approx(n * mean_p, abs=1e-10)
            assert coeffs[1] == pytest.approx(n * n * var_p, abs=1e-10)

    def test_bad_event_count(self):
        with pytest.raises(BadShapeError):
            build_mixture_joint(MixtureSpec(((0.5, 1.0),)), 0)

    def test_bool_event_count_refused(self):
        with pytest.raises(BadShapeError, match="positive integer, got True"):
            build_mixture_joint(MixtureSpec(((0.5, 1.0),)), True)

    def test_event_count_ceiling(self):
        spec = MixtureSpec(((0.3, 1.0),))
        joint = build_mixture_joint(spec, MAX_EVENT_COUNT)
        assert joint.n == MAX_EVENT_COUNT
        assert math.fsum(joint.mass) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(OutOfRangeError, match=f"ceiling {MAX_EVENT_COUNT}"):
            build_mixture_joint(spec, MAX_EVENT_COUNT + 1)


def exact_masses(atoms, n):
    """Class masses sum_atoms w C(n, m) p^m (1-p)^(n-m), each rounded once.

    Every p and w is a ratio of integers, so each mass is an integer over
    one common denominator, and int / int rounds it to a float once.
    """
    ratios = [(p.as_integer_ratio(), w.as_integer_ratio()) for p, w in atoms]
    den = math.lcm(*(w_den * p_den ** n for (_, p_den), (_, w_den) in ratios))
    num = [0] * (n + 1)
    for (p_num, p_den), (w_num, w_den) in ratios:
        scale = den // (w_den * p_den ** n) * w_num
        rest = [1]  # rest[j] = (p_den - p_num)^j
        for _ in range(n):
            rest.append(rest[-1] * (p_den - p_num))
        for m in range(n + 1):
            num[m] += scale * math.comb(n, m) * p_num ** m * rest[n - m]
    return [x / den for x in num]


class TestMixtureMassesAreCorrectlyRounded:
    """Each class mass is the exact mixture mass rounded to a float once."""

    ATOMS = {
        "dyadic": ((0.25, 1.0),),
        "non-dyadic": ((0.3, 1.0),),
        # 0.5 * (1 - 0.2) + 0.5 * (1 - 0.8) is a midpoint between two floats
        "two-atom-tie": ((0.2, 0.5), (0.8, 0.5)),
        "ends": ((0.0, 0.25), (1.0, 0.25), (0.625, 0.5)),
        # 0.5 * C(n, 1) * 5e-324 lies just below a midpoint for odd n
        "subnormal": ((5e-324, 0.5), (1.0, 0.25), (0.0, 0.25)),
        "three-atom": ((0.1, 0.3), (0.7, 0.3), (0.999, 0.4)),
        "near-one": ((1.0 - 2.0 ** -53, 0.5), (0.5, 0.5)),
    }

    @pytest.mark.parametrize("name", sorted(ATOMS))
    def test_small_n(self, name):
        atoms = self.ATOMS[name]
        for n in range(1, 41):
            want = exact_masses(atoms, n)
            assert list(build_mixture_joint(MixtureSpec(atoms), n).mass) == want, n

    @pytest.mark.parametrize("name", ["non-dyadic", "two-atom-tie", "subnormal"])
    def test_n_near_300(self, name):
        atoms = self.ATOMS[name]
        want = exact_masses(atoms, 301)
        assert list(build_mixture_joint(MixtureSpec(atoms), 301).mass) == want


class TestSampleCounts:
    def test_determinism(self):
        pmf = limit_pmf(CorrelationModel([2.0]))
        a = sample_counts(pmf, 1000, seed=42)
        b = sample_counts(pmf, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_counts(pmf, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_poisson_mean_within_standard_error(self):
        pmf = limit_pmf(CorrelationModel([2.0]))
        counts = sample_counts(pmf, 10 ** 6, seed=7)
        se = math.sqrt(2.0 / 10 ** 6)
        assert abs(counts.mean() - 2.0) < 4 * se

    def test_point_mass(self):
        pmf = Pmf.from_values([1.0])
        counts = sample_counts(pmf, 5, seed=0)
        assert counts.tolist() == [0, 0, 0, 0, 0]

    def test_inadmissible_rejected(self):
        pmf = limit_pmf(CorrelationModel([0.1, -5.0]))
        with pytest.raises(InadmissiblePmfError):
            sample_counts(pmf, 10, seed=0)

    def test_hand_built_signed_pmf_rejected(self):
        # the flag is read off the values, so a direct construction cannot lie
        pmf = Pmf((-0.5, 1.5))
        assert not pmf.admissible
        with pytest.raises(InadmissiblePmfError, match=r"p\(0\) = -0.5"):
            sample_counts(pmf, 5, seed=0)

    def test_sample_count_domain(self):
        pmf = Pmf.from_values([1.0])
        with pytest.raises(OutOfRangeError):
            sample_counts(pmf, 0, seed=0)

    def test_sample_count_ceiling(self):
        # refused before any draw is allocated
        pmf = Pmf.from_values([1.0])
        with pytest.raises(OutOfRangeError, match="1..10000000"):
            sample_counts(pmf, MAX_POINTS + 1, seed=0)

    # Masses summing to 0.75 send a quarter of the uniforms past the last
    # cumulative value, so the clip to s_max is exercised.
    SHORT_PMF = Pmf((0.25, 0.125, 0.375))

    @pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 196609])
    @pytest.mark.parametrize("short", [False, True], ids=["limit", "short"])
    def test_blocks_continue_the_one_call_stream(self, n, short):
        pmf = self.SHORT_PMF if short else limit_pmf(CorrelationModel([2.0, 0.5]))
        cdf = np.cumsum(np.clip(np.asarray(pmf.values), 0.0, None))
        u = np.random.Generator(np.random.PCG64(n)).random(n)
        want = np.minimum(np.searchsorted(cdf, u, "right"), len(pmf.values) - 1)
        got = sample_counts(pmf, n, seed=n)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        if short and n > 1:
            assert np.count_nonzero(u >= cdf[-1]) > 0
            assert got.max() == len(pmf.values) - 1

    def test_blocks_join_to_the_counts(self):
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        blocks = list(sample_blocks(pmf, 3 * 65536 + 1, seed=9))
        assert [b.size for b in blocks] == [65536, 65536, 65536, 1]
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), sample_counts(pmf, 3 * 65536 + 1, seed=9))

    @pytest.mark.parametrize(
        "pmf, n, seed, error",
        [
            (Pmf.from_values([1.0]), MAX_POINTS + 1, 0, OutOfRangeError),
            (Pmf.from_values([1.0]), 10, -1, OutOfRangeError),
            (Pmf((-0.5, 1.5)), 10, 0, InadmissiblePmfError),
        ],
        ids=["count", "seed", "inadmissible"],
    )
    def test_blocks_are_refused_before_the_first_draw(self, pmf, n, seed, error):
        # The call itself raises: no block is drawn, so nothing is written.
        with pytest.raises(error):
            sample_blocks(pmf, n, seed)

    def test_memory_is_one_count_array(self):
        # One int64 array of the counts plus one block's uniforms and
        # indices (2 * 65,536 * 8 B = 1 MiB), with 1 MiB to spare.
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        sample_counts(pmf, 10, seed=0)  # lazy numpy set-up is not the sampler's
        tracemalloc.start()
        try:
            counts = sample_counts(pmf, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.size == 10 ** 6
        assert peak <= 8 * 10 ** 6 + 2 * 2 ** 20


class TestEstimateCoefficients:
    def test_constant_counts(self):
        report = estimate_coefficients([3] * 200, l_max=2, n_bootstrap=10, seed=1)
        assert report.c_hat == pytest.approx((3.0, -3.0), abs=1e-12)
        assert report.std_err == pytest.approx((0.0, 0.0), abs=1e-12)
        assert report.n_samples == 200
        assert report.n_bootstrap == 10

    def test_floor_on_sample_count(self):
        with pytest.raises(OutOfRangeError):
            estimate_coefficients([1] * 99, l_max=2)

    def test_order_cap(self):
        with pytest.raises(OutOfRangeError):
            estimate_coefficients([1] * 100000, l_max=5)

    def test_negative_counts_rejected(self):
        with pytest.raises(OutOfRangeError):
            estimate_coefficients([3] * 99 + [-1], l_max=1)

    def test_determinism(self):
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        counts = sample_counts(pmf, 20000, seed=3)
        a = estimate_coefficients(counts, l_max=2, seed=11)
        b = estimate_coefficients(counts, l_max=2, seed=11)
        assert a == b

    def test_consistency_with_growing_samples(self):
        pmf = limit_pmf(CorrelationModel([2.0]))
        spread = {}
        for size in (10 ** 4, 10 ** 5, 10 ** 6):
            counts = sample_counts(pmf, size, seed=5)
            report = estimate_coefficients(counts, l_max=2, n_bootstrap=50, seed=5)
            spread[size] = report.std_err
            # truth within four bootstrap standard errors
            assert abs(report.c_hat[0] - 2.0) < 4 * report.std_err[0]
            assert abs(report.c_hat[1] - 0.0) < 4 * report.std_err[1]
        # bootstrap spread shrinks roughly like 1/sqrt(n)
        for order in (0, 1):
            assert spread[10 ** 5][order] < spread[10 ** 4][order]
            assert spread[10 ** 6][order] < spread[10 ** 5][order]

    @pytest.mark.parametrize("top", [255, 256, 65535, 65536])
    def test_bootstrap_matches_int64_gather(self, rng, top):
        # Each multinomial replicate histogram, expanded back into an int64
        # sample and re-binned, must give the same estimate: the histogram
        # path agrees with an int64 sample at every narrow-dtype boundary.
        counts = rng.integers(0, 40, size=1500)
        counts[700] = top
        got = estimate_coefficients(counts, l_max=2, n_bootstrap=25, seed=top)
        data = counts.astype(np.int64)
        histogram = np.bincount(data)
        values = np.arange(histogram.size, dtype=np.int64)
        child = np.random.default_rng(np.random.SeedSequence(top).spawn(1)[0])
        replicates = []
        for _ in range(25):
            hist_b = child.multinomial(data.size, histogram / data.size)
            assert hist_b.sum() == data.size
            assert not np.any(hist_b[histogram == 0])
            sample_b = np.repeat(values, hist_b)
            replicates.append(factorial_cumulants(
                np.bincount(sample_b, minlength=histogram.size), 2, total=data.size
            ))
        assert got.c_hat == factorial_cumulants(histogram.astype(float), 2, total=data.size)
        assert got.std_err == tuple(
            float(x) for x in np.std(replicates, axis=0, ddof=1)
        )

    def test_bootstrap_matches_index_resampling_in_distribution(self):
        # Multinomial histograms and index resamples are the same law, so
        # at B = 2000 the two std_err values differ by bootstrap noise alone
        # (about 2.3% relative); 10% is over four times that.
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        counts = sample_counts(pmf, 5000, seed=4)
        got = estimate_coefficients(counts, l_max=3, n_bootstrap=2000, seed=4)
        want = int64_gather_estimate(counts, l_max=3, n_bootstrap=2000, seed=4)
        assert got.c_hat == want.c_hat
        for new, ref in zip(got.std_err, want.std_err):
            assert abs(new / ref - 1.0) < 0.10

    def test_count_ceiling(self):
        with pytest.raises(OutOfRangeError, match="supported ceiling"):
            estimate_coefficients([3] * 199 + [10 ** 12], l_max=1)
        counts = [3] * 199 + [SUPPORT_CAP]
        assert estimate_coefficients(counts, l_max=1, n_bootstrap=5).n_samples == 200

    def test_int64_counts_are_not_copied(self):
        counts = np.arange(10 ** 6, dtype=np.int64) % 7
        estimate_coefficients(counts, l_max=2, n_bootstrap=5, seed=0)  # lazy set-up
        tracemalloc.start()
        try:
            estimate_coefficients(counts, l_max=2, n_bootstrap=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    @pytest.mark.parametrize(
        "counts, match",
        [
            (["3"] * 200, "got dtype <U1"),
            ([None] * 200, "got dtype object"),
            ([True] * 200, "got dtype bool"),
            (np.ones(200, dtype=bool), "got dtype bool"),
            # numpy promotes these lists to int64, reading the bool as 1
            ([True] + [3] * 199, "got a bool"),
            ([np.True_] + [3] * 199, "got a bool"),
            ([3.0] * 199 + [math.nan], "counts must be integers"),
            ([math.nan] * 200, "counts must be integers"),
        ],
        ids=["str", "none", "bool", "numpy-bool", "bool-among-ints", "numpy-bool-among-ints",
             "one-nan", "nan"],
    )
    def test_counts_that_are_not_numbers_are_refused(self, counts, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match=match):
                estimate_coefficients(counts, l_max=1, n_bootstrap=5)

    def test_blocks_give_the_estimate_of_their_concatenation(self):
        pmf = limit_pmf(CorrelationModel([2.0, 0.5]))
        counts = sample_counts(pmf, 20000, seed=3)
        want = estimate_coefficients(counts, l_max=3, n_bootstrap=20, seed=11)
        # Sorted counts in three blocks: the histogram grows at the second,
        # and the third, narrower, is added into it.
        order = np.argsort(counts, kind="stable")
        blocks = [
            counts[order[5000:10000]].astype(np.int32),
            [],
            counts[order[10000:]].astype(float),
            counts[order[:5000]],
        ]
        assert estimate_coefficients(iter(blocks), l_max=3, n_bootstrap=20, seed=11) == want

    @pytest.mark.parametrize(
        "blocks, match",
        [
            ([[3] * 100 + [-2], [3] * 100, [-7, 10 ** 7]], "negative count -7 in input"),
            ([[3] * 100 + [10 ** 7], [3] * 100, [2 * 10 ** 7]], "count 20000000 exceeds"),
            ([[2.5] * 100, [3.0] * 100, [-1.0]], "negative count -1.0 in input"),
            ([[3] * 100, [[3]]], "1-d"),
            ([[], []], "nonempty"),
        ],
        ids=["global-minimum", "global-maximum", "minimum-before-integers", "2-d", "empty"],
    )
    def test_block_checks_are_those_of_one_array(self, blocks, match):
        with pytest.raises(OutOfRangeError, match=match):
            estimate_coefficients(iter(blocks), l_max=1, n_bootstrap=5)
        if match != "1-d":
            # One array of the same counts meets the same refusal.
            with pytest.raises(OutOfRangeError, match=match):
                estimate_coefficients(np.concatenate(blocks), l_max=1, n_bootstrap=5)


def int64_gather_estimate(counts, l_max, n_bootstrap, seed):
    """Reference estimate that resamples n indices per bootstrap replicate."""
    data = np.asarray(counts).astype(np.int64)
    n_total = int(data.size)
    histogram = np.bincount(data).astype(float)
    c_hat = factorial_cumulants(histogram, l_max, total=n_total)
    replicates = np.empty((n_bootstrap, l_max))
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_bootstrap)):
        rng = np.random.Generator(np.random.PCG64(child))
        resampled = data[rng.integers(0, n_total, size=n_total)]
        hist_b = np.bincount(resampled, minlength=histogram.size).astype(float)
        replicates[b] = factorial_cumulants(hist_b, l_max, total=n_total)
    return EstimateReport(
        c_hat=c_hat,
        std_err=tuple(float(x) for x in replicates.std(axis=0, ddof=1)),
        n_samples=n_total,
        n_bootstrap=n_bootstrap,
    )
