import math
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrcount import (
    CorrelationModel,
    MixtureSpec,
    Pmf,
    build_mixture_joint,
    estimate_coefficients,
    finite_count_pmf,
    limit_pmf,
    run_identity_suite,
    sample_counts,
)
from corrcount.cli import _model_of
from corrcount.core import (
    _SHOWN,
    BadShapeError,
    CfGrid,
    CorrcountError,
    ExchangeableJoint,
    InvalidDistributionError,
    NonFiniteError,
    OutOfRangeError,
    SymmetricTable,
    correlation_coefficient,
    validate_seed,
)
from corrcount.finite import build_exponent
from corrcount.limit import char_fn, factorial_cumulants
from corrcount.ursell import correlation_recursive, marginalize

from conftest import m_factor, pattern_value


class TestValidateModel:
    def test_minimal_first_order_model(self):
        model = CorrelationModel([2.0])
        assert model.c == (2.0,) and model.n is None

    def test_zero_top_coefficient_is_silent(self):
        # a model of lower order is valid: the library neither warns nor prints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = CorrelationModel([1.0, 0.0])
        assert model.c == (1.0, 0.0)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(NonFiniteError):
            CorrelationModel([1.0, float("nan")])

    def test_inf_coefficient_rejected(self):
        with pytest.raises(NonFiniteError):
            CorrelationModel([float("inf")])

    def test_empty_vector_rejected(self):
        with pytest.raises(BadShapeError, match="at least the coefficient C_1"):
            CorrelationModel([])

    def test_length_mismatch_rejected(self):
        # l_max is the length of c; only a model file states it separately,
        # and the command line's check of a model file refuses a mismatch
        with pytest.raises(BadShapeError, match="expected 3 coefficients, got 2"):
            _model_of({"l_max": 3, "c": [1.0, 2.0]}, None)

    def test_n_below_l_max_rejected(self):
        with pytest.raises(BadShapeError):
            CorrelationModel([1.0, 0.5, 0.2], n=2)

    # True was read as l = 1, and 1.5 raised a raw TypeError.
    @pytest.mark.parametrize("l", [0, 3, True, np.True_, 1.5, np.float64(2.0), "1", None], ids=repr)
    def test_coefficient_order_outside_the_model_refused(self, l):
        with pytest.raises(OutOfRangeError) as caught:
            CorrelationModel([1.0, 2.0]).coefficient(l)
        assert str(caught.value) == f"order {l} outside 1..2"


# JSON-like values, with numpy's bools and ints, integers past the double
# range, and floats that include NaN and +-inf.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-(2 ** 1100), 2 ** 1100),
    st.floats(),
    st.sampled_from([np.True_, np.False_]),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
EVENT_COUNTS = st.one_of(
    st.none(), st.integers(-2, 8), st.floats(), st.text(max_size=2), st.booleans(),
    st.just(np.True_), st.integers(-2, 8).map(np.int64), st.integers(0, 8).map(np.uint8),
)


def is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(
        x, (bool, np.bool_)
    )


@settings(max_examples=300, deadline=None)
@given(
    c=st.one_of(JSON_VALUES, st.lists(JSON_SCALARS, max_size=5)),
    n=EVENT_COUNTS,
    l_max=st.one_of(st.none(), st.just("len"), EVENT_COUNTS),
)
@example(c="12", n=None, l_max=None)
@example(c=[True, 0.5], n=None, l_max=None)
@example(c=[None], n=None, l_max=None)
@example(c=[10 ** 400], n=None, l_max=None)
def test_model_is_valid_or_refused(c, n, l_max):
    # l_max None calls the constructor; otherwise the command line's check of
    # a model object, with the true length of c when l_max is the string "len"
    try:
        if l_max is None:
            model = CorrelationModel(c, n)
        else:
            if l_max == "len" and isinstance(c, list):
                l_max = len(c)
            model = _model_of({"l_max": l_max, "c": c}, n)
    except CorrcountError:
        return
    assert isinstance(c, list) and c and all(map(is_number, c))
    assert model.c == tuple(map(float, c))
    assert all(map(math.isfinite, model.c))
    assert model.n is None or (type(model.n) is int and model.n >= model.l_max)
    assert model.n == n


def reduced_correlation(model: CorrelationModel, k: int, q: int) -> float:
    """Correlation-function value of order k with q zero arguments.

    For exchangeable events the order-k correlation function is determined
    by its all-ones value: flipping any argument to zero flips the sign, so
    the value at q zeros is (-1)^q * C_k / N^k.  Only k >= 2 is handled
    here; at order one the two values are C_1/N and 1 - C_1/N.
    """
    if model.n is None:
        raise BadShapeError("reduced_correlation requires a model with n")
    if not 2 <= k <= model.l_max:
        raise OutOfRangeError(f"order k = {k} outside 2..{model.l_max}")
    if not 0 <= q <= k:
        raise OutOfRangeError(f"zero count q = {q} outside 0..{k}")
    return (-1) ** q * model.coefficient(k) / float(model.n) ** k


class TestValidateSeed:
    def test_non_negative_integers_accepted(self):
        validate_seed(0)
        validate_seed(np.int64(7))

    @pytest.mark.parametrize("seed", [2 ** 70, np.uint8(7), np.int32(0)])
    def test_big_and_numpy_integers_accepted(self, seed):
        validate_seed(seed)

    @pytest.mark.parametrize(
        "seed", [-1, np.int64(-3), 3.0, np.float64(3.0), "3", None, np.True_, True, False]
    )
    def test_other_seeds_refused(self, seed):
        with pytest.raises(OutOfRangeError, match="non-negative integer"):
            validate_seed(seed)

    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: sample_counts(Pmf.from_values([0.5, 0.5]), 10, seed),
            lambda seed: estimate_coefficients([1] * 10, l_max=1, seed=seed),
            lambda seed: run_identity_suite(trials=1, seed=seed),
        ],
        ids=["sample_counts", "estimate_coefficients", "run_identity_suite"],
    )
    def test_callers_refuse_negative_seed(self, call):
        with pytest.raises(OutOfRangeError, match="non-negative integer, got -1"):
            call(-1)


HALF = Pmf.from_values([0.5, 0.5])


@pytest.mark.parametrize(
    "call, value, error",
    [
        (lambda v: sample_counts(HALF, v, 0), True, OutOfRangeError),
        (lambda v: run_identity_suite(n=v, trials=1), 2.5, OutOfRangeError),
        (lambda v: run_identity_suite(n=2, trials=v), 2.5, OutOfRangeError),
        (lambda v: run_identity_suite(n=2, trials=v), True, OutOfRangeError),
        # an event count, refused as CorrelationModel refuses its n
        (lambda v: correlation_coefficient(SymmetricTable([0.5, 0.5]), v), True, BadShapeError),
        (
            lambda v: marginalize(build_mixture_joint(MixtureSpec(((0.5, 1.0),)), 3), v),
            True, OutOfRangeError,
        ),
        (lambda v: estimate_coefficients([1] * 10, v), True, OutOfRangeError),
        (lambda v: estimate_coefficients([1] * 10, 1, n_bootstrap=v), 2.0, OutOfRangeError),
        (lambda v: validate_seed(v), True, OutOfRangeError),
    ],
    ids=[
        "sample_counts-n_samples", "run_identity_suite-n", "run_identity_suite-trials",
        "run_identity_suite-trials-bool", "correlation_coefficient-n", "marginalize-k",
        "estimate_coefficients-l_max", "estimate_coefficients-n_bootstrap",
        "validate_seed",
    ],
)
def test_integer_arguments_refuse_bools_and_floats(call, value, error):
    # a bool is an int to Python, and a float slips past range checks
    with pytest.raises(error, match=repr(value)):
        call(value)


HISTOGRAM_COUNTS = np.repeat(np.arange(4), [30, 40, 20, 10])
MIXTURE_300 = build_mixture_joint(MixtureSpec(((0.25, 0.5), (0.75, 0.5))), 300)
# Each integer argument of the package: a call that takes it, and a valid value.
INTEGER_ARGUMENTS = {
    "CorrelationModel-n": (lambda v: CorrelationModel([1.0, 0.5], n=v), 1000),
    # np.int64(1000) ** 7 wraps to 3875820019684212736
    "correlation_coefficient-n": (
        lambda v: correlation_coefficient(SymmetricTable([0.5] + [0.0] * 6 + [2e-9]), v), 1000,
    ),
    # np.uint8(255) + 1 wraps to 0
    "build_mixture_joint-n": (lambda v: build_mixture_joint(MixtureSpec(((0.5, 1.0),)), v), 255),
    "marginalize-k": (lambda v: marginalize(MIXTURE_300, v), 255),
    "sample_counts-n_samples": (lambda v: sample_counts(HALF, v, 0), 200),
    "sample_counts-seed": (lambda v: sample_counts(HALF, 20, v), 200),
    "estimate_coefficients-l_max": (
        lambda v: estimate_coefficients(HISTOGRAM_COUNTS, v, n_bootstrap=5), 2,
    ),
    "estimate_coefficients-n_bootstrap": (
        lambda v: estimate_coefficients(HISTOGRAM_COUNTS, 1, n_bootstrap=v), 200,
    ),
    "estimate_coefficients-seed": (
        lambda v: estimate_coefficients(HISTOGRAM_COUNTS, 1, n_bootstrap=5, seed=v), 200,
    ),
    "run_identity_suite-n": (lambda v: run_identity_suite(n=v, trials=1), 3),
    "run_identity_suite-trials": (lambda v: run_identity_suite(n=2, trials=v), 2),
    "run_identity_suite-seed": (lambda v: run_identity_suite(n=2, trials=1, seed=v), 200),
    "coefficient-l": (lambda v: CorrelationModel([1.0, 0.5]).coefficient(v), 2),
    "factorial_cumulants-l_max": (lambda v: factorial_cumulants(HISTOGRAM_COUNTS, v), 255),
}


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_arguments_take_numpy_integers(argument, dtype):
    # the result of the equal Python int, which the result stores
    call, value = INTEGER_ARGUMENTS[argument]
    value = min(value, int(np.iinfo(dtype).max))
    want = call(value)
    got = call(dtype(value))
    assert repr(got) == repr(want)


def test_integer_arguments_are_stored_and_computed_as_python_ints():
    model = CorrelationModel([1.0], n=np.int64(5))
    assert type(model.n) is int and model == CorrelationModel([1.0], n=5)
    assert hash(model) == hash(CorrelationModel([1.0], n=5))
    report = estimate_coefficients(HISTOGRAM_COUNTS, 1, n_bootstrap=np.uint8(5))
    assert type(report.n_bootstrap) is int
    # 10 ** np.uint8(4) wraps to 16
    with pytest.raises(OutOfRangeError, match="order 4 needs at least 10000 samples, got 100"):
        estimate_coefficients(HISTOGRAM_COUNTS, np.uint8(4))


@pytest.mark.parametrize("field", ["tail_bound", "error_estimate"])
@pytest.mark.parametrize(
    "value", [None, "0.5", True, np.True_, -1.0, -math.inf, math.nan, 0.5j], ids=repr
)
def test_pmf_scalars_are_numbers_in_their_domain(field, value):
    with pytest.raises(OutOfRangeError) as caught:
        Pmf([1.0], **{field: value})
    assert str(caught.value) == f"{field} must lie in [0, inf], got {value!r}"


def test_pmf_scalars_take_any_real_number_in_their_domain():
    pmf = Pmf([1.0], tail_bound=np.float32(0.5), error_estimate=math.inf)
    assert (pmf.tail_bound, pmf.error_estimate) == (0.5, math.inf)
    assert Pmf([1.0], tail_bound=np.int64(0), error_estimate=1).error_estimate == 1.0
    assert type(Pmf([1.0], error_estimate=1).error_estimate) is float


@pytest.mark.parametrize(
    "value",
    [
        [0.0] * 10 ** 6 + [None],
        [[0.0] * 10 ** 6, None],
        "x" * 10 ** 6,
        {str(i): i for i in range(10 ** 5)},
        [10 ** 4000, None],
    ],
    ids=["long-list", "nested-list", "long-str", "long-dict", "long-int"],
)
def test_a_refusal_shows_a_cut_input(value):
    with pytest.raises(BadShapeError) as caught:
        SymmetricTable(value)
    message = str(caught.value)
    head = "'values' must be an array of numbers, got "
    assert message.startswith(head) and message.endswith("...")
    assert len(message) == len(head) + _SHOWN + 3


@pytest.mark.parametrize(
    "value",
    [[0] * 50 + [None], {2: 1.0, 1: 0.5}, [[1.0, None]], "x" * (_SHOWN - 3)],
    ids=["list", "dict", "nested", "str"],
)
def test_a_refusal_shows_a_short_input_whole(value):
    with pytest.raises(BadShapeError) as caught:
        SymmetricTable(value)
    assert str(caught.value) == f"'values' must be an array of numbers, got {value!r}"


ONE_ATOM = MixtureSpec(((0.5, 1.0),))


@pytest.mark.parametrize(
    "error, site, sibling",
    [
        (
            OutOfRangeError,
            partial(finite_count_pmf, CorrelationModel([1.0], n=100_001)),
            partial(build_mixture_joint, ONE_ATOM, 100_001),
        ),
        (
            OutOfRangeError,  # 1000^103 and 171! leave the double range
            partial(build_exponent, CorrelationModel([1.0] * 103, n=1000)),
            partial(limit_pmf, CorrelationModel([1.0] * 171)),
        ),
        (
            OutOfRangeError,
            partial(estimate_coefficients, [1] * 99, l_max=2),
            partial(estimate_coefficients, [1] * 100, l_max=5),
        ),
        (
            BadShapeError,
            partial(build_mixture_joint, ONE_ATOM, 0),
            partial(CorrelationModel, [1.0], n=0),
        ),
        (
            BadShapeError,
            partial(correlation_coefficient, SymmetricTable([0.5, 0.5]), 0),
            partial(CorrelationModel, [1.0], n=0),
        ),
        (BadShapeError, partial(MixtureSpec, ()), partial(CorrelationModel, [])),
        (
            NonFiniteError,
            partial(MixtureSpec, ((math.nan, 1.0),)),
            partial(CorrelationModel, [math.nan]),
        ),
        (
            OutOfRangeError,
            partial(MixtureSpec, ((1.5, 1.0),)),
            partial(limit_pmf, CorrelationModel([1.0]), mass_tolerance=1.5),
        ),
        (
            InvalidDistributionError,
            partial(MixtureSpec, ((0.2, 1.5), (0.8, -0.5))),
            partial(ExchangeableJoint, [1.5, -0.5]),
        ),
        (
            InvalidDistributionError,
            partial(MixtureSpec, ((0.5, 0.4), (0.4, 0.4))),
            partial(ExchangeableJoint, [0.4, 0.4]),
        ),
    ],
    ids=[
        "event-count-ceiling", "n-to-the-l-overflows", "too-few-samples",
        "mixture-event-count", "coefficient-event-count", "no-atoms", "non-finite-atom",
        "atom-probability", "negative-weight", "weight-sum",
    ],
)
def test_one_class_per_cause(error, site, sibling):
    # a refusal raises the class its sibling of the same cause raises, and
    # no subclass of it
    for call in (site, sibling):
        with pytest.raises(CorrcountError) as caught:
            call()
        assert type(caught.value) is error


class TestReducedCorrelation:
    def test_plain_value(self):
        model = CorrelationModel([1.0, 0.5], n=10)
        assert reduced_correlation(model, k=2, q=0) == pytest.approx(0.005, abs=0)

    def test_one_zero_argument_flips_sign(self):
        model = CorrelationModel([1.0, 0.5], n=10)
        assert reduced_correlation(model, k=2, q=1) == pytest.approx(-0.005, abs=0)

    def test_two_zero_arguments(self):
        model = CorrelationModel([1.0, 0.5, 2.0], n=10)
        assert reduced_correlation(model, k=3, q=2) == pytest.approx(0.002, abs=0)

    def test_bounds(self):
        model = CorrelationModel([1.0, 0.5], n=10)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=3, q=0)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=1, q=0)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=2, q=3)
        with pytest.raises(BadShapeError):
            reduced_correlation(CorrelationModel([1.0, 0.5]), 2, 0)

    @given(
        c=st.floats(-100, 100, allow_nan=False),
        k=st.integers(2, 6),
        q=st.integers(0, 5),
        n=st.integers(6, 1000),
    )
    def test_flip_antisymmetry_is_exact(self, c, k, q, n):
        q = min(q, k - 1)
        model = CorrelationModel([1.0] * (k - 1) + [c], n=n)
        assert reduced_correlation(model, k, q) == -reduced_correlation(model, k, q + 1)


class TestCorrelationCoefficient:
    def test_scaled_all_ones_entry(self):
        table = SymmetricTable([0.05, -0.05, 0.05])
        assert correlation_coefficient(table, 4) == pytest.approx(0.8, abs=1e-15)

    def test_first_order(self):
        table = SymmetricTable([0.7, 0.3])
        assert correlation_coefficient(table, 9) == pytest.approx(9 * 0.3, abs=0)

    def test_iid_joint_measures_zero(self):
        # dyadic atom keeps the joint exactly representable
        joint = build_mixture_joint(MixtureSpec(((0.375, 1.0),)), 4)
        p_tables = [marginalize(joint, k) for k in range(1, 3)]
        g2 = correlation_recursive(p_tables)
        assert pattern_value(g2, (1, 1)) == 0.0
        assert correlation_coefficient(g2, 4) == 0.0

    def test_order_above_n_rejected(self):
        table = SymmetricTable([0.0, 0.0, 0.1])
        with pytest.raises(OutOfRangeError):
            correlation_coefficient(table, 1)

    def test_tiny_entry_past_the_double_range_of_n_to_the_k(self):
        # 200^135 is about 1e310, beyond a double; C_135 itself is not
        g = SymmetricTable([0.0] * 135 + [1e-300])
        want = float(Fraction(200) ** 135 * Fraction(1e-300))
        assert correlation_coefficient(g, 200) == want
        assert correlation_coefficient(SymmetricTable([0.0] * 135), 200) == 0.0
        with pytest.raises(NonFiniteError, match="not a finite double"):
            correlation_coefficient(SymmetricTable([0.0] * 135 + [1.0]), 200)
        with pytest.raises(NonFiniteError, match="not a finite double"):
            correlation_coefficient(SymmetricTable([0.0, math.nan]), 3)

    def test_round_trip_exact_for_power_of_two_n(self):
        # scaling by 2^j is exact, so the round trip must be bitwise
        for n, k, c in ((8, 2, 0.7), (16, 3, -2.317), (32, 4, 5.5)):
            model = CorrelationModel([1.0] * (k - 1) + [c], n=n)
            vals = [reduced_correlation(model, k, q=k - m) for m in range(k + 1)]
            assert correlation_coefficient(SymmetricTable(vals), n) == c

    @given(
        c=st.floats(-10, 10, allow_nan=False).filter(lambda x: x != 0),
        k=st.integers(2, 6),
        n=st.integers(6, 50),
    )
    def test_round_trip_within_one_ulp(self, c, k, n):
        # dividing by N^k and multiplying back rounds at most once each way
        model = CorrelationModel([1.0] * (k - 1) + [c], n=n)
        vals = [reduced_correlation(model, k, q=k - m) for m in range(k + 1)]
        back = correlation_coefficient(SymmetricTable(vals), n)
        assert back == pytest.approx(c, rel=3e-16)


class TestMFactor:
    def test_examples(self):
        assert m_factor(4, 2, 2) == 12
        assert m_factor(5, 1, 3) == 10 == math.comb(5, 3)
        assert m_factor(9, 3, 2) == 30240

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            m_factor(3, 2, 2)
        with pytest.raises(OutOfRangeError):
            m_factor(4, 0, 2)
        with pytest.raises(OutOfRangeError):
            m_factor(4, 2, -1)

    def test_large_values_are_exact_integers(self):
        value = m_factor(60, 5, 12)
        assert isinstance(value, int)
        assert value == math.factorial(60) // math.factorial(12)

    @staticmethod
    def _product_form(n, l, k):
        # choose the l*k arguments, then fill the plets one at a time,
        # order each plet, and forget the plet order
        out = math.comb(n, l * k)
        for i in range(l):
            out *= math.comb((l - i) * k, k)
        return out * math.factorial(k) ** l // math.factorial(k)

    @given(n=st.integers(0, 20), l=st.integers(1, 5), k=st.integers(0, 20))
    def test_matches_binomial_product_form(self, n, l, k):
        if n < l * k:
            with pytest.raises(OutOfRangeError):
                m_factor(n, l, k)
        else:
            assert m_factor(n, l, k) == self._product_form(n, l, k)


class TestSymmetricTable:
    def test_shape_errors(self):
        for values in ((), (0.5,)):
            with pytest.raises(BadShapeError, match="order >= 1"):
                SymmetricTable(values)
        assert SymmetricTable((0.5, -0.5, 2.0)).order == 2  # signed, unchecked

    def test_constructor_reads_a_generator_once(self):
        table = SymmetricTable(x for x in [0.25, 0.5, 0.25])
        assert table.order == 2 and table.values == (0.25, 0.5, 0.25)


class TestJointAndPmf:
    def test_joint_validation(self):
        assert ExchangeableJoint((0.25, 0.5, 0.25)).n == 2
        with pytest.raises(InvalidDistributionError):
            ExchangeableJoint((0.5, 0.5, 0.25))
        with pytest.raises(InvalidDistributionError):
            ExchangeableJoint((0.75, -0.5, 0.75))
        with pytest.raises(BadShapeError, match="n >= 1 events"):
            ExchangeableJoint((1.0,))
        with pytest.raises(NonFiniteError):
            ExchangeableJoint((float("nan"), 0.5))

    def test_pmf_helpers(self):
        pmf = Pmf.from_values([0.25, 0.5, 0.25])
        assert pmf.admissible
        assert pmf.s_max == 2
        assert pmf.total_mass() == pytest.approx(1.0, abs=0)
        assert pmf.mean() == pytest.approx(1.0, abs=0)
        signed = Pmf.from_values([0.7, 0.5, -0.2])
        assert not signed.admissible
        assert signed.most_negative() == (2, -0.2)

    def test_empty_pmf_refused(self):
        with pytest.raises(BadShapeError) as caught:
            Pmf(())
        assert str(caught.value) == "pmf needs at least one entry"

    def test_cf_grid_shape(self):
        CfGrid((0.0, 1.0), (1 + 0j, 0.5 + 0.1j))
        with pytest.raises(BadShapeError):
            CfGrid((0.0,), (1 + 0j, 0.5j))


@settings(max_examples=30)
@given(data=st.data())
def test_reduced_table_matches_lemma_on_random_models(data):
    # every entry of the reduced table equals (+/-) C_k / N^k
    k = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(k, 40))
    c = data.draw(st.floats(-5, 5, allow_nan=False))
    model = CorrelationModel([0.5] * (k - 1) + [c], n=n)
    base = model.coefficient(k) / float(n) ** k
    for q in range(k + 1):
        assert reduced_correlation(model, k, q) == (-1) ** q * base


def test_numpy_inputs_coerce_cleanly():
    model = CorrelationModel(np.array([1.0, 0.5]), n=10)
    assert model.c == (1.0, 0.5)
    pmf = Pmf.from_values(np.array([0.5, 0.5]))
    assert pmf.values == (0.5, 0.5)


# Every numeric field of the package, checked by one rule: (build from a value
# of the field, read the field back, the field's name, a valid float value,
# the type each entry is converted to).
NUMERIC_FIELDS = {
    "CorrelationModel.c": (CorrelationModel, attrgetter("c"), "c", [0.25, 0.75], float),
    "SymmetricTable.values": (SymmetricTable, attrgetter("values"), "values", [0.25, 0.75], float),
    "ExchangeableJoint.mass": (ExchangeableJoint, attrgetter("mass"), "mass", [0.25, 0.75], float),
    "Pmf.values": (Pmf, attrgetter("values"), "values", [0.25, 0.75], float),
    "CfGrid.u": (lambda u: CfGrid(u, [1, 1]), attrgetter("u"), "u", [0.25, 0.75], float),
    "CfGrid.chi": (
        lambda chi: CfGrid([0, 1], chi), attrgetter("chi"), "chi", [0.25, 0.75], complex,
    ),
    "MixtureSpec atom": (
        lambda atom: MixtureSpec([atom]), lambda spec: spec.atoms[0], "atom", [0.25, 1.0], float,
    ),
    "char_fn u_grid": (
        partial(char_fn, CorrelationModel([1.0, 0.5])), attrgetter("u"), "u_grid",
        [0.25, 0.75], float,
    ),
}
NOT_NUMBERS = {
    "str": "01",
    "bytes": b"01",
    "dict": {0.25: 0.75},
    "None": None,
    "a number": 1.0,
    "bool item": [True, 0.75],
    "numpy bool item": [np.True_, 0.75],
    "numpy bool array": np.array([True, False]),
    "string item": ["0.25", 0.75],
    "None item": [None, 0.75],
    "Fraction item": [Fraction(1, 4), 0.75],
    "Decimal item": [Decimal("0.25"), 0.75],
    "2-d array": np.array([[0.25, 0.75]]),
    "string array": np.array(["0.25", "0.75"]),
}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_refuses_what_is_not_an_array_of_numbers(field, value):
    build, _, name, _, _ = NUMERIC_FIELDS[field]
    with pytest.raises(BadShapeError) as caught:
        build(value)
    assert str(caught.value) == f"'{name}' must be an array of numbers, got {value!r}"


@pytest.mark.parametrize("field", sorted(set(NUMERIC_FIELDS) - {"CfGrid.chi"}))
def test_real_fields_refuse_complex_entries(field):
    build, _, name, _, _ = NUMERIC_FIELDS[field]
    for value in ([0.25j, 0.75], np.array([0.25j, 0.75])):
        with pytest.raises(BadShapeError, match=f"'{name}' must be an array of numbers"):
            build(value)


@pytest.mark.parametrize(
    "form",
    [
        list,
        tuple,
        lambda v: (x for x in v),
        np.array,
        partial(np.array, dtype=np.float32),
        lambda v: [np.float64(x) for x in v],
        lambda v: [np.float32(x) for x in v],
    ],
    ids=["list", "tuple", "generator", "float64-array", "float32-array", "float64-scalars",
         "float32-scalars"],
)
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_reads_floats_as_before(field, form):
    build, read, _, valid, kind = NUMERIC_FIELDS[field]
    got = read(build(form(valid)))
    want = tuple(kind(x) for x in form(valid))  # each entry converted on its own
    assert got == want and all(type(x) is kind for x in got)


@pytest.mark.parametrize(
    "form",
    [list, np.array, partial(np.array, dtype=np.uint8), lambda v: [np.int64(x) for x in v]],
    ids=["int-list", "int64-array", "uint8-array", "int64-scalars"],
)
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_reads_ints_as_before(field, form):
    build, read, _, _, kind = NUMERIC_FIELDS[field]
    got = read(build(form([0, 1])))
    assert got == (kind(0), kind(1)) and all(type(x) is kind for x in got)


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_refuses_an_int_past_the_double_range(field):
    build, _, name, _, _ = NUMERIC_FIELDS[field]
    with pytest.raises(NonFiniteError) as caught:
        build([10 ** 400, 1])
    assert str(caught.value) == (
        f"an entry of '{name}' is not a finite double: int too large to convert to float"
    )


def test_the_complex_field_reads_complex_numbers():
    chi = [0.5 + 0.25j, np.complex128(1j), 2]
    assert CfGrid([0, 1, 2], chi).chi == (0.5 + 0.25j, 1j, 2 + 0j)
    assert CfGrid([0, 1, 2], np.array(chi)).chi == (0.5 + 0.25j, 1j, 2 + 0j)


@pytest.mark.parametrize("atoms", ["01", b"01", {0.5: 1.0}, None, 1.0], ids=repr)
def test_mixture_atoms_must_be_an_array(atoms):
    with pytest.raises(BadShapeError) as caught:
        MixtureSpec(atoms)
    assert str(caught.value) == f"'atoms' must be an array of (p, weight) pairs, got {atoms!r}"


@pytest.mark.parametrize("atom", [(0.5,), (0.5, 1.0, 0.0), ()], ids=repr)
def test_mixture_atom_is_a_pair(atom):
    with pytest.raises(BadShapeError) as caught:
        MixtureSpec([atom])
    assert str(caught.value) == f"an atom is a pair (p, weight), got {tuple(map(float, atom))!r}"


def test_mixture_atoms_may_be_rows_of_an_array():
    spec = MixtureSpec(np.array([[0.25, 0.5], [0.75, 0.5]]))
    assert spec == MixtureSpec([(0.25, 0.5), (0.75, 0.5)])
