import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcount import (
    BadShapeError,
    CfGrid,
    CorrelationModel,
    ExchangeableJoint,
    InvalidDistributionError,
    NonFiniteError,
    OutOfRangeError,
    Pmf,
    SymmetricTable,
    TrailingZeroWarning,
    MixtureSpec,
    build_mixture_joint,
    correlation_coefficient,
    correlation_recursive,
    m_factor,
    marginalize,
    reduced_correlation,
    validate_model,
)
from corrcount.core import MAX_JOINT_EVENTS


class TestValidateModel:
    def test_minimal_first_order_model(self):
        model = CorrelationModel(l_max=1, c=(2.0,))
        assert validate_model(model) is model

    def test_zero_top_coefficient_warns(self):
        model = CorrelationModel(l_max=2, c=(1.0, 0.0))
        with pytest.warns(TrailingZeroWarning):
            assert validate_model(model) is model

    def test_nan_coefficient_rejected(self):
        with pytest.raises(NonFiniteError):
            validate_model(CorrelationModel(l_max=2, c=(1.0, float("nan"))))

    def test_inf_coefficient_rejected(self):
        with pytest.raises(NonFiniteError):
            validate_model(CorrelationModel(l_max=1, c=(float("inf"),)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(BadShapeError):
            validate_model(CorrelationModel(l_max=3, c=(1.0, 2.0)))

    def test_n_below_l_max_rejected(self):
        with pytest.raises(BadShapeError):
            validate_model(CorrelationModel(l_max=3, c=(1.0, 0.5, 0.2), n=2))

    def test_json_round_trip(self):
        model = CorrelationModel.from_coefficients([1.0, -0.25], n=12)
        back = CorrelationModel.from_json(model.to_json())
        assert back == model
        raw = json.loads(model.to_json())
        assert raw == {"l_max": 2, "c": [1.0, -0.25], "n": 12}


class TestReducedCorrelation:
    def test_plain_value(self):
        model = CorrelationModel.from_coefficients([1.0, 0.5], n=10)
        assert reduced_correlation(model, k=2, q=0) == pytest.approx(0.005, abs=0)

    def test_one_zero_argument_flips_sign(self):
        model = CorrelationModel.from_coefficients([1.0, 0.5], n=10)
        assert reduced_correlation(model, k=2, q=1) == pytest.approx(-0.005, abs=0)

    def test_two_zero_arguments(self):
        model = CorrelationModel.from_coefficients([1.0, 0.5, 2.0], n=10)
        assert reduced_correlation(model, k=3, q=2) == pytest.approx(0.002, abs=0)

    def test_bounds(self):
        model = CorrelationModel.from_coefficients([1.0, 0.5], n=10)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=3, q=0)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=1, q=0)
        with pytest.raises(OutOfRangeError):
            reduced_correlation(model, k=2, q=3)
        with pytest.raises(BadShapeError):
            reduced_correlation(CorrelationModel.from_coefficients([1.0, 0.5]), 2, 0)

    @given(
        c=st.floats(-100, 100, allow_nan=False),
        k=st.integers(2, 6),
        q=st.integers(0, 5),
        n=st.integers(6, 1000),
    )
    def test_flip_antisymmetry_is_exact(self, c, k, q, n):
        q = min(q, k - 1)
        model = CorrelationModel.from_coefficients([1.0] * (k - 1) + [c], n=n)
        assert reduced_correlation(model, k, q) == -reduced_correlation(model, k, q + 1)


class TestCorrelationCoefficient:
    def test_scaled_all_ones_entry(self):
        table = SymmetricTable.correlation([0.05, -0.05, 0.05])
        assert correlation_coefficient(table, 4) == pytest.approx(0.8, abs=1e-15)

    def test_first_order(self):
        table = SymmetricTable.correlation([0.7, 0.3])
        assert correlation_coefficient(table, 9) == pytest.approx(9 * 0.3, abs=0)

    def test_iid_joint_measures_zero(self):
        # dyadic atom keeps the joint exactly representable
        joint = build_mixture_joint(MixtureSpec(((0.375, 1.0),)), 4)
        p_tables = [marginalize(joint, k) for k in range(1, 3)]
        g2 = correlation_recursive(p_tables)
        assert g2.value_at((1, 1)) == 0.0
        assert correlation_coefficient(g2, 4) == 0.0

    def test_order_above_n_rejected(self):
        table = SymmetricTable.correlation([0.0, 0.0, 0.1])
        with pytest.raises(OutOfRangeError):
            correlation_coefficient(table, 1)

    def test_round_trip_exact_for_power_of_two_n(self):
        # scaling by 2^j is exact, so the round trip must be bitwise
        for n, k, c in ((8, 2, 0.7), (16, 3, -2.317), (32, 4, 5.5)):
            model = CorrelationModel.from_coefficients([1.0] * (k - 1) + [c], n=n)
            vals = [reduced_correlation(model, k, q=k - m) for m in range(k + 1)]
            assert correlation_coefficient(SymmetricTable.correlation(vals), n) == c

    @given(
        c=st.floats(-10, 10, allow_nan=False).filter(lambda x: x != 0),
        k=st.integers(2, 6),
        n=st.integers(6, 50),
    )
    def test_round_trip_within_one_ulp(self, c, k, n):
        # dividing by N^k and multiplying back rounds at most once each way
        model = CorrelationModel.from_coefficients([1.0] * (k - 1) + [c], n=n)
        vals = [reduced_correlation(model, k, q=k - m) for m in range(k + 1)]
        back = correlation_coefficient(SymmetricTable.correlation(vals), n)
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
    def test_expanded_view_is_constant_on_pattern_classes(self):
        table = SymmetricTable.correlation([0.5, -0.25, 0.125])
        expanded = table.expanded()
        assert len(expanded) == 4
        for pattern, value in expanded.items():
            assert value == table.values[sum(pattern)]
            assert value == table.value_at(pattern)

    def test_probability_invariants_enforced(self):
        SymmetricTable.probability([0.25, 0.25, 0.25])  # binomial weights: 1
        with pytest.raises(InvalidDistributionError):
            SymmetricTable.probability([0.5, 0.5, 0.5])
        with pytest.raises(InvalidDistributionError):
            SymmetricTable.probability([1.5, -0.25, 0.25])

    def test_shape_errors(self):
        with pytest.raises(BadShapeError):
            SymmetricTable(order=2, kind="probability", values=(0.5, 0.5))
        with pytest.raises(BadShapeError):
            SymmetricTable(order=1, kind="nonsense", values=(0.5, 0.5))
        table = SymmetricTable.correlation([0.1, 0.2])
        with pytest.raises(BadShapeError):
            table.value_at((1, 0))
        with pytest.raises(OutOfRangeError):
            table.value_at((2,))


class TestJointAndPmf:
    def test_joint_validation(self):
        ExchangeableJoint(2, (0.25, 0.25, 0.25))
        with pytest.raises(InvalidDistributionError):
            ExchangeableJoint(2, (0.5, 0.25, 0.25))
        with pytest.raises(InvalidDistributionError):
            ExchangeableJoint(2, (0.75, -0.25, 0.75))
        with pytest.raises(BadShapeError):
            ExchangeableJoint(2, (0.5, 0.5))
        with pytest.raises(NonFiniteError):
            ExchangeableJoint(1, (float("nan"), 0.5))

    def test_joint_size_ceiling(self):
        # the largest n whose binomials C(n, m) all convert to a float
        n = MAX_JOINT_EVENTS
        assert all(math.isfinite(float(math.comb(n, m))) for m in range(n + 1))
        with pytest.raises(OverflowError):
            float(math.comb(n + 1, (n + 1) // 2))
        with pytest.raises(OutOfRangeError):
            ExchangeableJoint(n + 1, (0.0,) * (n + 1) + (1.0,))

    def test_pmf_helpers(self):
        pmf = Pmf.from_values([0.25, 0.5, 0.25])
        assert pmf.admissible
        assert pmf.s_max == 2
        assert pmf.total_mass() == pytest.approx(1.0, abs=0)
        assert pmf.mean() == pytest.approx(1.0, abs=0)
        signed = Pmf.from_values([0.7, 0.5, -0.2])
        assert not signed.admissible
        assert signed.most_negative() == (2, -0.2)

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
    model = CorrelationModel.from_coefficients([0.5] * (k - 1) + [c], n=n)
    base = model.coefficient(k) / float(n) ** k
    for q in range(k + 1):
        assert reduced_correlation(model, k, q) == (-1) ** q * base


def test_numpy_inputs_coerce_cleanly():
    model = CorrelationModel.from_coefficients(np.array([1.0, 0.5]), n=10)
    assert model.c == (1.0, 0.5)
    pmf = Pmf.from_values(np.array([0.5, 0.5]))
    assert pmf.values == (0.5, 0.5)
