"""The immutable record classes behave as values.

Each record compares, hashes, prints, pickles and copies by its fields,
refuses assignment and deletion, and builds from positional or keyword
arguments.  The expected ``repr`` texts are written out in full.
"""

import copy
import pickle

import pytest

from corrcount.core import (
    CfGrid,
    CorrelationModel,
    ExchangeableJoint,
    Pmf,
    SymmetricTable,
)
from corrcount.montecarlo import EstimateReport, MixtureSpec
from corrcount.verify import IdentityCheck

# (class, positional arguments, the same as keywords, arguments of a
# different record, repr of the first record)
RECORDS = [
    (
        CorrelationModel,
        ((1, 0.5), 10),
        {"c": [1, 0.5], "n": 10},
        ((1, 0.5),),
        "CorrelationModel(c=(1.0, 0.5), n=10)",
    ),
    (
        SymmetricTable,
        ((0.5, 0.5),),
        {"values": [0.5, 0.5]},
        ((0.25, 0.75),),
        "SymmetricTable(values=(0.5, 0.5))",
    ),
    (
        ExchangeableJoint,
        ((0.5, 0.5),),
        {"mass": [0.5, 0.5]},
        ((0.25, 0.75),),
        "ExchangeableJoint(mass=(0.5, 0.5))",
    ),
    (
        Pmf,
        ((0.25, 0.75), 1e-13, 2e-16),
        {"values": [0.25, 0.75], "tail_bound": 1e-13, "error_estimate": 2e-16},
        ((0.25, 0.75),),
        "Pmf(values=(0.25, 0.75), tail_bound=1e-13, admissible=True, "
        "error_estimate=2e-16)",
    ),
    (
        CfGrid,
        ((0.0, 1), (1, 0.5 + 0.5j)),
        {"u": [0.0, 1], "chi": [1, 0.5 + 0.5j]},
        ((0.0, 2.0), (1, 0.5 + 0.5j)),
        "CfGrid(u=(0.0, 1.0), chi=((1+0j), (0.5+0.5j)))",
    ),
    (
        MixtureSpec,
        (((0.2, 0.5), (1, 0.5)),),
        {"atoms": [(0.2, 0.5), (1, 0.5)]},
        (((0.2, 1.0),),),
        "MixtureSpec(atoms=((0.2, 0.5), (1.0, 0.5)))",
    ),
    (
        EstimateReport,
        ((1.0, -0.5), (0.1, 0.2), 10, 5),
        {"c_hat": (1.0, -0.5), "std_err": (0.1, 0.2), "n_samples": 10,
         "n_bootstrap": 5},
        ((1.0, -0.5), (0.1, 0.2), 10, 6),
        "EstimateReport(c_hat=(1.0, -0.5), std_err=(0.1, 0.2), n_samples=10, "
        "n_bootstrap=5)",
    ),
    (
        IdentityCheck,
        ("pmf-mass", 1e-10, 0.0, "at s = 3"),
        {"name": "pmf-mass", "tolerance": 1e-10, "worst": 0.0, "detail": "at s = 3"},
        ("pmf-mass", 1e-10, 0.0),
        "IdentityCheck(name='pmf-mass', tolerance=1e-10, worst=0.0, passed=True, "
        "detail='at s = 3')",
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, other_args, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, other_args, text):
        assert cls(*args) == cls(**kwargs)
        assert hash(cls(*args)) == hash(cls(**kwargs))

    def test_equality_and_inequality(self, cls, args, kwargs, other_args, text):
        record, other = cls(*args), cls(*other_args)
        assert record == cls(*args)
        assert not record != cls(*args)
        assert record != other
        assert not record == other
        assert record != args
        assert record != object()

    def test_repr_names_every_field(self, cls, args, kwargs, other_args, text):
        assert repr(cls(*args)) == text

    def test_fields_refuse_assignment_and_deletion(self, cls, args, kwargs, other_args, text):
        record = cls(*args)
        name = text[len(cls.__name__) + 1 :].split("=")[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == before
        assert record == cls(*args)

    def test_pickle_and_deepcopy_round_trip(self, cls, args, kwargs, other_args, text):
        record = cls(*args)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is cls
            assert twin == record
            assert hash(twin) == hash(record)
            assert repr(twin) == text
            with pytest.raises(AttributeError):
                twin.extra = 1


def test_defaults_match_the_documented_ones():
    assert CorrelationModel((2.0,)).n is None
    pmf = Pmf((1.0,))
    assert (pmf.tail_bound, pmf.admissible, pmf.error_estimate) == (0.0, True, 0.0)
    assert IdentityCheck("x", 1.0, 0.0).detail == ""


def test_derived_fields_follow_the_stored_ones():
    assert CorrelationModel((1, 0.5, 0.1), 10).l_max == 3
    assert ExchangeableJoint((0.25, 0.5, 0.25)).n == 2
    assert Pmf((0.25, 0.75)).admissible
    assert not Pmf((-0.5, 1.5)).admissible
    assert not Pmf((0.5, float("nan"))).admissible
    assert IdentityCheck("x", 1e-10, 1e-10).passed
    assert not IdentityCheck("x", 1e-10, 1e-9).passed
    assert not IdentityCheck("x", 1e-10, float("nan")).passed


def test_records_are_usable_as_keys():
    models = {CorrelationModel((1, 0.5)): "a", CorrelationModel((1.0, 0.5)): "b"}
    assert len(models) == 1
    assert models[CorrelationModel([1, 0.5])] == "b"
