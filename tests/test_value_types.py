"""The value types are immutable records with a frozen dataclass's contract.

One instance of each of the ten classes: fields cannot be assigned or
deleted; equal fields give equal objects with equal hashes; an object
of another class never compares equal; repr lists the fields as a
dataclass's would; copy, deepcopy and pickle give back an equal object.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

import mersexp
from mersexp import (
    BitSequence,
    CarryReport,
    CarrySequence,
    CatalogEntry,
    ExponentFamily,
    FieldContext,
    InverseResult,
    RMatrix,
    Residue,
    SignedPowerForm,
    residues,
)


# a fresh instance of each class, equal to every other one its factory makes
BUILD = {
    Residue: lambda: Residue(7, 3),
    BitSequence: lambda: BitSequence(5, (1, 0, 1, 1, 0)),
    ExponentFamily: lambda: ExponentFamily("gold", 3),
    SignedPowerForm: lambda: SignedPowerForm(((0, 1), (3, -1), (6, 1))),
    CarrySequence: lambda: CarrySequence(3, (0, 300, -1)),
    CarryReport: lambda: CarryReport(2, True, True, False),
    RMatrix: lambda: RMatrix(4, 2, [(1, 0), (0, -1)]),
    InverseResult: lambda: mersexp.kasami_inverse(3, 7),
    FieldContext: lambda: FieldContext(5),
    CatalogEntry: lambda: mersexp.catalog_lookup(7)[0],
}


# each class with its fields, in the order repr lists them
FIELDS = {
    Residue: ("n", "value"),
    BitSequence: ("n", "word"),
    ExponentFamily: ("kind", "param"),
    SignedPowerForm: ("terms",),
    CarrySequence: ("n", "word"),
    CarryReport: (
        "carry_weight",
        "pair_bound_ok",
        "half_weight_ok",
        "weight_identity",
    ),
    RMatrix: ("n", "r", "flat"),
    InverseResult: (
        "inverse",
        "weight",
        "case_label",
        "r_matrix",
        "carry_matrix",
        "warnings",
    ),
    FieldContext: ("n", "reduction_polynomial"),
    CatalogEntry: (
        "family",
        "exponent",
        "claimed_degree",
        "claimed_uniformity",
        "source_table",
        "invertible",
    ),
}

CLASSES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = BUILD[cls]()
    for name in FIELDS[cls]:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@CLASSES
def test_equal_fields_give_equal_objects_and_hashes(cls):
    a, b = BUILD[cls](), BUILD[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@CLASSES
def test_another_class_with_the_same_fields_is_not_equal(cls):
    obj = BUILD[cls]()
    values = {k: getattr(obj, k) for k in FIELDS[cls]}
    other = object.__new__(type("Other", (cls,), {}))
    for k, v in values.items():
        object.__setattr__(other, k, v)
    twin = SimpleNamespace(**values)
    for stranger in (other, twin):
        assert obj != stranger and stranger != obj
        assert not obj == stranger
    assert obj.__eq__(twin) is NotImplemented


@CLASSES
def test_repr_lists_the_fields_like_a_dataclass(cls):
    obj = BUILD[cls]()
    shown = ", ".join(f"{k}={getattr(obj, k)!r}" for k in FIELDS[cls])
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_repr_pinned():
    assert repr(Residue(7, 3)) == "Residue(n=7, value=3)"
    assert repr(ExponentFamily("gold", 3)) == (
        "ExponentFamily(kind='gold', param=3)"
    )
    assert repr(ExponentFamily("inverse")) == (
        "ExponentFamily(kind='inverse', param=0)"
    )
    assert repr(RMatrix(4, 2, [(1, 0), (0, -1)])) == (
        r"RMatrix(n=4, r=2, flat=b'\x01\x00\x00\xff')"
    )


@CLASSES
@pytest.mark.parametrize(
    "clone",
    [
        copy.copy,
        copy.deepcopy,
        lambda obj: pickle.loads(pickle.dumps(obj)),
        lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)),
    ],
    ids=["copy", "deepcopy", "pickle", "pickle-protocol-0"],
)
def test_copies_and_pickles_are_equal(cls, clone):
    obj = BUILD[cls]()
    twin = clone(obj)
    assert type(twin) is cls
    assert twin == obj and hash(twin) == hash(obj)
    assert repr(twin) == repr(obj)
    with pytest.raises(AttributeError):
        setattr(twin, FIELDS[cls][0], None)


def test_positional_keyword_and_default_fields():
    res = BUILD[InverseResult]()
    fields = [getattr(res, k) for k in FIELDS[InverseResult][:5]]
    by_name = dict(zip(FIELDS[InverseResult], fields))
    rest = dict(list(by_name.items())[2:])
    assert InverseResult(*fields) == InverseResult(**by_name) == res
    assert InverseResult(*fields[:2], **rest) == res
    assert InverseResult(*fields).warnings == ()
    assert InverseResult(*fields, ("w",)).warnings == ("w",)
    report = CarryReport(
        carry_weight=2,
        pair_bound_ok=True,
        half_weight_ok=True,
        weight_identity=False,
    )
    assert report == BUILD[CarryReport]()
    for bad in (
        lambda: InverseResult(*fields[:4]),  # carry_matrix missing
        lambda: InverseResult(*fields, (), None),  # one too many
        lambda: InverseResult(*fields, unknown=1),
        lambda: InverseResult(*fields, inverse=fields[0]),  # given twice
        lambda: CarryReport(2, True, True),
    ):
        with pytest.raises(TypeError):
            bad()


def test_bit_sequence_value_is_computed_once(monkeypatch):
    calls = []
    word_value = residues._word_value

    def counted(word):
        calls.append(word)
        return word_value(word)

    monkeypatch.setattr(residues, "_word_value", counted)
    bits = BitSequence(5, (1, 0, 1, 1, 0))
    assert calls == []
    assert bits.value == 13 and bits.value == 13
    assert len(calls) == 1
    assert copy.deepcopy(bits).value == 13  # the copy keeps the value
    assert len(calls) == 1
    # the cached value is not a field: equal words are equal either way
    assert bits == BitSequence(5, (1, 0, 1, 1, 0))
    # to_bits fills the value in from the residue it expands
    assert residues.to_bits(Residue(5, 13)).value == 13
    assert len(calls) == 1
