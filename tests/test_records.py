"""The exact engine's records: value semantics, immutability, repr and validation."""

import copy
import pickle

import pytest

from scalex.errors import InvalidInterval, NotAdmissible, NotMember
from scalex.ktheory import KGroupResult, PuncturedSet
from scalex.spectra import GeneratorDescriptor, Properness, ScalingSpectrum, SpectralSet

POINTS = SpectralSet(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
FULL = SpectralSet(((0.0, 1.0),))

# record class -> (field names, two distinct valid field-value tuples)
RECORDS = {
    SpectralSet: (("intervals",), (POINTS.intervals,), (FULL.intervals,)),
    ScalingSpectrum: (("set",), (POINTS,), (FULL,)),
    GeneratorDescriptor: (
        ("spectrum", "properness"),
        (ScalingSpectrum(POINTS), Properness.NON_PROPER),
        (ScalingSpectrum(POINTS), Properness.PROPER),
    ),
    KGroupResult: (("k0_rank", "k1_rank"), (2, 0), (1, 1)),
    PuncturedSet: (("base", "removed"), (FULL, (0.0,)), (FULL, (0.0, 1.0))),
}
CASES = list(RECORDS.items())
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, spec):
    names, values, _ = spec
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert rec == cls(values[0], **dict(zip(names[1:], values[1:])))
    assert tuple(getattr(rec, n) for n in names) == values


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, spec):
    names, values, other = spec
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != cls(*other)
    assert len({a, b, cls(*other)}) == 2


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_no_equality_across_types(cls, spec):
    names, values, _ = spec
    rec = cls(*values)
    assert rec != values and rec != dict(zip(names, values)) and rec != object()
    for other_cls, (_, other_values, _) in RECORDS.items():
        if other_cls is not cls:
            assert rec != other_cls(*other_values)


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_records_are_frozen(cls, spec):
    names, values, other = spec
    rec = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, n) for n in names) == values


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_repr_names_the_fields(cls, spec):
    names, values, _ = spec
    rec = cls(*values)
    fields = ", ".join(f"{n}={getattr(rec, n)!r}" for n in names)
    assert repr(rec) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, spec):
    _, values, _ = spec
    rec = cls(*values)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert twin == rec and hash(twin) == hash(rec) and type(twin) is cls


@pytest.mark.parametrize("cls, spec", CASES, ids=IDS)
def test_wrong_arguments_are_type_errors(cls, spec):
    names, values, _ = spec
    with pytest.raises(TypeError):
        cls(*values, "surplus")
    with pytest.raises(TypeError):
        cls(*values, nosuch=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_defaults_and_required_fields():
    assert PuncturedSet(FULL) == PuncturedSet(FULL, ()) == PuncturedSet(base=FULL)
    for cls in (SpectralSet, ScalingSpectrum, KGroupResult, PuncturedSet):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        GeneratorDescriptor(ScalingSpectrum(POINTS))


def test_validation_normalizes_the_fields():
    s = SpectralSet([[0, 0], [1, 2]])
    assert s.intervals == ((0.0, 0.0), (1.0, 2.0)) and type(s.intervals[0]) is tuple
    assert s == SpectralSet(((0.0, 0.0), (1.0, 2.0))) and hash(s) == hash(SpectralSet(((0, 0), (1, 2))))
    p = PuncturedSet(FULL, [1, 0.5])
    assert p.removed == (0.5, 1.0) and p == PuncturedSet(FULL, (0.5, 1.0))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: SpectralSet(((1.0, 0.0),)), InvalidInterval, "lo > hi"),
        (lambda: SpectralSet(((0.0, float("nan")),)), InvalidInterval, "non-finite"),
        (lambda: SpectralSet(((0.0, 1.0), (1.0, 2.0))), InvalidInterval, "strictly disjoint"),
        (lambda: ScalingSpectrum(SpectralSet(((0.0, 0.5),))), NotAdmissible, "contain both 0 and 1"),
        (lambda: GeneratorDescriptor(ScalingSpectrum(FULL), Properness.NON_PROPER), NotAdmissible, "non-proper"),
        (lambda: PuncturedSet(FULL, (0.5, 0.5)), NotMember, "pairwise distinct"),
        (lambda: PuncturedSet(FULL, (2.0,)), NotMember, "not in the base set"),
    ],
    ids=["lo-gt-hi", "nan", "touching", "no-one", "nonproper-full", "repeated-point", "outside-point"],
)
def test_validation_errors_are_unchanged(build, error, match):
    with pytest.raises(error, match=match):
        build()
