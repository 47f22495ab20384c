"""The value classes built by ``errors.frozen`` behave as frozen dataclasses.

Each of the 26 classes is compared with a ``dataclasses`` twin made from its
field names and defaults (the twin also runs the class's ``__post_init__``):
construction outcome, ``repr``, ``==``, ``!=``, ``hash``, keyword
construction, and ordering on ``SplittingType``.  Field values come from real
computations, with single fields swapped for values seen elsewhere, so both
valid and rejected constructions are drawn.
"""

import copy
import dataclasses
import functools
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsurf import bundles, cohomology, delpezzo, exactlat, graded, hirzebruch, transforms
from arithsurf.bundles import SplittingType, bundle_handle, try_split_certificate
from arithsurf.delpezzo import PointConfiguration, general_position, minus_one_classes, standardize
from arithsurf.exactlat import IntegerMatrix, kernel_lattice
from arithsurf.graded import Form, Ring, free_presentation, reduce_mod
from arithsurf.hirzebruch import NormalForm, constancy_check
from arithsurf.transforms import apply_full, blowup_factorization, default_surjection, prescribed_types

VALUE_CLASSES = {
    exactlat: ["IntegerMatrix", "LatticeBasis"],
    graded: ["Ring", "Form", "FreeGraded", "GradedMap", "GradedPresentation"],
    cohomology: ["FpSpan", "PairSpace", "SectionCount"],
    bundles: ["SplittingType", "SplittingProfile", "BundleHandle", "SplitCertificate"],
    hirzebruch: ["NormalForm", "ConstancyResult"],
    transforms: ["FiberQuotient", "TransformResult", "CenterSection", "BlowupFactorization"],
    delpezzo: ["ProjectivePoint", "PointConfiguration", "Witness", "Verdict", "Standardization", "LatticeClass"],
}
CLASSES = [getattr(module, name) for module, names in VALUE_CLASSES.items() for name in names]


def _twin(cls):
    """A frozen dataclass with the fields, defaults and ``__post_init__`` of ``cls``."""
    spec = [
        (name, object, dataclasses.field(default=cls.__dict__[name])) if name in cls.__dict__ else (name, object)
        for name in cls.__match_args__
    ]
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace=namespace, frozen=True, order=cls is SplittingType
    )


TWINS = {cls: _twin(cls) for cls in CLASSES}


def _roots():
    handle = bundle_handle(free_presentation((-1, -2)))
    q = default_surjection(3, 1, 1)
    config = PointConfiguration.parse("1:0:0,0:1:0,0:0:1,2:3:5")
    fiber = reduce_mod(handle.presentation, 3)
    return [
        prescribed_types(1, [(3, 2), (5, 1)]),
        apply_full(handle, q),
        blowup_factorization(handle, q),
        try_split_certificate(handle),
        NormalForm.make(3, "x0^2*x1 - 4*x1^3"),
        constancy_check(NormalForm.make(2, "6*x0*x1")),
        constancy_check(NormalForm.make(1, "x0 + x1")),
        cohomology._pair_data(handle.presentation, 1, 2),
        cohomology._pair_data(fiber, 1, 2),
        fiber,
        cohomology.section_space(fiber, 1),
        kernel_lattice(IntegerMatrix(2, 3, (1, 2, 3, 4, 5, 6))),
        config,
        general_position(config),
        standardize(PointConfiguration.parse("2:1:1,1:1:0,1:0:0")),
        *minus_one_classes(3),
        Ring("QQ"),
    ]


def _collect():
    """Every value-class instance reachable from the roots, by class, and
    every field value seen, by field name."""
    instances = {cls: [] for cls in CLASSES}
    values = {}
    stack = _roots()
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple):
            stack.extend(obj)
        elif type(obj) in instances and obj not in instances[type(obj)]:
            instances[type(obj)].append(obj)
            for name in obj.__match_args__:
                value = getattr(obj, name)
                values.setdefault(name, []).append(value)
                stack.append(value)
    return instances, values


@functools.cache
def samples():
    return _collect()


@pytest.fixture(scope="module", autouse=True)
def _release_samples():
    # the samples hold pair spaces, which test_cohomology checks are freed
    yield
    samples.cache_clear()


def test_the_value_classes_are_all_frozen_classes():
    assert len(CLASSES) == 26
    for module in VALUE_CLASSES:
        found = {
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "__match_args__" in obj.__dict__
        }
        assert found == set(VALUE_CLASSES[module]), module.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_class_has_samples(cls):
    assert samples()[0][cls]


@st.composite
def field_values(draw, cls):
    """Field values of a sample of ``cls``, one of them often swapped for a
    value of the same field name seen elsewhere, or a small integer."""
    instances, seen = samples()
    sample = draw(st.sampled_from(instances[cls]))
    values = [getattr(sample, name) for name in cls.__match_args__]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(values) - 1))
        values[k] = draw(st.one_of(st.sampled_from(seen[cls.__match_args__[k]]), st.integers(-3, 3)))
    return values


def _build(make, values):
    try:
        return make(*values), None
    except Exception as exc:  # the outcome is compared, not raised
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_value_semantics_match_a_frozen_dataclass(cls):
    twin = TWINS[cls]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        left, right = data.draw(field_values(cls)), data.draw(field_values(cls))
        x, x_error = _build(cls, left)
        tx, tx_error = _build(twin, left)
        assert x_error == tx_error
        y, y_error = _build(cls, right)
        ty, _ = _build(twin, right)
        if x_error or y_error:
            return
        assert repr(x) == repr(tx)
        assert hash(x) == hash(tx)
        assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
        assert x == cls(*left) and not x != cls(*left)
        assert cls(**dict(zip(cls.__match_args__, left))) == x
        assert x != tx and tx != x and not x == tx
        if cls is SplittingType:
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                assert compare(x, y) == compare(tx, ty)

    check()


def test_equality_is_within_one_class():
    assert SplittingType(0, 1) != (0, 1)
    assert not SplittingType(0, 1) == (0, 1)
    assert SplittingType(0, 1) != TWINS[SplittingType](0, 1)
    assert graded.FreeGraded((1, 2)) != cohomology.SectionCount(1, 2, 0)
    with pytest.raises(TypeError):
        SplittingType(0, 1) < (0, 2)
    with pytest.raises(TypeError):
        Form(0, (1,)) < Form(0, (2,))


def test_one_field_classes_hash_their_one_tuple():
    assert hash(graded.FreeGraded((1, 2))) == hash(((1, 2),))
    points = PointConfiguration.parse("1:0:0,0:1:0")
    assert hash(points) == hash((points.points,))


def test_ring_default_and_keyword_construction():
    assert Ring("ZZ") == Ring("ZZ", 0) == Ring(kind="ZZ") == Ring(char=0, kind="ZZ")
    assert Ring("ZZ").char == TWINS[Ring]("ZZ").char == 0
    assert repr(Ring("GF", 5)) == repr(TWINS[Ring]("GF", 5)) == "Ring(kind='GF', char=5)"


@pytest.mark.parametrize(
    "cls, args, kwargs",
    [
        (SplittingType, (0,), {}),
        (SplittingType, (0, 1, 2), {}),
        (SplittingType, (0,), {"a": 1}),
        (SplittingType, (0, 1), {"c": 2}),
        (Ring, (), {}),
        (Ring, ("ZZ",), {"kind": "QQ"}),
    ],
)
def test_bad_arguments_raise_type_error_like_the_twin(cls, args, kwargs):
    for make in (cls, TWINS[cls]):
        with pytest.raises(TypeError):
            make(*args, **kwargs)


def test_body_methods_are_kept():
    assert str(Ring("GF", 5)) == "GF(5)"
    assert str(Form(1, (2, -1))) == "2*x0 - x1"
    assert str(delpezzo.ProjectivePoint.make(0, -2, 4)) == "0:1:-2"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = samples()[0][cls][0]
    name = cls.__match_args__[0]
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    x = samples()[0][cls][0]
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_positional_patterns_match_the_fields():
    match SplittingType(1, 3):
        case SplittingType(a, b):
            assert (a, b) == (1, 3)


def test_post_init_rejections_still_raise():
    with pytest.raises(ValueError, match="coefficient count"):
        Form(2, (1, 2))
    with pytest.raises(ValueError, match="a <= b"):
        SplittingType(2, 1)
    with pytest.raises(ValueError, match="entry count"):
        IntegerMatrix(2, 2, (1, 2, 3))
