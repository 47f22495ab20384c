"""JSON documents round-trip, and a damaged document is an InvalidInput.

For every value class with a ``from_json``, a drawn value survives
``to_json`` -> ``json.dumps`` -> ``json.loads`` -> ``from_json`` unchanged;
forms also survive ``form_to_str`` -> ``parse_form``.  Dropping one schema
key from such a document, or giving one value the wrong JSON type, makes
``from_json`` raise InvalidInput and nothing else.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithsurf.bundles import SplittingProfile, SplittingType
from arithsurf.errors import InvalidInput
from arithsurf.graded import GF, QQ, ZZ, Form, FreeGraded, GradedMap, GradedPresentation, form_to_str, parse_form
from arithsurf.hirzebruch import NormalForm
from arithsurf.transforms import BlowupFactorization, CenterSection, FiberQuotient

PRIMES = (2, 3, 5, 7, 11, 101, 2**61 - 1)
COEFF = st.one_of(st.integers(-5, 5), st.integers(-(10**40), 10**40))
TWIST = st.integers(-4, 4)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def forms(draw, degree=None, p=None):
    d = draw(st.integers(-2, 6)) if degree is None else degree
    if d < 0:
        return Form.zero(d)
    coeff = COEFF if p is None else st.integers(0, p - 1)
    return Form(d, tuple(draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))))


@st.composite
def graded_maps(draw, p=None):
    source = FreeGraded(tuple(draw(st.lists(TWIST, max_size=3))))
    target = FreeGraded(tuple(draw(st.lists(TWIST, max_size=3))))
    entries = tuple(
        tuple(draw(forms(t - s, p)) for s in source.twists) for t in target.twists
    )
    return GradedMap(source, target, entries)


@st.composite
def presentations(draw):
    base = draw(st.sampled_from([ZZ, QQ, GF(2), GF(5), GF(101)]))
    return GradedPresentation(base, draw(graded_maps(base.char or None)))


@st.composite
def normal_forms(draw):
    n = draw(st.integers(0, 6))
    return NormalForm(n, draw(forms(n)))


@st.composite
def fiber_quotients(draw):
    p = draw(st.sampled_from(PRIMES))
    row = draw(st.lists(forms(p=p), min_size=1, max_size=4))
    return FiberQuotient(p, draw(TWIST), tuple(row))


def splitting_types():
    return st.tuples(st.integers(-6, 6), st.integers(0, 6)).map(lambda ab: SplittingType(ab[0], ab[0] + ab[1]))


@st.composite
def center_sections(draw):
    p = draw(st.sampled_from(PRIMES))
    return CenterSection(
        p, draw(TWIST), draw(TWIST), draw(TWIST), draw(splitting_types()),
        tuple(draw(st.lists(forms(p=p), max_size=3))),
    )


@st.composite
def profiles(draw):
    generic = draw(splitting_types())
    primes = sorted(draw(st.sets(st.sampled_from(PRIMES), max_size=3)))
    jumps = []
    for p in primes:
        k = draw(st.integers(1, 3))  # the type b - a grows by 2k
        jumps.append((p, SplittingType(generic.a - k, generic.b + k)))
    return SplittingProfile(generic, tuple(jumps))


@st.composite
def blowup_records(draw):
    ids = st.text("0123456789abcdef", min_size=16, max_size=16)
    return BlowupFactorization(
        draw(st.sampled_from(PRIMES)), draw(TWIST), draw(ids), draw(ids),
        draw(center_sections()), draw(center_sections()), draw(profiles()), draw(profiles()),
    )


CASES = [
    (Form, forms()),
    (GradedMap, graded_maps()),
    (GradedPresentation, presentations()),
    (NormalForm, normal_forms()),
    (FiberQuotient, fiber_quotients()),
    (CenterSection, center_sections()),
    (BlowupFactorization, blowup_records()),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_json_round_trip(cls, values):
    @SETTINGS
    @given(values)
    def check(x):
        assert cls.from_json(json.loads(json.dumps(x.to_json()))) == x

    check()


@SETTINGS
@given(forms())
def test_form_text_round_trip(f):
    assert parse_form(form_to_str(f), degree=f.degree) == f
    if f.degree >= 0 and not f.is_zero():
        assert parse_form(form_to_str(f)) == f


def _schema_paths(doc, path=()):
    """Paths to every value of a document, except the entries of a jump map,
    whose keys are data (primes), not schema."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            if key != "jumps":
                yield from _schema_paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield path + (k,)
            yield from _schema_paths(value, path + (k,))


def _damage(doc, path, how):
    """A copy of ``doc`` with the value at ``path`` dropped or replaced by ``how``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = how
    return doc


# wrong JSON types: no document value is a null, a list holding a null or a
# one-key object whose key names no field
DAMAGE = ["drop", None, [None], {"x": None}]


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_a_damaged_document_is_invalid_input(cls, values):
    @SETTINGS
    @given(values, st.data())
    def check(x, data):
        doc = x.to_json()
        path = data.draw(st.sampled_from(list(_schema_paths(doc))))
        how = data.draw(st.sampled_from(DAMAGE))
        assume(how != "drop" or isinstance(path[-1], str))  # a list item is replaced, not dropped
        with pytest.raises(InvalidInput):
            cls.from_json(_damage(doc, path, how))

    check()
