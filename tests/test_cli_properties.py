"""Property test of the CLI over argv drawn from its grammar.

Every argv gets exit 0 (one JSON document on stdout), exit 2 (one JSON
document naming the domain error) or exit 1 (a ``usage error:`` line on
stderr and nothing on stdout); no argv raises.  Exit 3, an internal
consistency check failing on validated input, is a failure of the test,
not an accepted outcome.  Sizes stay small (|n| <= 6,
jump heights <= 6, primes and audit bounds <= 50) so each example runs in
well under a second.  Values are passed both as ``--g TEXT`` and as
``--g=TEXT``; either way a value may begin with a minus sign.  Long option
names are also drawn as any prefix that no other long option of the CLI
shares, which argparse resolves to the full name.

A second property feeds ``bundle profile`` and ``bundle check`` a valid
handle document with one damage: a missing key, a value of the wrong JSON
type, a ragged entry grid, a coefficient that is no integer, a base other
than ZZ, or a presentation of another rank or one that is not locally free.
The CLI must answer as the library does on the same document: exit 0 with
the library's handle and profile, or exit 2 naming the library's error.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arithsurf.bundles import bundle_handle, type_profile
from arithsurf.cli import build_parser, main
from arithsurf.errors import ArithsurfError
from arithsurf.graded import Form, GradedPresentation, cokernel_presentation, free_presentation
from arithsurf.hirzebruch import NormalForm, bundle_from_normal_form
from arithsurf.transforms import prescribed_types
from oracles import structure_sheaf

SMALL = st.integers(-6, 6)
DEGREE = st.integers(-1, 6)
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PRIME_LIKE = st.one_of(st.sampled_from(PRIMES), st.integers(-2, 50))
COEFF = st.sampled_from([1, -1, 0, 2, -3, 5])
JUNK = st.sampled_from(["", "x", "1:", "::", "x2", "x0^", "1/2", "x0+", "*x1", "a:b:c", "0:0:0"])


def _long_options(parser) -> set[str]:
    found = set()
    for action in parser._actions:
        found.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _long_options(sub)
    return found


LONG_OPTIONS = _long_options(build_parser())


def _shortest_unique_prefix(flag: str) -> str:
    for k in range(3, len(flag)):
        if [o for o in LONG_OPTIONS if o.startswith(flag[:k])] == [flag]:
            return flag[:k]
    return flag


def name(draw, flag):
    """A long flag in full or as a prefix no other long option shares."""
    if not flag.startswith("--"):
        return flag
    return flag[: draw(st.integers(len(_shortest_unique_prefix(flag)), len(flag)))]


def option(draw, flag, value):
    """The flag and its value, as one token ``flag=value`` or as two."""
    flag = name(draw, flag)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def forms(draw, degree=None):
    """Form text in x0, x1, usually homogeneous of the given degree."""
    if draw(st.integers(0, 9)) == 9:
        return draw(JUNK)
    d = draw(st.integers(0, 4)) if degree is None or draw(st.booleans()) else degree
    if d < 0:
        return "0"
    text = ""
    for i in range(d + 1):
        c = draw(COEFF)
        if c:
            text += f"{'-' if c < 0 else '+'}{abs(c)}*x0^{d - i}*x1^{i}"
    return text.lstrip("+") or "0"


def points():
    triple = st.tuples(SMALL, SMALL, SMALL).map(lambda t: "%d:%d:%d" % t)
    return st.one_of(st.lists(triple, min_size=1, max_size=6).map(",".join), JUNK)


@st.composite
def bundle_input(draw, files):
    """Bundle input flags, and the generator twists of the bundle they give
    when the flags build one (a guess for ``--bundle`` files)."""
    kind = draw(st.sampled_from(["generic", "bundle", "normal", "none", "both"]))
    argv, twists = [], (0, 0)
    if kind in ("bundle", "both"):
        argv += option(draw, "--bundle", draw(st.sampled_from(files)))
    if kind in ("generic", "both"):
        n = draw(DEGREE)
        argv += [name(draw, "--generic-type"), str(n)]
        for p, ni in draw(st.lists(st.tuples(PRIME_LIKE, st.integers(-1, 6)), max_size=3)):
            argv += option(draw, "--jump", f"{p}:{ni}" if draw(st.integers(0, 9)) < 9 else draw(JUNK))
        twists = (-1, -n - 1)
    if kind == "normal":
        n = draw(DEGREE)
        argv += ["-n", str(n)]
        if draw(st.booleans()):
            argv += option(draw, "-f", draw(forms(n)))
        twists = (0, 0, 0)
    return argv, twists


@st.composite
def cli_argv(draw, files, outputs):
    command = draw(st.sampled_from(["bundle", "transform", "surface", "delpezzo", "selftest"]))
    if command == "selftest":
        argv = ["selftest"]
        for n in draw(st.lists(st.sampled_from([-1, 0, 3, 7, 9, 99]), min_size=1, max_size=2)):
            argv += [name(draw, "--only"), str(n)]
        return argv
    if command == "bundle":
        argv = ["bundle", draw(st.sampled_from(["build", "profile", "check"]))]
        argv += draw(bundle_input(files))[0]
        if draw(st.booleans()):
            argv += [name(draw, "--primes-up-to"), str(draw(PRIME_LIKE))]
    elif command == "transform":
        source, twists = draw(bundle_input(files))
        m = draw(st.integers(-2, 4))
        argv = ["transform", draw(st.sampled_from(["apply", "factorize"])), *source]
        argv += [name(draw, "--prime"), str(draw(PRIME_LIKE)), name(draw, "--twist"), str(m)]
        row = [draw(forms(m - t)) for t in twists]
        if draw(st.booleans()):
            argv += option(draw, "--row", ";".join(row))
        else:
            argv += option(draw, "--g", row[0])
            if draw(st.sampled_from([True, True, True, False])):
                argv += option(draw, "--h", row[1])
    elif command == "surface":
        n = draw(DEGREE)
        argv = ["surface", "normal-form", "-n", str(n), *option(draw, "-f", draw(forms(n)))]
        argv += [name(draw, flag) for flag in ("--reduce", "--certify") if draw(st.booleans())]
    else:
        argv = ["delpezzo", draw(st.sampled_from(["check", "classify"])), *option(draw, "--points", draw(points()))]
    if draw(st.booleans()):
        argv += option(draw, "--output", draw(st.sampled_from(outputs)))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    good, bad = root / "bundle.json", root / "bad.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bundle", "build", "--generic-type", "1", "--jump", "3:2", "--output", str(good)]) == 0
    bad.write_text('{"presentation": {"base": "ZZ"}}')
    files = [str(good), str(bad), str(root / "absent.json")]
    outputs = [str(root / "out.json"), str(root / "missing" / "out.json")]
    return files, outputs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_argv_gets_a_document_or_a_usage_error(paths):
    files, outputs = paths

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cli_argv(files, outputs))
    def check(argv):
        code, out, err = run(argv)
        assert code != 3, ("internal inconsistency", argv, out)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 1:
            assert out == "" and "usage error:" in err, (argv, out, err)
            return
        doc = json.loads(out)
        assert doc["meta"]["tool"] == "arithsurf"
        assert ("error" in doc) == (code == 2 and argv[0] != "selftest"), (argv, doc)

    check()


# ---------------------------------------------------------------------------
# --bundle documents with one damage each

HANDLES = [
    prescribed_types(1, [(3, 2)]).to_json(),
    bundle_from_normal_form(NormalForm.make(2, "5*x0*x1")).to_json(),
]
NOT_RANK_2 = [free_presentation((0,)), free_presentation((0, 0, 1)), structure_sheaf()]
# torsion at (5, x0) and over 5: rank 2 generically, not locally free
NOT_LOCALLY_FREE = [
    cokernel_presentation((0, -1, 1), [(-1, [Form.monomial(1, 0), Form.constant(-5), Form.zero(2)])]),
    cokernel_presentation((0, 1, 0), [(0, [Form.zero(0), Form.zero(1), Form.constant(5)])]),
]
# values of every JSON type, some of which ``int`` reads as an integer
WRONG = [None, True, 1.5, -1, "x", "3", [], [1], {}, {"x": 1}]


def _paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield path + (k,)
            yield from _paths(value, path + (k,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def damaged_handles(draw):
    """A copy of a valid handle document with exactly one damage."""
    doc = json.loads(json.dumps(draw(st.sampled_from(HANDLES))))
    how = draw(st.sampled_from(["missing", "type", "ragged", "entry", "base", "rank", "free"]))
    if how in ("rank", "free"):
        doc["presentation"] = draw(st.sampled_from(NOT_RANK_2 if how == "rank" else NOT_LOCALLY_FREE)).to_json()
    elif how == "base":
        doc["presentation"]["base"] = draw(st.sampled_from(["QQ", "GF(5)", "GF(4)", "Z", ""]))
    elif how == "ragged":
        rows = doc["presentation"]["map"]["entries"]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row.append(row[0]) if draw(st.booleans()) else row.pop()
    elif how == "entry":
        forms = [f for row in doc["presentation"]["map"]["entries"] for f in row]
        coeffs = draw(st.sampled_from(forms))["coeffs"]
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.sampled_from(["1/2", "x", 2.5, None, "", "1e3"]))
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = _at(doc, path[:-1])
        if how == "missing" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(WRONG))
    return doc


def library(doc):
    """What the library makes of the presentation in ``doc``: the handle's
    JSON and profile, or the name of the domain error."""
    try:
        P = GradedPresentation.from_json(doc["presentation"] if "presentation" in doc else doc)
        if P.base.kind != "ZZ":
            return "InvalidInput"
        B = bundle_handle(P)
    except ArithsurfError as exc:
        return type(exc).__name__
    return B.to_json(), type_profile(B).to_json()


def test_a_damaged_bundle_document_gets_an_answer_or_a_named_error(tmp_path):
    path = tmp_path / "bundle.json"

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(damaged_handles(), st.sampled_from(["profile", "check"]))
    def check(doc, command):
        path.write_text(json.dumps(doc))
        code, out, err = run(["bundle", command, "--bundle", str(path)])
        assert err == "" and code in (0, 2), (doc, code, out, err)
        result, expect = json.loads(out), library(doc)
        if code == 2:
            assert (result["error"], bool(result["message"])) == (expect, True), (doc, result)
        else:
            assert (result["bundle"], result["profile"]) == expect, (doc, result)

    check()
