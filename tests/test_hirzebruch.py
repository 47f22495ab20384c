import json
import random

import pytest

from arithsurf import bundles
from arithsurf.bundles import SplittingType
from arithsurf.cli import main
from arithsurf.cohomology import sheaf_rank_degree
from arithsurf.errors import ProfileInconsistent
from arithsurf.graded import Form, cokernel_presentation, reduce_mod
from arithsurf.hirzebruch import (
    NormalForm,
    bundle_from_normal_form,
    constancy_check,
    degree_profile,
    equation,
    equation_string,
    reduce_coefficients,
)
from arithsurf.selftest import oracle_splitting


def test_equation_strings_canonical():
    assert equation_string(NormalForm.make(1, "0")) == "x0*y0 + x1*y1 = 0"
    assert (
        equation_string(NormalForm.make(2, "x0*x1"))
        == "x0^2*y0 + x1^2*y1 + x0*x1*y2 = 0"
    )
    assert (
        equation_string(NormalForm.make(2, "5*x0*x1"))
        == "x0^2*y0 + x1^2*y1 + 5*x0*x1*y2 = 0"
    )
    assert equation_string(NormalForm.make(0, "0")) == "y0 + y1 = 0"
    assert (
        equation_string(NormalForm.make(3, "-2*x0^2*x1 + x1^3"))
        == "x0^3*y0 + x1^3*y1 - 2*x0^2*x1*y2 + x1^3*y2 = 0"
    )


def test_equation_record():
    rec = equation(NormalForm.make(2, "5*x0*x1"))
    assert rec["bidegree"] == [2, 1]
    assert rec["smooth"] is True


def test_reduce_coefficients():
    nf = NormalForm.make(2, "3*x0^2 + x0*x1")
    red = reduce_coefficients(nf)
    assert red.f == Form.make(2, (0, 1, 0))
    # already reduced stays put
    assert reduce_coefficients(red) == red
    # degree profile is unchanged by the substitution
    assert degree_profile(nf).to_json() == degree_profile(red).to_json()


def test_bundle_from_normal_form_degree():
    for n in range(0, 4):
        B = bundle_from_normal_form(NormalForm.make(n, Form.zero(n)))
        assert (B.rank, B.degree) == (2, n)


def test_bundle_from_normal_form_keeps_the_relation_column():
    rng = random.Random(3)
    for n in range(0, 4):
        f = Form.make(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        column = (-n, [Form.monomial(n, 0), Form.monomial(n, n), f])
        B = bundle_from_normal_form(NormalForm(n, f))
        assert B.presentation == cokernel_presentation((0, 0, 0), [column])


def test_profiles_of_small_normal_forms():
    prof = degree_profile(NormalForm.make(1, "0"))
    assert prof.generic == SplittingType(0, 1) and prof.jumps == ()
    prof = degree_profile(NormalForm.make(2, "5*x0*x1"))
    assert prof.generic == SplittingType(1, 1)
    assert prof.jump_map() == {5: SplittingType(0, 2)}
    prof = degree_profile(NormalForm.make(2, "0"))
    assert prof.generic == SplittingType(0, 2) and prof.jumps == ()


def test_jump_primes_are_divisors_of_m():
    for m in (2, 3, 6):
        prof = degree_profile(NormalForm.make(2, Form.make(2, (0, m, 0))))
        assert prof.generic.type == 0
        assert set(prof.jump_map()) == {p for p in (2, 3, 5) if m % p == 0}
        for p, st in prof.jumps:
            assert st.type == 2


def test_n1_any_f_constant_degree():
    # for n = 1 the extension always splits; any f gives constant degree 1
    rng = random.Random(7)
    for _ in range(4):
        f = Form.make(1, [rng.randint(-9, 9) for _ in range(2)])
        prof = degree_profile(NormalForm(1, f))
        assert prof.generic.type == 1 and prof.jumps == ()


def test_parity_of_jumps_on_random_forms():
    rng = random.Random(9)
    for _ in range(5):
        n = rng.randint(0, 3)
        f = Form.make(n, [rng.randint(-10, 10) for _ in range(n + 1)])
        prof = degree_profile(NormalForm(n, f))
        for p, st in prof.jumps:
            delta = st.type - prof.generic.type
            assert delta > 0 and delta % 2 == 0
        # the bundle is always locally free of degree n
        B = bundle_from_normal_form(NormalForm(n, f))
        assert sheaf_rank_degree(B.presentation) == (2, n)


def test_profile_against_oracle_mod_p():
    nf = NormalForm.make(2, "6*x0*x1")
    P = bundle_from_normal_form(nf).presentation
    for p in (2, 3):
        assert oracle_splitting(reduce_mod(P, p), 2) == (0, 2)
    assert oracle_splitting(reduce_mod(P, 7), 2) == (1, 1)


def test_constancy_check():
    res = constancy_check(NormalForm.make(1, "0"))
    assert res.status == "certified"
    assert (res.certificate.split.a, res.certificate.split.b) == (0, 1)
    res = constancy_check(NormalForm.make(2, "5*x0*x1"))
    assert res.status == "not-constant"
    res = constancy_check(NormalForm.make(0, "0"))
    assert res.status == "certified"


def test_a_certificate_row_that_is_not_onto_is_an_error(monkeypatch, capsys):
    # refuse the certificate row, which sits on the twist-0 generators of
    # coker(x0, x1, 0); the Fitting-minor check of bundle_handle passes
    # minus the minor degrees as twists and keeps its answer
    onto = bundles.row_onto_degree
    monkeypatch.setattr(
        bundles,
        "row_onto_degree",
        lambda row, twists, a: None if tuple(twists) == (0, 0, 0) else onto(row, twists, a),
    )
    with pytest.raises(ProfileInconsistent):
        constancy_check(NormalForm.make(1, "0"))
    assert main(["surface", "normal-form", "-n", "1", "--certify"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["error"], doc["stage"]) == ("ProfileInconsistent", "split-certificate")


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm.make(2, "x0")
    with pytest.raises(ValueError):
        NormalForm(-1, Form.zero(-1))
