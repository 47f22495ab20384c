import itertools
import json
import random

import pytest

from arithsurf.bundles import (
    SplittingType,
    bundle_handle,
    check_parity,
    check_type_h0,
    splitting_type,
    type_profile,
)
from arithsurf.cohomology import h0_dim, sheaf_rank_degree
from arithsurf.errors import (
    CompositeModulus,
    DegreeMismatch,
    DuplicatePrime,
    NotSurjective,
    UnsupportedCenter,
)
from arithsurf import transforms
from arithsurf.graded import Form, free_presentation, reduce_mod
from arithsurf.hirzebruch import NormalForm, bundle_from_normal_form
from arithsurf.transforms import (
    BlowupFactorization,
    FiberQuotient,
    apply,
    blowup_factorization,
    default_surjection,
    prescribed_types,
    validate_quotient,
)
from oracles import _kernel_quotient_degree, apply_full, form_gcd_degree_mod, restricted_quotient


def split_handle(*twists):
    return bundle_handle(free_presentation(twists), assume_saturated=True)


def test_validate_default_surjection_accepted():
    B = split_handle(-1, -3)  # normalized shape for n = 2
    q = default_surjection(5, 2, 1)
    verdict = validate_quotient(B, q)
    assert verdict["ok"]


def test_validate_shared_factor_rejected():
    B = split_handle(-1, -1)
    # g = x0*u and h = x0*v share the fiber zero x0 = 0
    q = FiberQuotient.from_pair(3, 1, Form.make(2, (1, 0, 0)), Form.make(2, (0, 1, 0)))
    with pytest.raises(NotSurjective):
        validate_quotient(B, q)


def test_validate_degree_mismatch():
    B = split_handle(0, 0)
    with pytest.raises(DegreeMismatch):
        validate_quotient(B, FiberQuotient.make(3, -1, (Form.zero(-1), Form.zero(-1))))
    with pytest.raises(DegreeMismatch):
        validate_quotient(B, FiberQuotient.make(3, 1, (Form.monomial(1, 0), Form.zero(0))))


def test_validate_quotient_matches_the_gcd_criterion():
    # a pair is onto on the fiber exactly when its forms are coprime mod p
    rng = random.Random(2301)
    handles = [split_handle(-1, -n - 1) for n in range(3)]
    outcomes = []
    for _ in range(200):
        p, n, m = rng.choice((2, 3, 5, 7)), rng.randrange(3), rng.randrange(3)
        g = Form.make(m + 1, [rng.randrange(p) for _ in range(m + 2)])
        h = Form.make(m + n + 1, [rng.randrange(p) for _ in range(m + n + 2)])
        try:
            validate_quotient(handles[n], FiberQuotient.from_pair(p, m, g, h))
            accepted = True
        except NotSurjective as exc:
            assert exc.degree == m + 2 * n + 4
            accepted = False
        assert accepted == (form_gcd_degree_mod(g, h, p) == 0), (p, m, g, h)
        outcomes.append(accepted)
    assert min(outcomes.count(True), outcomes.count(False)) >= 40


# (n, p, (u, w, t)) of normal_form_row on the normal form NF_ROW_FORMS[n]
# whose three forms share a zero on the fiber
NF_ROW_FORMS = {1: (2, 3), 2: (0, 6, 0), 3: (1, 0, 2, 3)}
NF_ROW_REFUSED = {
    (1, 2, (0, 0, 0)), (1, 2, (0, 0, 1)), (1, 2, (1, 1, 0)), (1, 2, (1, 1, 1)),
    (1, 3, (0, 0, 0)), (1, 3, (0, 1, 0)), (1, 5, (0, 0, 0)),
    (2, 2, (0, 0, 0)), (2, 2, (0, 0, 1)), (2, 2, (0, 1, 0)), (2, 2, (0, 1, 1)),
    (2, 3, (0, 0, 0)), (2, 3, (0, 0, 1)), (2, 3, (0, 1, 0)), (2, 3, (0, 1, 1)),
    (2, 5, (0, 0, 0)), (2, 5, (0, 0, 1)), (2, 5, (0, 1, 0)),
    (3, 2, (0, 0, 0)), (3, 2, (0, 1, 1)), (3, 2, (1, 0, 1)), (3, 2, (1, 1, 0)),
    (3, 3, (0, 0, 0)), (3, 3, (0, 1, 0)), (3, 3, (0, 1, 1)), (3, 3, (1, 0, 1)),
    (3, 5, (0, 0, 0)), (3, 5, (0, 1, 1)), (3, 5, (1, 0, 1)),
}


def test_validate_three_form_rows_on_normal_forms():
    for n, coeffs in NF_ROW_FORMS.items():
        f = Form.make(n, coeffs)
        B = bundle_from_normal_form(NormalForm.make(n, f))
        for p in (2, 3, 5):
            for uwt in itertools.product(range(2), repeat=3):
                q = normal_form_row(n, f, p, *uwt)
                if (n, p, uwt) in NF_ROW_REFUSED:
                    with pytest.raises(NotSurjective):
                        validate_quotient(B, q)
                else:
                    assert validate_quotient(B, q)["ok"], (n, p, uwt)


def test_horizontal_center_rejected():
    with pytest.raises(UnsupportedCenter):
        FiberQuotient.make(0, 0, (Form.constant(1),))


def test_composite_prime_rejected():
    with pytest.raises(CompositeModulus):
        FiberQuotient.make(6, 0, (Form.constant(1),))


def test_apply_basic_example():
    # split (-1,-1), quotient (p=2, m=0, g=x0, h=x1): jump to type 2 at 2
    B = split_handle(-1, -1)
    q = FiberQuotient.from_pair(2, 0, Form.monomial(1, 0), Form.monomial(1, 1))
    out = apply(B, q)
    prof = type_profile(out)
    assert prof.generic.type == 0
    assert prof.type_map() == {"generic": 0, 2: 2}


def test_apply_resplitting_kernel():
    # quotient (p, m, g=1, h=0) against split (m, b): kernel re-splits
    B = split_handle(0, -2)
    q = FiberQuotient.make(3, 0, (Form.constant(1), Form.zero(2)))
    out = apply(B, q)
    prof = type_profile(out)
    assert prof.generic == type_profile(B).generic
    assert prof.jumps == ()


def test_apply_preserves_rank_degree_and_off_primes():
    B = split_handle(-1, -2)
    q = default_surjection(3, 1, 2)
    out = apply(B, q)
    assert sheaf_rank_degree(out.presentation) == (2, B.degree)
    prof_in, prof_out = type_profile(B), type_profile(out)
    assert prof_in.generic == prof_out.generic
    assert [p for p, _ in prof_out.jumps] == [3]
    # fiberwise degree unchanged at the transformation prime too
    assert splitting_type(out, 3).degree == B.degree


def test_prescribed_types_examples():
    B = prescribed_types(0, [(2, 1), (3, 2)])
    assert type_profile(B).type_map() == {"generic": 0, 2: 2, 3: 4}
    B = prescribed_types(3, [])
    prof = type_profile(B)
    assert prof.generic == SplittingType(-4, -1) and prof.jumps == ()
    B = prescribed_types(1, [(5, 3)])
    assert type_profile(B).type_map() == {"generic": 1, 5: 7}
    assert check_type_h0(B)[5] == (6, 3)


def test_prescribed_types_duplicate_prime():
    with pytest.raises(DuplicatePrime):
        prescribed_types(0, [(2, 1), (2, 2)])


def test_chain_order_does_not_matter():
    a = type_profile(prescribed_types(1, [(2, 1), (5, 1)])).type_map()
    b = type_profile(prescribed_types(1, [(5, 1), (2, 1)])).type_map()
    assert a == b == {"generic": 1, 2: 3, 5: 3}


def test_prescribed_types_custom_surjection():
    # any coprime pair of the right degrees is accepted
    g = Form.make(1, (1, 1))  # x0 + x1
    h = Form.make(3, (0, 0, 0, 1))  # x1^3, coprime to g
    B = prescribed_types(2, [(3, 1, (g, h))])
    assert type_profile(B).type_map() == {"generic": 2, 3: 4}


def test_prescribed_types_noncoprime_surjection_rejected():
    g = Form.make(1, (1, 0))  # x0
    h = Form.make(3, (0, 1, 0, 0))  # x0^2 x1
    with pytest.raises(NotSurjective):
        prescribed_types(2, [(3, 1, (g, h))])


def test_parity_and_h0_on_randomized_prescriptions():
    rng = random.Random(41)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(6):
        n = rng.randint(0, 2)
        count = rng.randint(1, 2)
        ps = rng.sample(primes, count)
        jumps = [(p, rng.randint(1, 2)) for p in ps]
        B = prescribed_types(n, jumps)
        deltas = check_parity(B)
        assert set(deltas) == set(ps)
        assert all(delta == 2 * ni for (p, ni), delta in zip(sorted(jumps), sorted(deltas.items()) and [deltas[p] for p, _ in sorted(jumps)]))
        for p, (delta, fib) in check_type_h0(B).items():
            assert delta == 2 * fib


def test_blowup_record_round_trip_and_degrees():
    B = split_handle(-1, -2)  # normalized, n = 1
    q = default_surjection(5, 1, 2)  # ni = 2
    rec = blowup_factorization(B, q)
    assert rec.prime == 5
    assert rec.center_V.degree == 2  # the degree n_i section
    assert rec.center_V.self_intersection == 1 + 2 * 2
    assert rec.center_U.self_intersection == -(1 + 2 * 2)
    assert rec.center_V.prime == rec.center_U.prime
    again = BlowupFactorization.from_json(json.loads(json.dumps(rec.to_json())))
    assert again == rec


def test_identity_free_factorization_standard_sections():
    # trivial quotient data on a split bundle: the centers are the two
    # standard sections of the fiber, with opposite self-intersections
    S = split_handle(0, -2)
    q = FiberQuotient.make(3, 0, (Form.constant(1), Form.zero(2)))
    rec = blowup_factorization(S, q)
    assert rec.center_V.degree == 0
    assert rec.center_V.self_intersection == 2
    assert rec.center_U.self_intersection == -2
    assert rec.source_profile == rec.target_profile


def test_fiber_quotient_json_round_trip():
    q = default_surjection(7, 3, 2)
    assert FiberQuotient.from_json(json.loads(json.dumps(q.to_json()))) == q
    general = FiberQuotient.make(3, 1, (Form.constant(2), Form.monomial(1, 1), Form.zero(-1)))
    assert FiberQuotient.from_json(json.loads(json.dumps(general.to_json()))) == general


# ---------------------------------------------------------------------------
# the closed form against the transformation chain


def chained_prescribed_types(n, jumps):
    """One apply_full per jump, each later surjection carried across it."""
    handle = split_handle(-1, -n - 1)
    pending = []
    for item in jumps:
        p, ni = item[:2]
        q = default_surjection(p, n, ni) if len(item) == 2 else FiberQuotient.from_pair(p, ni - 1, *item[2])
        pending.append(q)
    while pending:
        result = apply_full(handle, pending.pop(0))
        pending = [restricted_quotient(result, q) for q in pending]
        handle = result.handle
    return handle


def dense_surjection(rng, p, n, ni):
    while True:
        g = Form.make(ni, [rng.randrange(p) for _ in range(ni + 1)])
        h = Form.make(ni + n, [rng.randrange(p) for _ in range(ni + n + 1)])
        if g.coeffs[0] and h.coeffs[-1] and form_gcd_degree_mod(g, h, p) == 0:
            return g, h


# (n, ((p, height, dense surjection?), ...)): one to three jumps, equal and
# distinct heights, dense surjections first, in the middle and last.  The
# chain is slow on a dense surjection before other jumps at larger primes,
# so those cases stay at primes up to 5.
CHAIN_CASES = [
    (0, ((3, 1, False),)),
    (1, ((5, 2, True),)),
    (2, ((2, 1, False), (3, 1, False))),
    (3, ((2, 1, True),)),
    (0, ((3, 2, True), (5, 1, False))),
    (1, ((5, 1, False), (2, 1, True), (3, 1, False))),
    (2, ((7, 1, False), (5, 2, True))),
    (0, ((2, 1, True), (5, 1, True))),
    (1, ((2, 2, False), (5, 2, False), (3, 1, True))),
    (3, ((11, 1, False), (5, 1, False))),
    (2, ((2, 2, True), (5, 1, False), (3, 1, False))),
    (1, ((11, 1, False), (7, 3, False))),
]


@pytest.mark.parametrize("case", range(len(CHAIN_CASES)))
def test_closed_form_matches_transformation_chain(case):
    n, spec = CHAIN_CASES[case]
    rng = random.Random(700 + case)
    jumps = [(p, ni, dense_surjection(rng, p, n, ni)) if dense else (p, ni) for p, ni, dense in spec]
    closed, chained = prescribed_types(n, jumps), chained_prescribed_types(n, jumps)
    assert type_profile(closed) == type_profile(chained)
    P, Q = closed.presentation, chained.presentation
    assert sheaf_rank_degree(P) == sheaf_rank_degree(Q)
    for R, S in [(P, Q)] + [(reduce_mod(P, p), reduce_mod(Q, p)) for p, _, _ in spec]:
        for d in range(-n - 3, 3):
            assert h0_dim(R, d) == h0_dim(S, d), (R.base, d)
    heights = {ni for _, ni, _ in spec}
    assert P.generators.rank == 2 + len(heights)
    assert P.relations.rank == len(heights)


# ---------------------------------------------------------------------------
# the closed-form apply against section lattices at the exact exponent


def normal_form_row(n, f, p, u, w, t):
    """A row of degree n killing the column (x0^n, x1^n, f) of a normal form:
    u (x1^n, -x0^n, 0) + w (f, 0, -x0^n) + t (0, f, -x1^n)."""
    x0n, x1n = Form.monomial(n, 0), Form.monomial(n, n)
    row = (
        x1n.scale(u).add(f.scale(w)),
        x0n.scale(-u).add(f.scale(t)),
        x0n.scale(-w).add(x1n.scale(-t)),
    )
    return FiberQuotient.make(p, n, row)


# ("split", n, p, height, dense surjection?, prior jumps): a source
# O(-1) + O(-n-1), after the prior jumps (p, height) when given, applied and
# carried across by the closed form.  ("normal", n, p, f, (u, w, t), ()):
# the normal-form bundle of (n, f) with the row normal_form_row(..., u, w, t).
APPLY_CASES = [
    ("split", 0, 3, 1, False, ()),
    ("split", 1, 5, 2, True, ()),
    ("split", 2, 2, 1, True, ()),
    ("split", 3, 7, 2, False, ()),
    ("split", 3, 3, 1, True, ()),
    ("split", 1, 11, 1, True, ()),
    ("split", 0, 3, 1, False, ((2, 1),)),
    ("split", 1, 5, 1, True, ((3, 2),)),
    ("split", 2, 3, 2, False, ((5, 1), (2, 1))),
    ("normal", 1, 5, (2, 3), (1, 1, 0), ()),
    ("normal", 2, 3, (0, 6, 0), (1, 1, 2), ()),
    ("normal", 3, 5, (1, 0, 2, 3), (1, 1, 1), ()),
]


def apply_case(case):
    kind, n, p, a, b, prior = APPLY_CASES[case]
    if kind == "normal":
        B = bundle_from_normal_form(NormalForm.make(n, Form.make(n, a)))
        return n, B, normal_form_row(n, Form.make(n, a), p, *b)
    rng = random.Random(900 + case)
    B = split_handle(-1, -n - 1)
    q = FiberQuotient.from_pair(p, a - 1, *dense_surjection(rng, p, n, a)) if b else default_surjection(p, n, a)
    pending = [default_surjection(p0, n, ni) for p0, ni in prior] + [q]
    while len(pending) > 1:
        result = transforms.apply_full(B, pending.pop(0))
        B, pending = result.handle, [transforms.restricted_quotient(result, q) for q in pending]
    return n, B, pending[0]


@pytest.mark.parametrize("case", range(len(APPLY_CASES)))
def test_closed_form_apply_matches_section_lattices(case):
    n, B, q = apply_case(case)
    closed, lattice = transforms.apply_full(B, q), apply_full(B, q)
    assert type_profile(closed.handle) == type_profile(lattice.handle)
    P, Q = closed.handle.presentation, lattice.handle.presentation
    assert sheaf_rank_degree(P) == sheaf_rank_degree(Q)
    for R, S in [(P, Q), (reduce_mod(P, q.p), reduce_mod(Q, q.p))]:
        for d in range(-n - 3, 3):
            assert h0_dim(R, d) == h0_dim(S, d), (R.base, d)
    rec = blowup_factorization(B, q)
    assert rec.center_U.quotient_degree == _kernel_quotient_degree(B, lattice)


def test_six_chained_applies_stay_small():
    n, jumps = 1, [(2, 1), (3, 2), (5, 1), (7, 2), (11, 1), (13, 2)]
    handle = split_handle(-1, -n - 1)
    pending = [default_surjection(p, n, ni) for p, ni in jumps]
    for k in range(len(jumps)):
        result = transforms.apply_full(handle, pending.pop(0))
        pending = [transforms.restricted_quotient(result, q) for q in pending]
        handle = result.handle
        assert handle.presentation.generators.rank <= 4
        expect = {"generic": n, **{p: n + 2 * ni for p, ni in jumps[: k + 1]}}
        assert type_profile(handle).type_map() == expect

