import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from arithsurf.bundles import (
    SplittingProfile,
    SplittingType,
    _dual_type,
    _fitting_minors,
    _fnv1a_64,
    audit_splitting,
    bundle_handle,
    check_parity,
    check_type_h0,
    normalize,
    row_onto_degree,
    splitting_type,
    try_split_certificate,
    type_profile,
)
from arithsurf.cohomology import h0_dim, sheaf_rank_degree
from arithsurf.errors import CompositeModulus, NotLocallyFree, ParityViolation
from arithsurf.exactlat import is_prime
from arithsurf.graded import (
    GF,
    Form,
    FreeGraded,
    GradedMap,
    cokernel_presentation,
    free_presentation,
    reduce_mod,
)
from arithsurf.graded import twist as twist_presentation
from arithsurf.hirzebruch import NormalForm, bundle_from_normal_form
from arithsurf.selftest import oracle_splitting
from arithsurf.transforms import prescribed_types

from oracles import form_gcd_degree_mod, leibniz_minors, splitting_scan


def nf_presentation(n, f):
    return cokernel_presentation(
        (0, 0, 0), [(-n, [Form.monomial(n, 0), Form.monomial(n, n), f])]
    )


def test_split_bundle_generic_type():
    for n in range(0, 4):
        B = bundle_handle(free_presentation((0, -n)), assume_saturated=True)
        assert splitting_type(B) == SplittingType(-n, 0)
        assert type_profile(B).jumps == ()


def test_type_identity_reads_each_half_from_one_value():
    # b = floor(e/2) + h^0(E(-floor(e/2)-1)), a = ceil(e/2) - h^0(E^v(ceil(e/2)-1))
    for a in range(-8, 9):
        for b in range(a, 9):
            st, e = SplittingType(a, b), a + b
            half, c = e // 2, -(-e // 2)
            assert b == half + st.h0_at(-half - 1)
            assert a == c - SplittingType(-b, -a).h0_at(c - 1)
            assert _dual_type(free_presentation((a, b)), e) == st
            assert _dual_type(free_presentation((a, b), GF(5)), e) == st


def test_normal_form_5x0x1_matches_oracle():
    P = nf_presentation(2, Form.make(2, (0, 5, 0)))
    B = bundle_handle(P)
    assert splitting_type(B) == SplittingType(1, 1)
    assert splitting_type(B, 5) == SplittingType(0, 2)
    # brute-force monomial oracle over Q and F_5 on the raw presentation
    assert oracle_splitting(P, 2) == (1, 1)
    assert oracle_splitting(reduce_mod(P, 5), 2) == (0, 2)


def test_profile_normal_form_n1():
    B = bundle_handle(nf_presentation(1, Form.zero(1)))
    prof = type_profile(B)
    assert prof.generic == SplittingType(0, 1)
    assert prof.jumps == ()


def test_profile_normal_form_6x0x1():
    B = bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0))))
    prof = type_profile(B)
    assert prof.generic.type == 0
    assert prof.jump_map() == {
        2: SplittingType(0, 2),
        3: SplittingType(0, 2),
    }


def test_jump_completeness_spot_checks():
    # splitting_type reads the stored profile; audit_splitting reads the fiber
    # off the dual mod p and checks it against the pair engine
    rng = random.Random(23)
    handles = [bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0))))]
    for n in range(4):
        jumps = rng.sample([(2, 1), (3, 2), (5, 1), (7, 1)], n % 3)
        handles.append(prescribed_types(n, jumps))
    for n in range(1, 5):
        f = Form.make(n, [rng.randint(-30, 30) for _ in range(n + 1)])
        handles.append(bundle_from_normal_form(NormalForm(n, f)))
    for B in handles:
        for p in PRIMES_TO_50:
            assert splitting_type(B, p) == audit_splitting(B, p), (p, type_profile(B).to_json())


@pytest.mark.parametrize("p", [0, 1, 4, -5])
def test_types_at_a_prime_refuse_other_moduli(p):
    B = prescribed_types(1, [(5, 2)])
    with pytest.raises(CompositeModulus):
        splitting_type(B, p)
    with pytest.raises(CompositeModulus):
        audit_splitting(B, p)


@pytest.mark.parametrize(
    "data, digest",
    [(b"", "cbf29ce484222325"), (b"a", "af63dc4c8601ec8c"), (b"foobar", "85944171f73967e8")],
)
def test_fnv1a_64_published_vectors(data, digest):
    assert _fnv1a_64(data) == digest


# 64-bit FNV-1a of the canonical JSON of prescribed_types(1, [(5, 2)])
PINNED_ID = "f6cd1a1d5f244cc9"


def test_identifier_is_pinned():
    assert prescribed_types(1, [(5, 2)]).identifier() == PINNED_ID


def test_identifier_does_not_depend_on_the_hash_seed():
    script = "import arithsurf.transforms as t; print(t.prescribed_types(1, [(5, 2)]).identifier())"
    src = str(Path(__file__).resolve().parent.parent / "src")
    ids = [
        subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        for seed in ("0", "1")
    ]
    assert ids == [[PINNED_ID], [PINNED_ID]]


def test_normalize():
    B = bundle_handle(free_presentation((0, 3)), assume_saturated=True)
    N = normalize(B)
    assert type_profile(N).generic == SplittingType(-4, -1)
    # idempotent
    assert normalize(N).presentation == N.presentation


def test_profile_twist_invariance():
    rng = random.Random(31)
    P = nf_presentation(2, Form.make(2, (0, 6, 0)))
    B = bundle_handle(P)
    base_types = type_profile(B).type_map()
    for t in (-3, -1, 1, 2, 3):
        Bt = bundle_handle(twist_presentation(B.presentation, t), assume_saturated=True)
        assert type_profile(Bt).type_map() == base_types
        # normalize shifts the stored profile; a fresh reading agrees
        N = normalize(Bt)
        assert N.profile == bundle_handle(N.presentation).profile


def test_degree_constant_across_fibers():
    B = bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0))))
    prof = type_profile(B)
    assert prof.generic.degree == B.degree
    for p, st in prof.jumps:
        assert st.degree == B.degree


def test_parity_profile_constructor_guards():
    with pytest.raises(ParityViolation):
        SplittingProfile(SplittingType(0, 0), ((3, SplittingType(-1, 2)),))
    with pytest.raises(ParityViolation):
        SplittingProfile(SplittingType(0, 2), ((3, SplittingType(0, 0)),))


def test_check_parity_split_is_empty():
    B = bundle_handle(free_presentation((0, -2)), assume_saturated=True)
    assert check_parity(B) == {}


def test_check_parity_returns_the_jump_deltas():
    # generic type 1, type 1 + 2*ni at each jump: deltas 2*ni
    assert check_parity(prescribed_types(1, [(2, 1), (5, 2)])) == {2: 2, 5: 4}
    # 6*x0*x1: generic (1, 1), and (0, 2) over 2 and 3
    assert check_parity(bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0))))) == {2: 2, 3: 2}


def test_check_type_h0_split_trivial():
    B = bundle_handle(free_presentation((-1, -3)), assume_saturated=True)
    assert check_type_h0(B) == {}
    for p in (2, 7):
        assert h0_dim(reduce_mod(normalize(B).presentation, p), 0) == 0


def test_split_certificate_normal_form_n1():
    B = bundle_handle(nf_presentation(1, Form.zero(1)))
    cert = try_split_certificate(B)
    assert cert is not None
    assert (cert.split.a, cert.split.b) == (0, 1)


def test_split_certificate_refuses_jumpy_profile():
    B = bundle_handle(nf_presentation(2, Form.make(2, (0, 5, 0))))
    assert try_split_certificate(B) is None


def test_split_certificate_product_case():
    B = bundle_handle(free_presentation((0, 0)), assume_saturated=True)
    cert = try_split_certificate(B)
    assert cert is not None
    assert cert.split == SplittingType(0, 0)


def test_split_certificate_type_two():
    # constant type >= 2: the certificate still finds the small-side section
    B = bundle_handle(free_presentation((1, 3)), assume_saturated=True)
    cert = try_split_certificate(B)
    assert cert is not None
    assert cert.split == SplittingType(1, 3)


def row_kills_relations(row, phi):
    for j in range(phi.source.rank):
        total = None
        for i, w in enumerate(row):
            term = w.mul(phi.entries[i][j])
            total = term if total is None else total.add(term)
        if total is not None and not total.is_zero():
            return False
    return True


@pytest.mark.parametrize("saturate", [False, True])
def test_split_certificate_constant_normal_forms(saturate):
    # n = 1 always splits as (0, 1); n = 2 with a unit x0*x1 coefficient as (1, 1)
    rng = random.Random(41)
    for n in (1, 2) * 5:
        f = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
        if n == 2:
            f[1] = rng.choice((-1, 1))
        P = nf_presentation(n, Form.make(n, f))
        B = bundle_handle(P) if saturate else bundle_handle(P, assume_saturated=True)
        cert = try_split_certificate(B)
        assert cert is not None, f
        assert cert.split == type_profile(B).generic == SplittingType(n // 2, n - n // 2)
        phi = B.presentation.map
        assert row_kills_relations(cert.row, phi)
        assert row_onto_degree(cert.row, phi.target.twists, cert.split.a) == cert.degree
        assert cert.to_json()["row"] == [w.to_json() for w in cert.row]


def test_row_onto_degree_refuses_a_common_zero_mod_p():
    x0sq, x1sq = Form.monomial(2, 0), Form.monomial(2, 2)
    assert row_onto_degree((x0sq, x1sq), (0, 0), 2) == 3
    # no common zero over Q, but both vanish at x0 = 0 modulo 5
    assert row_onto_degree((x0sq, Form.make(2, (0, 1, 5))), (0, 0), 2) is None
    assert row_onto_degree((Form.constant(2), Form.constant(3)), (0, 0), 0) == 0
    assert row_onto_degree((Form.constant(2), Form.constant(4)), (0, 0), 0) is None


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize(
    "twists, column",
    [
        # O + O(1) + O_{F_5}(k): torsion over 5, invisible to the dual
        ((0, 1, 0), (0, [Form.zero(0), Form.zero(1), Form.constant(5)])),
        ((0, 1, 3), (3, [Form.zero(-3), Form.zero(-2), Form.constant(5)])),
        # I + O(1) with I the ideal sheaf of the point (5, x0): flat over Z
        ((0, -1, 1), (-1, [Form.monomial(1, 0), Form.constant(-5), Form.zero(2)])),
    ],
)
def test_bundle_handle_rejects_sheaves_that_are_not_locally_free(twists, column, saturate):
    P = cokernel_presentation(twists, [column])
    assert sheaf_rank_degree(P)[0] == 2
    with pytest.raises(NotLocallyFree):
        bundle_handle(P, assume_saturated=not saturate)


@pytest.mark.parametrize("seed", range(4))
def test_fitting_minors_match_the_permutation_expansion(seed):
    rng = random.Random(500 + seed)
    tt = tuple(rng.randint(-1, 1) for _ in range(5))
    st = tuple(rng.randint(-3, 0) for _ in range(5))
    entries = tuple(
        tuple(
            Form.make(a - b, [rng.choice((0, rng.randint(-4, 4))) for _ in range(a - b + 1)])
            if a >= b
            else Form.zero(a - b)
            for b in st
        )
        for a in tt
    )
    phi = GradedMap(FreeGraded(st), FreeGraded(tt), entries)
    expect = leibniz_minors([[f.coeffs for f in row] for row in entries], tt, st, 3)
    assert [(f.degree, f.coeffs) for f in _fitting_minors(phi)] == expect


def _unimodular(rng, n, steps):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize("torsion, ok", [(1, True), (2, False)])
def test_bundle_handle_eight_constant_generators_and_relations(torsion, ok):
    # U diag(1,1,1,1,1,torsion,0,0) V with dense unimodular U, V: O + O,
    # or O + O plus torsion over 2; 784 Fitting minors of size 6
    rng = random.Random(8)
    U, V = _unimodular(rng, 8, 40), _unimodular(rng, 8, 40)
    D = [[(torsion if i == 5 else 1) if i == j and i < 6 else 0 for j in range(8)] for i in range(8)]
    UD = [[sum(U[i][t] * D[t][j] for t in range(8)) for j in range(8)] for i in range(8)]
    phi = [[sum(UD[i][t] * V[t][j] for t in range(8)) for j in range(8)] for i in range(8)]
    P = cokernel_presentation((0,) * 8, [(0, [Form.constant(phi[i][j]) for i in range(8)]) for j in range(8)])
    if not ok:
        with pytest.raises(NotLocallyFree):
            bundle_handle(P, assume_saturated=True)
        return
    B = bundle_handle(P, assume_saturated=True)
    assert type_profile(B).to_json() == {"generic": [0, 0], "jumps": {}}


def test_rank_check_rejects_rank_one():
    with pytest.raises(NotLocallyFree):
        bundle_handle(free_presentation((0,)), assume_saturated=True)


def test_profile_json():
    B = bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0))))
    obj = type_profile(B).to_json()
    assert obj["generic"] == [1, 1]
    assert set(obj["jumps"]) == {"2", "3"}


# ---------------------------------------------------------------------------
# the dual profile against the h^0 oracle: ``oracles.splitting_scan`` reads
# each type off ``selftest.oracle_h0``

PRIMES_TO_50 = [p for p in range(2, 51) if is_prime(p)]


def assert_profile_matches_oracle(B):
    prof = type_profile(B)
    for p in sorted(set(PRIMES_TO_50) | set(prof.jump_map())):
        scanned = splitting_scan(reduce_mod(B.presentation, p), B.degree)
        assert audit_splitting(B, p) == prof.at(p) == scanned, (p, prof.to_json())


def random_dense_surjection(rng, p, n, ni):
    while True:
        g = Form.make(ni, [rng.randrange(p) for _ in range(ni + 1)])
        h = Form.make(ni + n, [rng.randrange(p) for _ in range(ni + n + 1)])
        if g.coeffs[0] and h.coeffs[-1] and form_gcd_degree_mod(g, h, p) == 0:
            return g, h


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_dual_profile_matches_pair_engine_normal_forms(n, seed):
    rng = random.Random(100 * seed + n)
    f = Form.make(n, [rng.randint(-30, 30) for _ in range(n + 1)])
    assert_profile_matches_oracle(bundle_from_normal_form(NormalForm(n, f)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_dual_profile_matches_pair_engine_raw_presentations(n, seed):
    # unsaturated presentations: the dual needs no resaturation
    rng = random.Random(100 * seed + n + 50)
    f = Form.make(n, [rng.randint(-30, 30) for _ in range(n + 1)])
    assert_profile_matches_oracle(bundle_handle(nf_presentation(n, f), assume_saturated=True))


def test_dual_profile_jump_of_height_two():
    # f = 6*x0^2*x1^2 vanishes mod 2 and 3, where E_p = O + O(4)
    B = bundle_handle(nf_presentation(4, Form.make(4, (0, 0, 6, 0, 0))), assume_saturated=True)
    assert type_profile(B).to_json() == {"generic": [2, 2], "jumps": {"2": [0, 4], "3": [0, 4]}}
    assert_profile_matches_oracle(B)


@pytest.mark.parametrize("seed", range(4))
def test_dual_profile_matches_pair_engine_dense_prescribed(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(0, 2)
    p, q = rng.sample([2, 3, 5, 7], 2)
    ni = rng.randint(1, 2)
    jumps = [(q, rng.randint(1, 2)), (p, ni, random_dense_surjection(rng, p, n, ni))]
    B = prescribed_types(n, jumps)
    assert type_profile(B).type_map() == {"generic": n, **{j[0]: n + 2 * j[1] for j in jumps}}
    assert_profile_matches_oracle(B)


@pytest.mark.parametrize("extra", ["zero", "repeated"])
@pytest.mark.parametrize("n, coeffs", [(1, (3, 7)), (2, (0, 6, 0)), (3, (0, 10, 1, 0))])
def test_dual_profile_matches_pair_engine_redundant_relation_columns(n, coeffs, extra):
    # a zero column adds a zero row to phi^T; a repeated one a duplicate row
    f = Form.make(n, coeffs)
    column = (-n, [Form.monomial(n, 0), Form.monomial(n, n), f])
    second = (-n - 1, [Form.zero(n + 1)] * 3) if extra == "zero" else column
    B = bundle_handle(cokernel_presentation((0, 0, 0), [column, second]))
    assert type_profile(B) == type_profile(bundle_from_normal_form(NormalForm(n, f)))
    assert_profile_matches_oracle(B)


@pytest.mark.parametrize("t", [-2, -4])
def test_dual_profile_matches_pair_engine_negative_degree(t):
    for B in (bundle_handle(nf_presentation(2, Form.make(2, (0, 6, 0)))), prescribed_types(1, [(5, 1)])):
        Bt = bundle_handle(twist_presentation(B.presentation, t))
        assert Bt.degree == B.degree + 2 * t < 0
        assert type_profile(Bt) == type_profile(B).shifted(t)
        assert_profile_matches_oracle(Bt)
