import gc
import random
from math import comb

import pytest

from arithsurf import cohomology
from arithsurf.bundles import bundle_handle
from arithsurf.cohomology import (
    FpSpan,
    PairSpace,
    SectionCount,
    _pair_data,
    h0_dim,
    h1,
    section_space,
    sheaf_rank_degree,
    stabilization_floor,
)
from arithsurf.errors import ProfileInconsistent
from arithsurf.exactlat import rref_mod
from arithsurf.graded import (
    GF,
    QQ,
    ZZ,
    Form,
    cokernel_presentation,
    degree_piece,
    free_presentation,
    reduce_mod,
    twist,
)
from arithsurf.selftest import _oracle_pair_dim, oracle_h0
from arithsurf.transforms import prescribed_types
from oracles import (
    lattice_contains,
    pair_kernel_rref_mod,
    pair_lattices,
    pair_times,
    probe_rank_degree,
    rationalize,
    reference_rref_mod,
    structure_sheaf,
)


def normal_form_presentation(n, f):
    return cokernel_presentation(
        (0, 0, 0), [(-n, [Form.monomial(n, 0), Form.monomial(n, n), f])]
    )


def line_bundle(n):
    return free_presentation((n,))


def test_h0_structure_sheaf_classical():
    O = structure_sheaf()
    assert h0_dim(O, 3) == 4
    assert h0_dim(O, 0) == 1
    assert h0_dim(O, -1) == 0


def test_h0_split_negative_twists():
    for n in range(0, 4):
        P = free_presentation((-1, -n - 1))
        assert h0_dim(P, 0) == 0


def test_h0_split_general():
    P = free_presentation((0, -2, 3))
    for d in range(-4, 4):
        expect = sum(max(0, a + d + 1) for a in (0, -2, 3))
        assert h0_dim(P, d) == expect


def test_h0_of_non_saturated_cokernel():
    # the ideal (x0, x1) presented as a module sheafifies to the structure
    # sheaf: one generator pair, Koszul relation
    P = cokernel_presentation(
        (-1, -1), [(-2, [Form.monomial(1, 1), Form.monomial(1, 0).scale(-1)])]
    )
    assert h0_dim(P, 0) == 1
    assert h0_dim(P, 2) == 3
    assert sheaf_rank_degree(P) == (1, 0)


def test_sheaf_rank_degree_strongly_negative_twists():
    # the probe twist must clear the section threshold of every summand
    assert sheaf_rank_degree(free_presentation((-9, -9))) == (2, -18)
    assert sheaf_rank_degree(free_presentation((-5,))) == (1, -5)


def test_sheaf_rank_degree_examples():
    for n in range(0, 4):
        assert sheaf_rank_degree(free_presentation((0, -n))) == (2, -n)
        # determinant forces degree n for the normal-form cokernel
        P = normal_form_presentation(n, Form.zero(n))
        assert sheaf_rank_degree(P) == (2, n)
    assert sheaf_rank_degree(structure_sheaf()) == (1, 0)


def random_form(rng, degree):
    if degree < 0:
        return Form.zero(degree)
    return Form.make(degree, [rng.randint(-3, 3) for _ in range(degree + 1)])


def random_column(rng, gens, cols, span=2):
    """One relation column: random, zero, a repeat of the last one, or torsion
    (c or c*x0 times one generator, c in 2, 3, 6).  Random and zero columns
    have twists down to ``span`` below the lowest generator."""
    kind = rng.choice(("random", "random", "zero", "repeat", "torsion"))
    if kind == "repeat" and cols:
        return cols[-1]
    if kind == "torsion":
        i = rng.randrange(len(gens))
        rt = gens[i] - rng.randint(0, 1)
        entry = Form.make(gens[i] - rt, [rng.choice((2, 3, 6))] + [0] * (gens[i] - rt))
        return rt, [entry if j == i else Form.zero(a - rt) for j, a in enumerate(gens)]
    rt = min(gens) - rng.randint(0, span)
    if kind == "zero":
        return rt, [Form.zero(a - rt) for a in gens]
    return rt, [random_form(rng, a - rt) for a in gens]


def test_rank_degree_formula_matches_the_probe_engine():
    rng = random.Random(2101)
    cases = non_injective = 0
    for _ in range(40):
        gens = tuple(rng.randint(-2, 1) for _ in range(rng.randint(1, 3)))
        cols = []
        for _ in range(rng.randint(1, 4)):
            cols.append(random_column(rng, gens, cols))
        P = cokernel_presentation(gens, cols)
        for Q in (P, reduce_mod(P, 2), reduce_mod(P, 3)):
            expect = probe_rank_degree(Q)
            assert sheaf_rank_degree(Q) == expect, (Q.base, Q.map.to_json())
            cases += 1
            non_injective += expect[0] != len(gens) - len(cols)
    assert 3 * non_injective >= cases


def defect_presentation():
    cols = [
        (-3, [(0, -1, 2), (-2, -2, -4, -4)]),
        (-4, [(-2, 4, -4, 2), (0, -2, -3, 3, 0)]),
        (-5, [(-2, 6, -10, 7, -2), (4, 2, 9, 15, 8, 8)]),
    ]
    return cokernel_presentation(
        (-1, 0), [(t, [Form.make(len(c) - 1, c) for c in cs]) for t, cs in cols]
    )


def test_rank_degree_of_a_sheaf_that_is_torsion_in_every_fiber():
    # zero over Q, torsion of length 6 mod 2 and 1 mod 3, zero mod 5
    P = defect_presentation()
    assert sheaf_rank_degree(P) == (0, 0)
    for p, length in ((2, 6), (3, 1), (5, 0)):
        assert sheaf_rank_degree(reduce_mod(P, p)) == (0, length)


# h^0 of the defect presentation at every twist: zero over Q and mod 5, the
# torsion length 1 mod 3 and 6 mod 2
DEFECT_H0 = {None: 0, 5: 0, 3: 1, 2: 6}


def defect_h0_table(h0):
    P = defect_presentation()
    return {
        p: [h0(P if p is None else reduce_mod(P, p), d) for d in range(-3, 7)]
        for p in DEFECT_H0
    }


def test_oracle_h0_on_a_sheaf_that_is_torsion_in_every_fiber():
    assert defect_h0_table(oracle_h0) == {p: [v] * 10 for p, v in DEFECT_H0.items()}


@pytest.mark.xfail(
    strict=True,
    reason="h0_dim still scans pair spaces to a stopping rule (ROADMAP item 1b)",
)
def test_h0_dim_on_a_sheaf_that_is_torsion_in_every_fiber():
    assert defect_h0_table(h0_dim) == {p: [v] * 10 for p, v in DEFECT_H0.items()}


def substitute(f, k):
    """f(x0 + k*x1, x1): coefficients by decreasing x0-power."""
    d = f.degree
    out = [0] * (d + 1)
    for j, c in enumerate(f.coeffs):
        for i in range(d - j + 1):
            out[j + i] += c * comb(d - j, i) * k**i
    return Form(d, tuple(out))


def substituted_normal_form(n, f, k):
    """The normal-form presentation pulled back along x0 -> x0 + k*x1, an
    automorphism of the line over Z: every splitting type is unchanged."""
    column = [substitute(g, k) for g in (Form.monomial(n, 0), Form.monomial(n, n), f)]
    return cokernel_presentation((0, 0, 0), [(-n, column)])


@pytest.mark.xfail(
    strict=True,
    raises=ProfileInconsistent,
    reason="h0_dim still scans pair spaces to a stopping rule (ROADMAP item 1b)",
)
def test_profile_is_invariant_under_a_substitution():
    forms = [(4, (0, 0, 0, 0, 0)), (5, (4, 4, 1, -5, -2, -5)), (6, (2, 4, 2, 0, -1, -2, -3))]
    for n, c in forms:
        f = Form.make(n, c)
        expect = bundle_handle(substituted_normal_form(n, f, 0)).profile
        assert bundle_handle(substituted_normal_form(n, f, 1)).profile == expect


@pytest.mark.xfail(
    strict=True,
    reason="h0_dim still scans pair spaces to a stopping rule (ROADMAP item 1b)",
)
def test_h0_minus_h1_is_chi_after_a_substitution():
    # coker((x0+x1)^4, x1^4, 0) has type (0, 4): h^0 = 1 and h^1 = 3 at d = -4
    P = substituted_normal_form(4, Form.zero(4), 1)
    r, e = sheaf_rank_degree(P)
    assert (oracle_h0(P, -4), h1(P, -4), r * -3 + e) == (1, 3, -2)
    assert h0_dim(P, -4) - h1(P, -4) == r * -3 + e


def test_h1_on_a_sheaf_that_is_torsion_in_every_fiber():
    # a torsion sheaf has no H^1, over Z and in every fiber
    assert defect_h0_table(h1) == {p: [0] * 10 for p in DEFECT_H0}


def test_h1_of_a_balanced_normal_form_of_degree_12():
    # type (6, 6): h^1 = 2 max(0, -d-7)
    P = normal_form_presentation(12, Form.monomial(12, 6, 6))
    assert [h1(P, d) for d in range(-9, -3)] == [4, 2, 0, 0, 0, 0]


def test_h1_never_reaches_the_pair_engine(monkeypatch):
    nf = normal_form_presentation(3, Form.make(3, (2, -1, 0, 5)))
    B, pt = bundle_handle(nf), prescribed_types(2, [(2, 1), (3, 2)])
    cases = [(nf, B.profile.generic), (pt.presentation, pt.profile.generic),
             (reduce_mod(nf, 3), B.profile.at(3))]

    def refuse(P, d):
        raise AssertionError("pair engine reached")

    monkeypatch.setattr(cohomology, "_section_space_cached", refuse)
    for P, st in cases:
        expect = [max(0, -st.a - d - 1) + max(0, -st.b - d - 1) for d in range(-8, 4)]
        assert [h1(P, d) for d in range(-8, 4)] == expect
        assert expect[0] > 0 and expect[-1] == 0


def differential_column(rng, gens, cols):
    """A scaled copy of the last column, or a column of ``random_column``
    with twists down to four below the lowest generator."""
    if cols and rng.random() < 0.2:
        rt, col = cols[-1]
        return rt, [f.scale(rng.choice((-2, 2, 3))) for f in col]
    return random_column(rng, gens, cols, span=4)


def test_h1_is_oracle_h0_minus_chi():
    # 75 presentations with 1-3 generators and 0-3 relations, each over Z
    # and mod 2, 3 and 5 at two twists: 600 queries
    rng = random.Random(1)
    queries = 0
    for _ in range(75):
        gens = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
        cols = []
        for _ in range(rng.randint(0, 3)):
            cols.append(differential_column(rng, gens, cols))
        P = cokernel_presentation(gens, cols)
        for Q in (P, reduce_mod(P, 2), reduce_mod(P, 3), reduce_mod(P, 5)):
            r, e = sheaf_rank_degree(Q)
            for d in rng.sample(range(-5, 5), 2):
                assert h1(Q, d) == oracle_h0(Q, d) - (r * (d + 1) + e), (Q.map.to_json(), d)
                queries += 1
    assert queries == 600


def test_rank_degree_never_reaches_the_pair_engine(monkeypatch):
    nf = normal_form_presentation(3, Form.make(3, (2, -1, 0, 5)))
    cases = [nf, prescribed_types(2, [(2, 1), (3, 2)]).presentation, reduce_mod(nf, 3)]
    expect = [probe_rank_degree(P) for P in cases]

    def refuse(P, d):
        raise AssertionError("pair engine reached")

    monkeypatch.setattr(cohomology, "_section_space_cached", refuse)
    assert [sheaf_rank_degree(P) for P in cases] == expect
    assert expect[0] == expect[2] == (2, 3)


def _sweep_cases():
    nf = normal_form_presentation(3, Form.make(3, (2, -1, 0, 5)))
    pt = prescribed_types(2, [(2, 1), (3, 2)]).presentation
    for P in (nf, pt):
        for Q in [P] + [reduce_mod(P, p) for p in (2, 3, 5, 7, 11)]:
            yield Q


def test_the_section_memo_keeps_no_pair_space():
    for Q in _sweep_cases():
        for d in range(-8, 9):
            assert h0_dim(Q, d) >= 0
            assert h1(Q, d) >= 0
    gc.collect()
    assert [obj for obj in gc.get_objects() if isinstance(obj, PairSpace)] == []


def test_section_space_reports_the_h0_count_past_the_floor():
    for Q in _sweep_cases():
        for d in range(-4, 5):
            s = section_space(Q, d)
            assert type(s) is SectionCount and s.d == d
            assert s.dim == h0_dim(Q, d)
            assert s.e >= stabilization_floor(Q, d)


def _fp_relation_span_of_stacked_columns(P, d, e):
    """B of the pair space at (d, e) over GF(p) as the package built it
    before: the RREF of every nonzero column of phi1 placed in the u half
    and in the v half, one elimination 2f wide."""
    f = P.generators.piece_dim(d + e)
    phi1 = degree_piece(P.map, d + e)
    bvecs = []
    for j in range(phi1.cols):
        col = phi1.column(j)
        if any(col):
            bvecs += [col + (0,) * f, (0,) * f + col]
    rows, _ = rref_mod(bvecs, 2 * f, P.base.char)
    return FpSpan(2 * f, P.base.char, tuple(rows))


def test_fp_relation_span_is_two_copies_of_the_rref_of_phi1():
    ranks = set()
    for Q in _sweep_cases():
        if Q.base.kind != "GF":
            continue
        for d in range(-5, 3):
            floor = stabilization_floor(Q, d)
            for e in range(floor, floor + 4):
                B = _pair_data(Q, d, e).B
                assert B == _fp_relation_span_of_stacked_columns(Q, d, e)
                ranks.add(B.rank)
    assert len(ranks) > 3


def _pair_space_cases():
    """Normal forms with n <= 4, prescribed-types kernels, and cokernels
    whose columns are torsion, zero or repeated."""
    rng = random.Random(3907)
    for n in range(5):
        yield normal_form_presentation(n, random_form(rng, n))
    yield prescribed_types(2, [(2, 1), (3, 2)]).presentation
    yield prescribed_types(1, [(5, 1)]).presentation
    x0, x1 = Form.monomial(1, 0), Form.monomial(1, 1)
    yield cokernel_presentation(
        (-1, 0),
        [
            (-2, [x0, Form.make(2, (1, 0, -2))]),
            (-2, [x0, Form.make(2, (1, 0, -2))]),
            (-3, [Form.zero(2), Form.zero(3)]),
            (-1, [Form.make(0, (6,)), Form.zero(1)]),
            (-1, [Form.zero(0), x1.scale(3)]),
        ],
    )
    for _ in range(6):
        gens = tuple(rng.randint(-2, 1) for _ in range(rng.randint(1, 3)))
        cols = []
        for _ in range(rng.randint(1, 4)):
            cols.append(random_column(rng, gens, cols))
        yield cokernel_presentation(gens, cols)


def _pair_space_grid():
    """(Q, d, e) over Z and mod 2 and 5, from the floor to three exponents
    past it."""
    for P in _pair_space_cases():
        for Q in (P, reduce_mod(P, 2), reduce_mod(P, 5)):
            for d in range(-3, 3):
                floor = stabilization_floor(Q, d)
                for e in range(floor, floor + 4):
                    yield Q, d, e


def test_pair_spaces_match_the_stacked_oracle():
    # K and B over Z against a stacked IntegerMatrix built apart; over F_p,
    # K's rows independent and spanning the projected kernel of the same
    # stacked matrix mod p; the dimension against Gaussian ranks
    integral = modular = 0
    for Q, d, e in _pair_space_grid():
        space = _pair_data(Q, d, e)
        where = (Q.map.to_json(), Q.base.char, d, e)
        assert space.dim == _oracle_pair_dim(Q, d, e), where
        if Q.base.kind == "ZZ":
            assert (space.K, space.B) == pair_lattices(Q, d, e), where
            integral += space.K.rank > space.B.rank > 0
        else:
            p, K = Q.base.char, space.K
            canon, _ = reference_rref_mod(K.rows, 2 * space.f, p)
            assert canon == pair_kernel_rref_mod(Q, d, e, p), where
            assert len(K.rows) == K.rank == len(canon), where
            modular += K.rank > space.B.rank > 0
    assert integral > 200 and modular > 300


def test_pushed_pairs_lie_in_the_next_pair_space():
    # The rank test of _push_compatible rests on this: (x0 u, x1 v) is a
    # pair at exponent e + 1 for every pair (u, v) at e, so the pushes of K
    # and B span a subspace of the next K, equal to it exactly when the
    # ranks agree over F_p
    last = None
    decisions = set()
    for Q, d, e in _pair_space_grid():
        cur = _pair_data(Q, d, e)
        prev = last[1] if last is not None and last[0] is Q else None
        last = Q, cur
        if prev is None or (prev.d, prev.e + 1) != (d, e):
            continue
        where = (Q.map.to_json(), Q.base.char, d, e)
        pushed = cohomology._push(Q, prev)
        assert len(pushed) == prev.K.rank, where
        f = cur.f
        for v, w in zip(prev.K.vectors(), pushed):
            spliced = pair_times(Q, d, e - 1, 0, v)[:f] + pair_times(Q, d, e - 1, 1, v)[f:]
            assert w == spliced, where
            if Q.base.kind == "ZZ":
                assert lattice_contains(cur.K, w), where
        if Q.base.kind == "GF":
            p = Q.base.char
            K_rref, _ = reference_rref_mod(cur.K.rows, 2 * f, p)
            for w in pushed:
                grown, _ = reference_rref_mod([*K_rref, w], 2 * f, p)
                assert grown == K_rref, where
            span, _ = reference_rref_mod(pushed + cur.B.vectors(), 2 * f, p)
            decision = span == K_rref
            assert cohomology._push_compatible(Q, prev, cur) == decision, where
            decisions.add(decision)
    assert decisions == {True, False}


def test_h1_line_bundles():
    for n in range(-1, 4):
        assert h1(line_bundle(n), 0) == 0
    assert h1(line_bundle(-2), 0) == 1
    for n in (0, 1, 2):
        assert h1(line_bundle(-n - 2), 0) == n + 1


def test_euler_characteristic_constancy():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randint(0, 3)
        f = Form.make(n, [rng.randint(-6, 6) for _ in range(n + 1)])
        P = normal_form_presentation(n, f)
        r, e = sheaf_rank_degree(P)
        for base_p in (None, 2, 5):
            Q = P if base_p is None else reduce_mod(P, base_p)
            rq, eq = sheaf_rank_degree(Q)
            assert (rq, eq) == (r, e)
            for d in range(-3, 3):
                assert h0_dim(Q, d) - h1(Q, d) == r * (d + 1) + e


def test_semicontinuity_mod_p():
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(0, 3)
        f = Form.make(n, [rng.randint(-8, 8) for _ in range(n + 1)])
        P = normal_form_presentation(n, f)
        for p in (2, 3, 5):
            Pp = reduce_mod(P, p)
            for d in range(-3, 3):
                assert h0_dim(Pp, d) >= h0_dim(rationalize(P), d)


def test_rationalize_matches_integral_ranks():
    P = normal_form_presentation(2, Form.make(2, (0, 5, 0)))
    for d in range(-3, 4):
        assert h0_dim(P, d) == h0_dim(rationalize(P), d)


def test_h0_agrees_with_oracle_small_suite():
    rng = random.Random(17)
    for trial in range(12):
        gens = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        P = free_presentation(gens)
        if rng.random() < 0.7:
            # add one random relation column of valid degrees
            rt = min(gens) - rng.randint(0, 2)
            col = [
                Form.make(a - rt, [rng.randint(-4, 4) for _ in range(a - rt + 1)])
                for a in gens
            ]
            P = cokernel_presentation(gens, [(rt, col)])
        for d in range(-3, 4):
            assert h0_dim(P, d) == oracle_h0(P, d), (P, d)
        for p in (2, 5):
            Pp = reduce_mod(P, p)
            for d in range(-2, 3):
                assert h0_dim(Pp, d) == oracle_h0(Pp, d), (P, d, p)


def test_twist_compatibility():
    P = normal_form_presentation(2, Form.make(2, (0, 3, 0)))
    for t in range(-2, 3):
        Q = twist(P, t)
        for d in range(-2, 3):
            assert h0_dim(Q, d) == h0_dim(P, d + t)
