import random

import pytest

from arithsurf.cohomology import h0_dim
from arithsurf.errors import CompositeModulus
from arithsurf.exactlat import IntegerMatrix
from arithsurf.graded import (
    GF,
    QQ,
    ZZ,
    Form,
    FreeGraded,
    GradedMap,
    GradedPresentation,
    cokernel_presentation,
    degree_piece,
    form_to_str,
    free_presentation,
    map_from_columns,
    minimize_presentation,
    monomial_basis,
    parse_form,
    reduce_mod,
    twist,
)
from arithsurf.selftest import _oracle_rel_matrix

from oracles import form_gcd_degree_mod


def normal_form_presentation(n, f):
    return cokernel_presentation((0, 0, 0), [(-n, [Form.monomial(n, 0), Form.monomial(n, n), f])])


def test_monomial_basis():
    assert monomial_basis(2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(0) == ((0, 0),)
    assert monomial_basis(-3) == ()
    for d in range(-2, 5):
        assert len(monomial_basis(d)) == max(0, d + 1)


def test_piece_dims_formula():
    F = FreeGraded((0, -2, 3))
    for d in range(-5, 5):
        assert F.piece_dim(d) == sum(max(0, a + d + 1) for a in (0, -2, 3))


def test_degree_piece_mult_by_x0():
    # multiplication by x0 from an O(-1) summand into an O(0) summand at d=1
    phi = map_from_columns((0,), [(-1, [Form.monomial(1, 0)])])
    piece = degree_piece(phi, 1)
    assert piece == IntegerMatrix.from_rows([[1], [0]])


def test_degree_piece_zero_map():
    phi = map_from_columns((0, 0), [(-2, [Form.zero(2), Form.zero(2)])])
    # twist -2 has no sections below degree 2
    assert degree_piece(phi, 0).cols == 0
    piece = degree_piece(phi, 2)
    assert piece.rows == 6 and piece.cols == 1 and piece.is_zero()


def test_degree_piece_column_stacks_coefficients():
    # the column (x0^2, x1^2, 5*x0*x1) from twist -2, expanded in
    # monomial_basis(2) per generator and stacked
    f = Form.make(2, (0, 5, 0))
    phi = normal_form_presentation(2, f).map
    piece = degree_piece(phi, 2)
    assert piece.rows == 9 and piece.cols == 1
    assert piece.column(0) == (1, 0, 0, 0, 0, 1, 0, 5, 0)


def test_degree_piece_cache_is_bounded_and_evictions_recompute():
    phi = normal_form_presentation(3, Form.make(3, (2, -1, 0, 5))).map
    bound = degree_piece.cache_info().maxsize
    assert bound == 64
    twists = range(bound + 16)
    first = [degree_piece(phi, d) for d in twists]
    assert degree_piece.cache_info().currsize <= bound
    for d in twists[:8]:
        assert degree_piece(phi, d) == first[d] == degree_piece.__wrapped__(phi, d)


def _random_entry(rng, degree):
    if degree < 0 or rng.random() < 0.25:
        return Form.zero(degree)
    return Form.make(degree, [rng.choice((0, rng.randint(-9, 9))) for _ in range(degree + 1)])


def _degree_piece_cases():
    """Seeded maps with zero entries, zero columns, no columns at all and
    negative twists, and normal forms of n <= 6 with zero or random f."""
    rng = random.Random(4021)
    for _ in range(40):
        gens = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        cols = []
        for _ in range(rng.randint(0, 3)):
            rt = rng.randint(min(gens) - 3, max(gens) + 1)
            cols.append((rt, [_random_entry(rng, a - rt) for a in gens]))
        yield cokernel_presentation(gens, cols)
    for n in range(7):
        yield normal_form_presentation(n, Form.zero(n))
        yield normal_form_presentation(n, _random_entry(rng, n))


def test_degree_piece_matches_the_entry_by_entry_oracle():
    shapes = set()
    for P in _degree_piece_cases():
        for d in range(-8, 9):
            piece = degree_piece.__wrapped__(P.map, d)
            oracle = _oracle_rel_matrix(P, d)
            assert piece.rows == len(oracle) and piece.cols == P.relations.piece_dim(d)
            assert piece.rows_list() == oracle, (P.map.to_json(), d)
            shapes.add((piece.rows > 0, piece.cols > 0, piece.is_zero()))
    # empty pieces of either side, zero blocks and nonzero ones all occur
    assert shapes == {(False, False, True), (False, True, True), (True, False, True), (True, True, True), (True, True, False)}


def test_degree_piece_composition():
    # multiplication maps compose: x1 then x0 equals x0*x1 in one step
    a = map_from_columns((0,), [(-1, [Form.monomial(1, 1)])])  # x1: O(-1)->O
    b = map_from_columns((-1,), [(-2, [Form.monomial(1, 0)])])  # x0: O(-2)->O(-1)
    ab = map_from_columns((0,), [(-2, [Form.monomial(2, 1)])])  # x0*x1
    for d in range(0, 4):
        lhs = degree_piece(a, d).mul(degree_piece(b, d))
        assert lhs == degree_piece(ab, d)


def test_reduce_mod_kills_divisible_coefficients():
    P = normal_form_presentation(2, Form.make(2, (0, 5, 0)))
    P5 = reduce_mod(P, 5)
    assert P5.base == GF(5)
    assert P5.map.entries[2][0].is_zero()
    P3 = reduce_mod(P, 3)
    assert P3.map.entries[2][0].coeffs == (0, 2, 0)


def test_reduce_mod_commutes_with_degree_piece():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(0, 3)
        f = Form.make(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        P = normal_form_presentation(n, f)
        for p in (2, 3, 7):
            Pp = reduce_mod(P, p)
            for d in range(-1, 4):
                lhs = degree_piece(Pp.map, d)
                rhs = degree_piece(P.map, d)
                assert lhs.entries == tuple(c % p for c in rhs.entries)


def test_reduce_mod_composite_rejected():
    P = free_presentation((0, 0))
    with pytest.raises(CompositeModulus):
        reduce_mod(P, 6)


def test_twist_shifts_and_is_identity_at_zero():
    P = normal_form_presentation(1, Form.zero(1))
    assert twist(P, 0) == P
    Q = twist(P, 3)
    assert Q.map.target.twists == (3, 3, 3)
    assert Q.map.source.twists == (2,)
    # entries unchanged
    assert Q.map.entries == P.map.entries


def test_twist_of_split():
    P = free_presentation((0, -4))
    Q = twist(P, 4)
    assert Q.map.target.twists == (4, 0)


def test_map_degree_validation():
    with pytest.raises(ValueError):
        GradedMap(FreeGraded((-1,)), FreeGraded((0,)), ((Form.zero(2),),))


def test_gf_requires_prime():
    with pytest.raises(CompositeModulus):
        GF(9)


def test_presentation_base_consistency():
    f = Form.make(1, (5, 0))
    phi = map_from_columns((0,), [(-1, [f])])
    with pytest.raises(ValueError):
        GradedPresentation(GF(3), phi)


def test_form_render_and_parse_round_trip():
    cases = [
        Form.make(2, (3, -1, 0)),
        Form.make(1, (0, 1)),
        Form.zero(3),
        Form.constant(-7),
        Form.make(4, (1, 0, -12, 0, 1)),
    ]
    for f in cases:
        s = form_to_str(f)
        g = parse_form(s, degree=f.degree)
        assert g == f, (s, f)


def test_form_parse_examples():
    assert parse_form("5*x0*x1") == Form.make(2, (0, 5, 0))
    assert parse_form("x0^2 - x1^2") == Form.make(2, (1, 0, -1))
    assert parse_form("0", degree=2) == Form.zero(2)
    with pytest.raises(ValueError):
        parse_form("x0 + x1^2")


def test_form_gcd_mod_p():
    g = Form.monomial(2, 0)  # x0^2
    h = Form.monomial(3, 3)  # x1^3
    assert form_gcd_degree_mod(g, h, 5) == 0
    shared = Form.monomial(1, 0)  # x0
    assert form_gcd_degree_mod(shared.mul(g), shared.mul(h), 5) > 0
    # common factor appearing only mod p: (x0 + x1)(x0 - x1) vs (x0 + x1)^2 mod 2
    a = Form.make(2, (1, 0, -1))
    b = Form.make(2, (1, 2, 1))
    assert form_gcd_degree_mod(a, b, 2) == 2
    assert form_gcd_degree_mod(a, b, 5) == 1
    assert form_gcd_degree_mod(Form.zero(2), Form.monomial(1, 0), 3) == 1
    assert form_gcd_degree_mod(Form.zero(1), Form.zero(2), 3) == -1


def test_presentation_json_round_trip():
    P = normal_form_presentation(2, Form.make(2, (0, 6, 0)))
    again = GradedPresentation.from_json(P.to_json())
    assert again == P
    P5 = reduce_mod(P, 5)
    assert GradedPresentation.from_json(P5.to_json()) == P5


def test_minimize_drops_the_generator_of_a_unit_relation():
    # relation A = -e1 + 2 e2 (twist 0) makes e1 redundant
    P = cokernel_presentation(
        (0, 0, 0, -1),
        [
            (0, [Form.zero(0), Form.constant(-1), Form.constant(2), Form.zero(-1)]),
            (-2, [Form.monomial(2, 0), Form.monomial(2, 2), Form.monomial(2, 1), Form.make(1, (1, 1))]),
        ],
    )
    Q, keep = minimize_presentation(P)
    assert keep == (0, 2, 3)
    assert Q.generators.twists == (0, 0, -1)
    assert Q.relations.twists == (-2,)
    for R, S in [(P, Q)] + [(reduce_mod(P, p), reduce_mod(Q, p)) for p in (2, 3, 5)]:
        for d in range(-3, 4):
            assert h0_dim(R, d) == h0_dim(S, d), (R.base, d)

