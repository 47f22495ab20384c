import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsurf.errors import CompositeModulus
from arithsurf.exactlat import (
    IntegerMatrix,
    LatticeBasis,
    _echelon,
    _reduce_above,
    determinant,
    factorize,
    is_prime,
    kernel_lattice,
    kernel_mod,
    prime_divisors,
    rank_of,
    rref_mod,
    smith_invariants,
)

from oracles import (
    _smith_left_inverse,
    cofactor_det,
    determinantal_invariants,
    gauss_rank,
    lattice_contains,
    oracle_kernel_basis,
    quotient_group_data,
    rank_mod_p,
    rank_over,
    reference_echelon,
    reference_reduce_above,
    reference_rref_mod,
)


def M(rows):
    return IntegerMatrix.from_rows(rows)


def test_kernel_forced_rank_one():
    # 2*2 + 4*(-1) = 0 and the rank is forced
    k = kernel_lattice(M([[2, 4]]))
    assert k.rank == 1
    assert k.vectors() == [(2, -1)]


def test_kernel_of_identity_is_empty():
    k = kernel_lattice(IntegerMatrix.identity(2))
    assert k.rank == 0


def test_kernel_6_10_15_matches_saturated_oracle():
    mat = M([[6, 10, 15]])
    k = kernel_lattice(mat)
    oracle = oracle_kernel_basis([[6, 10, 15]], 3)
    assert k.rank == 2 == len(oracle)
    # same lattice: mutual membership
    for v in oracle:
        assert lattice_contains(k, v)
    sat_oracle = LatticeBasis.from_vectors(3, oracle)
    for v in k.vectors():
        assert lattice_contains(sat_oracle, v)


@pytest.mark.parametrize("seed", range(25))
def test_kernel_matches_oracle_randomized(seed):
    rng = random.Random(seed)
    r, c = rng.randint(1, 4), rng.randint(1, 5)
    rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
    k = kernel_lattice(M(rows))
    oracle = oracle_kernel_basis(rows, c)
    assert k.rank == len(oracle)
    for v in oracle:
        assert lattice_contains(k, v)
    if oracle:
        sat = LatticeBasis.from_vectors(c, oracle)
        for v in k.vectors():
            assert lattice_contains(sat, v)


def test_kernel_saturated_by_snf_of_stack():
    # quotient of the kernel by the returned basis must be trivial
    mat = M([[6, 10, 15], [2, 0, 4]])
    k = kernel_lattice(mat)
    stacked = IntegerMatrix.from_rows([list(v) for v in k.vectors()])
    invs = smith_invariants(stacked)
    assert all(d == 1 for d in invs)


def test_canonical_form_determinism():
    vs1 = [(2, 0, 4), (0, 6, 2)]
    vs2 = [(2, 6, 6), (2, 0, 4), (4, 0, 8)]
    l1 = LatticeBasis.from_vectors(3, vs1)
    l2 = LatticeBasis.from_vectors(3, vs2)
    assert l1 == l2


def test_smith_examples():
    assert smith_invariants(M([[2, 0], [0, 3]])) == (1, 6)
    assert smith_invariants(M([[2, 0], [0, 2]])) == (2, 2)
    assert smith_invariants(M([[1, 2], [3, 4]])) == (1, 2)


@pytest.mark.parametrize("seed", range(15))
def test_smith_randomized_invariants(seed):
    rng = random.Random(100 + seed)
    r, c = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
    invs = smith_invariants(M(rows))
    assert len(invs) == gauss_rank(rows)
    for d, e in zip(invs, invs[1:]):
        assert e % d == 0
    # product of invariants = gcd of maximal-rank minors, checked via ranks:
    # a prime divides some invariant iff the rank drops mod that prime
    prod = 1
    for d in invs:
        prod *= d
    for p in (2, 3, 5, 7, 11, 13):
        drop = rank_mod_p(rows, p) < len(invs)
        assert drop == (prod % p == 0)


@pytest.mark.parametrize("seed", range(60))
def test_smith_matches_determinantal_divisors(seed):
    rng = random.Random(900 + seed)
    r, c = rng.randint(1, 5), rng.randint(1, 8)
    rows = [[rng.choice((0, rng.randint(-12, 12))) for _ in range(c)] for _ in range(r)]
    if seed % 3 == 1:
        rows[rng.randrange(r)] = [0] * c
    elif seed % 3 == 2:
        j = rng.randrange(c)
        for row in rows:
            row[j] = 0
    assert smith_invariants(M(rows)) == determinantal_invariants(rows)


def test_smith_wide_sparse_matrix_stays_small():
    # a 14 x 63 matrix like the degree pieces of Fitting minors; run on the
    # raw matrix, the pivot loop blows its coefficients up and takes seconds
    # to minutes on matrices of this kind
    rng = random.Random(1)
    rows = [[rng.randint(-60, 60) if rng.random() < 0.15 else 0 for _ in range(63)] for _ in range(14)]
    rows[0] = [6 * x for x in rows[0]]
    rows[5] = [10 * x for x in rows[5]]
    A = M(rows)
    hnf = LatticeBasis.from_vectors(14, A.columns_list())
    assert hnf.rank == 14
    det = 1
    for j, col in enumerate(hnf.vectors()):
        det *= col[j]
    invs = smith_invariants(A)
    assert len(invs) == 14
    prod = 1
    for d in invs:
        prod *= d
    assert prod == det > 1


def test_rank_over_examples():
    assert rank_over(M([[2, 4], [1, 2]]), 2) == 1
    assert rank_over(M([[2, 0], [0, 3]]), 3) == 1
    mat = M([[1, 2], [3, 4]])
    assert rank_over(mat, "QQ") == 2
    # p dividing no invariant factor leaves the rank unchanged
    assert rank_over(mat, 5) == 2


def test_rank_semicontinuity_randomized():
    rng = random.Random(7)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        mat = M(rows)
        rk = rank_of(mat)
        invs = smith_invariants(mat)
        prod = 1
        for d in invs:
            prod *= d
        for p in (2, 3, 5, 7):
            assert rank_over(mat, p) <= rk
            assert (rank_over(mat, p) == rk) == (prod % p != 0)


def test_composite_modulus_rejected():
    with pytest.raises(CompositeModulus):
        rank_over(M([[1]]), 6)


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert determinant(M(rows)) == cofactor_det(rows)


def test_quotient_group_data():
    S = LatticeBasis.from_vectors(2, [(1, 0), (0, 1)])
    # Z/2 + Z/3 is cyclic of order 6 in invariant-factor form
    gens, orders = quotient_group_data(S, [(2, 0), (0, 3)])
    assert orders == [6]
    assert len(gens) == 1
    # mixed torsion and free part
    gens, orders = quotient_group_data(S, [(5, 0)])
    assert sorted(orders) == [0, 5]
    # trivial quotient
    gens, orders = quotient_group_data(S, [(1, 0), (0, 1)])
    assert orders == []


@pytest.mark.parametrize("seed", range(20))
def test_quotient_group_data_randomized(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(2, 5)
    S_vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(2, n))]
    S = LatticeBasis.from_vectors(n, S_vecs)
    if S.rank == 0:
        return
    # T: random combinations of S with random integer scalings
    T = []
    for _ in range(rng.randint(1, 3)):
        vec = [0] * n
        for b in S.vectors():
            c = rng.randint(-3, 3) * rng.choice([1, 2, 3])
            for t in range(n):
                vec[t] += c * b[t]
        T.append(tuple(vec))
    gens, orders = quotient_group_data(S, T)
    # generators together with T regenerate S
    regen = LatticeBasis.from_vectors(n, list(gens) + list(T))
    assert regen == S
    # orders are honest: o*g lies in span(T) iff o is the stated order
    Tspan = LatticeBasis.from_vectors(n, T)
    for g, o in zip(gens, orders):
        assert not lattice_contains(Tspan, g)
        if o:
            assert lattice_contains(Tspan, tuple(o * c for c in g))


@pytest.mark.parametrize("seed", range(12))
def test_smith_left_inverse_diagonalizes_with_a_unimodular_inverse(seed):
    # k != l, zero rows and columns, and rank below min(k, l)
    rng = random.Random(900 + seed)
    k, l = rng.choice([(k, l) for k in range(1, 6) for l in range(1, 6) if k != l])
    X = [[rng.randint(-6, 6) for _ in range(l)] for _ in range(k)]
    if seed % 3 == 0:
        X[rng.randrange(k)] = [0] * l
    if seed % 3 == 1:
        zero = rng.randrange(l)
        for row in X:
            row[zero] = 0
    if seed % 2 and k > 1:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        X[-1] = [a * x + b * y for x, y in zip(X[0], X[k // 2])]
    diag, uinv = _smith_left_inverse(X, k, l)
    nonzero = [d for d in diag if d]
    assert len(diag) == k and len(nonzero) == gauss_rank(X)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert abs(cofactor_det(uinv)) == 1
    # X = U^{-1} D V^{-1} with V unimodular: the columns of U^{-1} D span
    # the column lattice of X
    columns = [tuple(d * row[i] for row in uinv) for i, d in enumerate(diag)]
    assert LatticeBasis.from_vectors(k, columns) == LatticeBasis.from_vectors(k, list(zip(*X)))


def test_express_and_contains():
    L = LatticeBasis.from_vectors(3, [(1, 2, 0), (0, 0, 5)])
    assert lattice_contains(L, (2, 4, 5))
    assert not lattice_contains(L, (0, 0, 1))
    assert not lattice_contains(L, (1, 0, 0))


def test_matrix_json_round_trip():
    mat = M([[10**40, -3], [0, 7]])
    assert mat.to_json() == {"rows": 2, "cols": 2, "entries": [str(10**40), "-3", "0", "7"]}


def test_primality_and_factoring():
    assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**20)
    assert factorize(2**4 * 3 * 49) == {2: 4, 3: 1, 7: 2}
    assert prime_divisors(-30) == [2, 3, 5]
    assert prime_divisors(1) == []
    big = (10**9 + 7) * (10**9 + 9)
    assert prime_divisors(big) == [10**9 + 7, 10**9 + 9]


# ---------------------------------------------------------------------------
# the elimination kernels touch only the live tail of each row; they must
# give exactly what the full-row references in oracles give

PRIMES = (2, 3, 5, 397, 65521, 2**61 - 1)
ENTRY = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))


@st.composite
def int_rows(draw):
    """(rows, ncols): up to 14 x 16, any density, small, huge and negative
    entries, sometimes with a zero row or a duplicated row."""
    m, n = draw(st.integers(0, 14)), draw(st.integers(0, 16))
    density = draw(st.sampled_from((0, 10, 35, 70, 100)))
    rows = [[draw(ENTRY) if draw(st.integers(0, 99)) < density else 0 for _ in range(n)] for _ in range(m)]
    if m:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(("plain", "zero", "duplicate")))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "duplicate":
            rows[i] = list(rows[j])
    return rows, n


def _copy(rows):
    return [list(r) for r in rows]


KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@KERNEL_SETTINGS
@given(int_rows(), st.sampled_from(PRIMES))
def test_rref_mod_matches_full_row_reference(data, p):
    rows, n = data
    assert rref_mod(_copy(rows), n, p) == reference_rref_mod(_copy(rows), n, p)


@KERNEL_SETTINGS
@given(int_rows(), st.booleans())
def test_echelon_and_reduce_above_match_full_row_reference(data, transform):
    rows, n = data
    ours, ref = _echelon(_copy(rows), n, transform), reference_echelon(_copy(rows), n, transform)
    assert ours == ref
    assert _reduce_above(*ours) == reference_reduce_above(*ref)
    assert ours[2] == ref[2]


@KERNEL_SETTINGS
@given(int_rows(), st.sampled_from(PRIMES))
def test_rref_mod_shape_rank_and_kernel(data, p):
    rows, n = data
    ech, piv_cols = rref_mod(_copy(rows), n, p)
    assert len(ech) == len(piv_cols) == rank_mod_p(rows, p)
    assert piv_cols == sorted(set(piv_cols))
    for r, (row, c) in enumerate(zip(ech, piv_cols)):
        assert all(0 <= x < p for x in row)
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for k, other in enumerate(ech) if k != r)
    M = IntegerMatrix.from_rows(rows, cols=n)
    kernel = kernel_mod(M, p)
    assert len(kernel) == n - len(ech)
    for v in kernel:
        assert all(x % p == 0 for x in M.mul_vec(v))
    # the basis vectors are independent: each has a 1 at its own free column
    free = [c for c in range(n) if c not in piv_cols]
    assert [[v[c] for c in free] for v in kernel] == [[int(c == f) for c in free] for f in free]


@KERNEL_SETTINGS
@given(int_rows())
def test_echelon_transform_maps_original_to_result(data):
    rows, n = data
    ech, pivots, trans = _echelon(_copy(rows), n, transform=True)
    original = IntegerMatrix.from_rows(rows, cols=n)
    T = IntegerMatrix.from_rows(trans, cols=len(rows))
    assert T.mul(original) == IntegerMatrix.from_rows(ech, cols=n)
    assert abs(determinant(T)) == 1
    assert len(pivots) == gauss_rank(rows)
    _reduce_above(ech, pivots, trans)
    assert IntegerMatrix.from_rows(trans, cols=len(rows)).mul(original) == IntegerMatrix.from_rows(ech, cols=n)
    for r, c in pivots:
        assert ech[r][c] > 0 and not any(ech[r][:c])
        assert all(0 <= ech[i][c] < ech[r][c] for i in range(r))
