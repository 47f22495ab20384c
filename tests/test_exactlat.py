import random

import pytest

from arithsurf.errors import CompositeModulus
from arithsurf.exactlat import (
    IntegerMatrix,
    LatticeBasis,
    determinant,
    factorize,
    is_prime,
    kernel_lattice,
    prime_divisors,
    rank_of,
    smith_invariants,
    span_lattice,
)

from oracles import (
    cofactor_det,
    determinantal_invariants,
    gauss_rank,
    lattice_contains,
    oracle_kernel_basis,
    quotient_group_data,
    rank_mod_p,
    rank_over,
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
    S = span_lattice(2, [(1, 0), (0, 1)])
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
    S = span_lattice(n, S_vecs)
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
    regen = span_lattice(n, list(gens) + list(T))
    assert regen == S
    # orders are honest: o*g lies in span(T) iff o is the stated order
    Tspan = span_lattice(n, T)
    for g, o in zip(gens, orders):
        assert not lattice_contains(Tspan, g)
        if o:
            assert lattice_contains(Tspan, tuple(o * c for c in g))


def test_express_and_contains():
    L = span_lattice(3, [(1, 2, 0), (0, 0, 5)])
    assert lattice_contains(L, (2, 4, 5))
    assert not lattice_contains(L, (0, 0, 1))
    assert not lattice_contains(L, (1, 0, 0))


def test_matrix_json_round_trip():
    mat = M([[10**40, -3], [0, 7]])
    again = IntegerMatrix.from_json(mat.to_json())
    assert again == mat
    assert mat.to_json()["entries"][0] == str(10**40)


def test_primality_and_factoring():
    assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**20)
    assert factorize(2**4 * 3 * 49) == {2: 4, 3: 1, 7: 2}
    assert prime_divisors(-30) == [2, 3, 5]
    assert prime_divisors(1) == []
    big = (10**9 + 7) * (10**9 + 9)
    assert prime_divisors(big) == [10**9 + 7, 10**9 + 9]
