"""Census of Hirzebruch normal forms against a Toeplitz oracle.

For the bundle E = coker(x0^n, x1^n, f) with f = sum c_j x0^(n-j) x1^j, a
section of E^v(t), t < n, is fixed by its third coordinate, and it exists
exactly when T_t gamma = 0 for the Toeplitz matrix T_t = (c_(k-j)) with rows
k = t+1..n-1 and columns j = 0..t (Heinig and Rost, Algebraic Methods for
Toeplitz-like Matrices and Operators, 1984).  So the generic type is (a, n-a)
with a the least t where T_t has a kernel over Q, and the number c_p of
invariants of T_(a-1) divisible by p is the drop of a at p: the type there
is (a - c_p, n - a + c_p).  The oracle below uses nothing of the package but
``gauss_rank`` and ``determinantal_invariants``.
"""

import random
from itertools import product

from arithsurf.graded import Form
from arithsurf.hirzebruch import NormalForm, degree_profile

from oracles import determinantal_invariants, gauss_rank


def toeplitz(c, n, t):
    return [[c[k - j] for j in range(t + 1)] for k in range(t + 1, n)]


def toeplitz_profile(n, c):
    """(generic type, largest invariant, invariants) of the normal form."""
    a = next(t for t in range(n + 1) if gauss_rank(toeplitz(c, n, t)) < t + 1)
    invariants = determinantal_invariants(toeplitz(c, n, a - 1)) if a else ()
    assert len(invariants) == a
    return (a, n - a), invariants


def check_against_oracle(n, c):
    prof = degree_profile(NormalForm(n, Form.make(n, c)))
    (a, b), invariants = toeplitz_profile(n, c)
    assert prof.generic.to_json() == [a, b], (n, c)
    # the jump primes divide the largest invariant and nothing else does
    rest = abs(invariants[-1]) if invariants else 1
    for p, st in prof.jumps:
        cp = sum(1 for x in invariants if x % p == 0)
        assert cp > 0 and st.to_json() == [a - cp, b + cp], (n, c, p)
        while rest % p == 0:
            rest //= p
    assert rest == 1, (n, c, rest)
    return len(prof.jumps)


BOXES = ((4, 2), (5, 1), (6, 1))


def test_every_middle_coefficient_vector_in_three_boxes():
    forms = with_jumps = 0
    for n, bound in BOXES:
        for middle in product(range(-bound, bound + 1), repeat=n - 1):
            with_jumps += check_against_oracle(n, (0,) + middle + (0,)) > 0
            forms += 1
    assert forms == 449
    assert with_jumps > 100


def test_random_forms_with_large_coefficients():
    rng = random.Random(1313)
    for _ in range(40):
        n = rng.randint(1, 9)
        c = [rng.randint(-1000, 1000) for _ in range(n + 1)]
        c[0] = c[0] or 1
        c[n] = c[n] or -1
        check_against_oracle(n, tuple(c))


def test_two_pinned_forms():
    for c, generic, jumps in (
        ((0, 1, 0, -5, 0), [2, 2], {"5": [1, 3]}),
        ((0, 2, 2, 2, 0), [1, 3], {"2": [0, 4]}),
    ):
        prof = degree_profile(NormalForm(4, Form.make(4, c)))
        assert prof.to_json() == {"generic": generic, "jumps": jumps}
        check_against_oracle(4, c)
