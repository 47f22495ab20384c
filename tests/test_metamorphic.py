"""Metamorphic relations: a transformed input must give a predictable answer.

None of these needs a second engine; each compares the package with itself
on two inputs whose answers are tied by a fact of the geometry (Chen et
al., "Metamorphic testing: a review of challenges and opportunities", ACM
Computing Surveys 51(1), 2018).  The bundles are normal forms
coker(x0^n, x1^n, f) with n <= 5 and small seeded coefficients, so each
relation runs in well under a second.
"""

import random
from itertools import permutations

import pytest

from arithsurf.bundles import SplittingProfile, SplittingType, bundle_handle
from arithsurf.cohomology import h0_dim, h1
from arithsurf.delpezzo import PointConfiguration, ProjectivePoint, classify, general_position
from arithsurf.errors import ArithsurfError
from arithsurf.graded import Form, cokernel_presentation, reduce_mod, twist


def normal_form(n, f):
    return cokernel_presentation((0, 0, 0), [(-n, [Form.monomial(n, 0), Form.monomial(n, n), f])])


def seeded_forms(seed, degrees, count, bound=12):
    rng = random.Random(seed)
    return [
        (n, Form.make(n, [rng.choice([0, rng.randint(-bound, bound)]) for _ in range(n + 1)]))
        for n in degrees
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# twists and pullbacks


@pytest.mark.parametrize("t", [-3, -1, 2])
def test_a_twist_by_O_t_shifts_every_type_by_t(t):
    for n, f in seeded_forms(700 + t, range(1, 6), 2):
        P = normal_form(n, f)
        assert bundle_handle(twist(P, t)).profile == bundle_handle(P).profile.shifted(t), (n, f)


def pullback(f: Form, k: int) -> Form:
    """f(x0^k, x1^k): the coefficient of x0^(d-j) x1^j moves to index k*j."""
    out = [0] * (k * f.degree + 1)
    for j, c in enumerate(f.coeffs):
        out[k * j] = c
    return Form(k * f.degree, tuple(out))


def scaled(profile: SplittingProfile, k: int) -> SplittingProfile:
    def times(st):
        return SplittingType(k * st.a, k * st.b)

    return SplittingProfile(times(profile.generic), tuple((p, times(st)) for p, st in profile.jumps))


@pytest.mark.parametrize("k", [2, 3])
def test_the_pullback_along_x_to_x_power_k_multiplies_every_type_by_k(k):
    # (x0, x1) -> (x0^k, x1^k) is finite and flat over Z, and pulls O(a)
    # back to O(ka) over every field, so each fiber's type scales by k
    for n, f in seeded_forms(710 + k, range(1, 4), 3):
        B = bundle_handle(normal_form(n, f))
        assert bundle_handle(normal_form(k * n, pullback(f, k))).profile == scaled(B.profile, k), (n, f)


# ---------------------------------------------------------------------------
# presentation noise: the sheaf is the same, so is every invariant


def trivial_summand(P, rng):
    """A new generator at twist -1, killed by a column that sends it to 1
    plus random linear forms on the old generators: M is unchanged."""
    old = len(P.map.target.twists)
    columns = [
        (s, [P.map.entries[i][j] for i in range(old)] + [Form.zero(-1 - s)])
        for j, s in enumerate(P.map.source.twists)
    ]
    mix = [Form.make(1, [rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(old)]
    return cokernel_presentation(P.map.target.twists + (-1,), columns + [(-1, mix + [Form.constant(1)])])


def redundant_column(P, rng):
    """A form multiple of the relation column: the image of phi is unchanged."""
    (s,) = P.map.source.twists
    h = Form.make(2, [rng.randint(-3, 3) for _ in range(3)])
    column = [row[0] for row in P.map.entries]
    return cokernel_presentation(P.map.target.twists, [(s, column), (s - 2, [g.mul(h) for g in column])])


def unimodular_change(P, rng):
    """New generators U e_i of the one twist 0, U in SL_3(Z) a product of
    elementary matrices: the rows of phi are replaced by U phi."""
    rows = [list(row) for row in P.map.entries]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a.add(b.scale(c)) for a, b in zip(rows[i], rows[j])]
    columns = [(s, [row[j] for row in rows]) for j, s in enumerate(P.map.source.twists)]
    return cokernel_presentation(P.map.target.twists, columns)


def invariants(P, primes):
    B = bundle_handle(P)
    twists = range(-B.profile.generic.b - 2, 2)
    values = {
        p: [(h0_dim(Q, d), h1(Q, d)) for d in twists]
        for p, Q in [(None, P)] + [(p, reduce_mod(P, p)) for p in primes]
    }
    return B.profile, values


@pytest.mark.parametrize("noise", [trivial_summand, redundant_column, unimodular_change])
def test_presentation_noise_leaves_the_profile_h0_and_h1_unchanged(noise):
    rng = random.Random(720)
    for n, f in seeded_forms(721, range(1, 5), 2):
        P = normal_form(n, f)
        primes = [2, 3] + bundle_handle(P).profile.jump_primes()[:2]
        assert invariants(noise(P, rng), primes) == invariants(P, primes), (noise.__name__, n, f)


# ---------------------------------------------------------------------------
# del Pezzo verdicts under automorphisms of the plane over Z


def verdict(points):
    """The general-position verdict with its witnesses by point set, and the
    classification or the class of the error it raises."""
    c = PointConfiguration.make(points)
    v = general_position(c)
    witnesses = sorted(
        (w.kind, tuple(sorted(str(points[i]) for i in w.indices)), w.primes, w.note) for w in v.witnesses
    )
    try:
        model = classify(c)
        model = (model["model"], model["K2"], tuple(model["standard"]))
    except ArithsurfError as exc:
        model = type(exc).__name__
    return v.ok, witnesses, model


def random_gl3(rng):
    g = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(5):
        i, j = rng.sample(range(3), 2)
        c = rng.choice([-2, -1, 1, 2])
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    for i in range(3):
        if rng.random() < 0.5:
            g[i] = [-a for a in g[i]]
    return g


def moved(points, g):
    return [ProjectivePoint.make(*(sum(r * x for r, x in zip(row, p.coords())) for row in g)) for p in points]


def assert_moved_verdict(points, g, expect):
    """The verdict on the moved points is ``expect`` with every point renamed
    by its image: witnesses name points, which move with g."""
    image = dict(zip(map(str, points), map(str, moved(points, g))))
    ok, witnesses, model = expect
    renamed = sorted((kind, tuple(sorted(image[s] for s in pts)), primes, note) for kind, pts, primes, note in witnesses)
    assert verdict(moved(points, g)) == (ok, renamed, model), (points, g)


def test_del_pezzo_verdicts_are_invariant_under_gl3_signs_and_permutations():
    rng = random.Random(730)
    standard = [ProjectivePoint.parse(s) for s in ["1:0:0", "0:1:0", "0:0:1", "1:1:1"]]
    for _ in range(60):
        r = rng.randint(1, 5)
        points = standard[: rng.randint(0, min(r, 4))]
        points += [ProjectivePoint.make(*(rng.randint(-3, 3) or 1 for _ in range(3))) for _ in range(r - len(points))]
        expect = verdict(points)
        assert_moved_verdict(points, random_gl3(rng), expect)
        signs = [rng.choice([-1, 1]) for _ in range(3)]
        assert_moved_verdict(points, [[s * int(i == j) for j in range(3)] for i, s in enumerate(signs)], expect)
        for order in list(permutations(range(r)))[:6]:
            assert verdict([points[i] for i in order]) == expect
