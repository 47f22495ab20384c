import random
from itertools import combinations

import pytest

from arithsurf.delpezzo import (
    E1,
    E2,
    E3,
    TORUS_POINT,
    LatticeClass,
    PointConfiguration,
    ProjectivePoint,
    classify,
    general_position,
    minus_one_classes,
    no_three_collinear_everywhere,
    pairwise_distinct_everywhere,
    standardize,
)
from arithsurf.errors import NotGeneralPosition, TooManyPoints
from arithsurf.exactlat import IntegerMatrix, determinant

from oracles import cofactor_det


def config(*pts):
    return PointConfiguration.make(list(pts))


def test_point_canonicalization():
    assert ProjectivePoint.make(2, 4, 6) == ProjectivePoint(1, 2, 3)
    assert ProjectivePoint.make(-1, 2, 0) == ProjectivePoint(1, -2, 0)
    assert ProjectivePoint.parse("0:-5:10") == ProjectivePoint(0, 1, -2)
    with pytest.raises(ValueError):
        ProjectivePoint.make(0, 0, 0)


def test_pairwise_witness_at_5():
    # blow-up of [0:0:1] and the strict transform of [p:0:1] with p = 5
    v = pairwise_distinct_everywhere(config("0:0:1", "5:0:1"))
    assert not v.ok
    w = v.witnesses[0]
    assert w.primes == (5,)
    # oracle: the minors of the stacked 2x3 matrix have gcd 5
    minors = [
        cofactor_det([[0, 1], [0, 1]]),
        cofactor_det([[0, 1], [5, 1]]),
        cofactor_det([[0, 0], [5, 0]]),
    ]
    from math import gcd

    g = 0
    for m in minors:
        g = gcd(g, m)
    assert abs(g) == 5


def test_pairwise_basis_points_pass():
    assert pairwise_distinct_everywhere(config("1:0:0", "0:1:0")).ok


def test_pair_identical_degenerate():
    v = pairwise_distinct_everywhere(config("1:2:3", "1:2:3"))
    assert not v.ok and v.witnesses[0].note == "identical"


def test_collinear_triple_witnesses():
    v = no_three_collinear_everywhere(config("0:0:1", "5:0:1", "0:1:0"))
    assert not v.ok and v.witnesses[0].primes == (5,)
    assert no_three_collinear_everywhere(config(E1, E2, E3)).ok
    v = no_three_collinear_everywhere(config("1:0:0", "0:1:0", "1:1:0"))
    assert not v.ok and v.witnesses[0].note == "collinear"


def test_six_to_eight_points_fail_on_pairs_or_triples():
    # PG(2, 2) has no arc of five points, so the pair and triple checks
    # refuse every configuration of six or more points on their own
    rng = random.Random(77)
    for _ in range(200):
        r = rng.randint(6, 8)
        pts = []
        while len(pts) < r:
            xyz = [rng.randint(-9, 9) for _ in range(3)]
            if any(xyz):
                pts.append(ProjectivePoint.make(*xyz))
        v = general_position(PointConfiguration.make(pts))
        assert not v.ok and v.witnesses
        assert {w.kind for w in v.witnesses} <= {"pair", "triple"}


def test_general_position_standard_four():
    assert general_position(config(E1, E2, E3, TORUS_POINT)).ok


def test_general_position_det2_failure():
    v = general_position(config(E1, E2, E3, "2:3:5"))
    assert not v.ok
    # the triple {e2, e3, [2:3:5]} has determinant 2
    det2 = [w for w in v.witnesses if w.indices == (1, 2, 3)]
    assert det2 and det2[0].primes == (2,)


def test_general_position_torus_mod2_collision():
    v = general_position(config(E1, E2, E3, "1:1:1", "1:-1:1"))
    assert not v.ok
    w = v.witnesses[0]
    assert w.kind == "pair" and w.primes == (2,)


def test_standardize_identity_case():
    std = standardize(config(E1, E2, E3, TORUS_POINT))
    assert std.standard.to_json() == ["1:0:0", "0:1:0", "0:0:1", "1:1:1"]
    assert std.transform == IntegerMatrix.identity(3)


def test_standardize_nontrivial_four():
    c = config("1:0:0", "1:1:0", "1:1:1", "1:-1:1")
    v = general_position(c)
    if v.ok:
        std = standardize(c)
        assert std.standard.to_json()[:3] == ["1:0:0", "0:1:0", "0:0:1"]
        assert std.standard.to_json()[3] == "1:1:1"
    else:
        assert v.witnesses


def _random_gl3(rng):
    """A product of elementary matrices and sign changes: an element of GL_3(Z)."""
    U = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        if rng.random() < 0.3:
            U[i] = [-a for a in U[i]]
    return U


def test_standardize_idempotent_and_randomized_torus():
    # GL_3(Z) images of the first r standard points, r = 0..4
    rng = random.Random(101)
    frame = [E1, E2, E3, TORUS_POINT]
    for r in range(5):
        for _ in range(40):
            U = IntegerMatrix.from_rows(_random_gl3(rng))
            c = PointConfiguration.make([U.mul_vec(s.coords()) for s in frame[:r]])
            std = standardize(c)
            assert abs(determinant(std.transform)) == 1
            for p, s in zip(c.points, frame):
                image = std.transform.mul_vec(p.coords())
                assert image in (s.coords(), tuple(-x for x in s.coords()))
            assert std.standard.points == tuple(frame[:r])
            again = standardize(std.standard)
            assert again.standard == std.standard
            assert again.transform == IntegerMatrix.identity(3)
    found = 0
    for _ in range(200):
        pts = [E1, E2, E3]
        cand = ProjectivePoint.make(
            rng.choice([-1, 1]), rng.choice([-1, 1]), rng.choice([-1, 1])
        )
        c = PointConfiguration.make(pts + [cand])
        if not general_position(c).ok:
            continue
        found += 1
        std = standardize(c)
        # fourth point always lands on [1:1:1]; restandardizing is stable
        assert std.standard.to_json()[3] == "1:1:1"
        again = standardize(std.standard)
        assert again.standard == std.standard
    assert found > 0


def test_five_points_rejected_with_mod2_witness():
    c = config(E1, E2, E3, "1:1:1", "3:5:7")
    with pytest.raises(TooManyPoints) as exc:
        standardize(c)
    w = exc.value.witness
    assert w is not None
    assert w.primes in ((), (2,))


def test_classify():
    assert classify(config())["K2"] == 9
    assert classify(config(E1, E2))["K2"] == 7
    out = classify(config(E1, E2, E3, TORUS_POINT))
    assert out == {
        "model": "blowup_P2_4pts",
        "K2": 5,
        "points": 4,
        "standard": ["1:0:0", "0:1:0", "0:0:1", "1:1:1"],
    }


def test_classify_rejects_bad_input():
    with pytest.raises(NotGeneralPosition):
        classify(config(E1, E2, E3, "2:3:5"))


def test_minus_one_class_counts():
    # oracle: brute force over |d| <= 3, |m_i| <= 2
    def oracle(r):
        found = []
        from itertools import product

        for d in range(-3, 4):
            for ms in product(range(-2, 3), repeat=r):
                if d * d - sum(m * m for m in ms) == -1 and -3 * d + sum(ms) == -1:
                    found.append((d, ms))
        return found

    for r, expect in ((1, 1), (2, 3), (3, 6), (4, 10)):
        classes = minus_one_classes(r)
        assert len(classes) == expect
        assert len(oracle(r)) == expect
        for cls in classes:
            assert cls.self_intersection() == -1
            assert cls.k_pairing() == -1


def test_minus_one_classes_known_larger_counts():
    assert len(minus_one_classes(5)) == 16
    assert len(minus_one_classes(6)) == 27
    assert len(minus_one_classes(7)) == 56
    assert len(minus_one_classes(8)) == 240


def test_exceptional_class_for_r1():
    # with classes written d*L - sum(m_i E_i), the exceptional class E_1 is (0; -1)
    (cls,) = minus_one_classes(1)
    assert cls == LatticeClass(0, (-1,))
