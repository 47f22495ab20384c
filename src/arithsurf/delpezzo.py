"""Integer point configurations in the projective plane over Z.

P^2(Z) is the set of primitive integer triples up to sign.  A configuration
is in general position over Z when its reduction is in classical general
position modulo every prime; algebraically that is a unit-gcd / unit-
determinant condition on minors, checked here without enumerating primes:

* pairs: the gcd of the three 2x2 minors is 1,
* triples: the 3x3 determinant is a unit.

No conic condition on six points is needed, since six points never get past
these two checks (see below).

Failing verdicts always carry a concrete witness (the offending subset plus
the prime divisors involved).  Configurations of up to four points in
general position standardize to subsets of {e1, e2, e3, [1:1:1]} by a
GL_3(Z) change of coordinates, giving the del Pezzo classification with
K^2 = 9 - r; five points can never be in general position (any five points
of the Fano plane contain a repeated point or a collinear triple mod 2).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt

from .errors import NotGeneralPosition, TooManyPoints, frozen
from .exactlat import IntegerMatrix, _echelon, _reduce_above, determinant, prime_divisors

MAX_POINTS = 8


@frozen
class ProjectivePoint:
    """Primitive integer triple, sign-canonicalized (first nonzero > 0)."""

    x: int
    y: int
    z: int

    @staticmethod
    def make(x: int, y: int, z: int) -> "ProjectivePoint":
        g = gcd(gcd(abs(x), abs(y)), abs(z))
        if g == 0:
            raise ValueError("(0, 0, 0) is not a projective point")
        x, y, z = x // g, y // g, z // g
        for c in (x, y, z):
            if c != 0:
                if c < 0:
                    x, y, z = -x, -y, -z
                break
        return ProjectivePoint(x, y, z)

    @staticmethod
    def parse(text: str) -> "ProjectivePoint":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'a:b:c', got {text!r}")
        return ProjectivePoint.make(*(int(p) for p in parts))

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self):
        return f"{self.x}:{self.y}:{self.z}"


E1 = ProjectivePoint(1, 0, 0)
E2 = ProjectivePoint(0, 1, 0)
E3 = ProjectivePoint(0, 0, 1)
TORUS_POINT = ProjectivePoint(1, 1, 1)


@frozen
class PointConfiguration:
    """Ordered tuple of at most eight projective points."""

    points: tuple[ProjectivePoint, ...]

    def __post_init__(self):
        if len(self.points) > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} points are supported")

    @staticmethod
    def make(points) -> "PointConfiguration":
        out = []
        for p in points:
            if isinstance(p, str):
                out.append(ProjectivePoint.parse(p))
            elif isinstance(p, ProjectivePoint):
                out.append(p)
            else:
                out.append(ProjectivePoint.make(*p))
        return PointConfiguration(tuple(out))

    @staticmethod
    def parse(text: str) -> "PointConfiguration":
        items = [chunk for chunk in text.split(",") if chunk.strip()]
        return PointConfiguration.make(items)

    def __len__(self):
        return len(self.points)

    def to_json(self) -> list[str]:
        return [str(p) for p in self.points]


@frozen
class Witness:
    """A failing subset with the primes at which it degenerates.

    ``primes`` is empty when the failure is generic (determinant zero or a
    repeated point), in which case ``note`` says so.
    """

    kind: str  # "pair" | "triple"
    indices: tuple[int, ...]
    primes: tuple[int, ...]
    note: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "primes": [str(p) for p in self.primes],
            "note": self.note,
        }


@frozen
class Verdict:
    ok: bool
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "witnesses": [w.to_json() for w in self.witnesses]}


def _pair_minor_gcd(p: ProjectivePoint, q: ProjectivePoint) -> int:
    a, b, c = p.coords()
    d, e, f = q.coords()
    m1 = b * f - c * e
    m2 = a * f - c * d
    m3 = a * e - b * d
    return gcd(gcd(abs(m1), abs(m2)), abs(m3))


def _pair_witness(c: PointConfiguration, i: int, j: int) -> Witness | None:
    g = _pair_minor_gcd(c.points[i], c.points[j])
    if g == 1:
        return None
    if g == 0:
        return Witness("pair", (i, j), (), "identical")
    return Witness("pair", (i, j), tuple(prime_divisors(g)), "collide mod p")


def pairwise_distinct_everywhere(c: PointConfiguration) -> Verdict:
    """Points must stay distinct modulo every prime: unit pair-minor gcds."""
    witnesses = []
    for i, j in combinations(range(len(c)), 2):
        w = _pair_witness(c, i, j)
        if w is not None:
            witnesses.append(w)
    return Verdict(not witnesses, tuple(witnesses))


def _triple_det(c: PointConfiguration, idx) -> int:
    rows = [list(c.points[i].coords()) for i in idx]
    return determinant(IntegerMatrix.from_rows(rows))


def _triple_witness(c: PointConfiguration, idx) -> Witness | None:
    det = _triple_det(c, idx)
    if det == 0:
        return Witness("triple", tuple(idx), (), "collinear")
    if abs(det) == 1:
        return None
    return Witness("triple", tuple(idx), tuple(prime_divisors(det)), "collinear mod p")


def no_three_collinear_everywhere(c: PointConfiguration) -> Verdict:
    """Every triple must have unit determinant."""
    witnesses = []
    for idx in combinations(range(len(c)), 3):
        w = _triple_witness(c, idx)
        if w is not None:
            witnesses.append(w)
    return Verdict(not witnesses, tuple(witnesses))


def general_position(c: PointConfiguration) -> Verdict:
    """Conjunction of the pair and triple checks.

    The verdict of the first failing check is returned with all of its
    witnesses, first one first.
    """
    for check in (pairwise_distinct_everywhere, no_three_collinear_everywhere):
        verdict = check(c)
        if not verdict.ok:
            return verdict
    return Verdict(True, ())


def _mod2_witness(c: PointConfiguration) -> Witness:
    """A pair or triple degenerating at 2; exists for any five points.

    The projective plane over F_2 has no arc of five points, so five
    reductions contain a repeated point or three collinear ones.
    """
    for i, j in combinations(range(len(c)), 2):
        g = _pair_minor_gcd(c.points[i], c.points[j])
        if g == 0:
            return Witness("pair", (i, j), (), "identical")
        if g % 2 == 0:
            return Witness("pair", (i, j), (2,), "collide mod 2")
    for idx in combinations(range(len(c)), 3):
        det = _triple_det(c, idx)
        if det % 2 == 0:
            primes = () if det == 0 else (2,)
            note = "collinear" if det == 0 else "collinear mod 2"
            return Witness("triple", tuple(idx), primes, note)
    raise AssertionError("five points always degenerate mod 2")


@frozen
class Standardization:
    """GL_3(Z) change of coordinates onto the standard configuration."""

    transform: IntegerMatrix
    signs: tuple[int, ...]
    standard: PointConfiguration

    def to_json(self) -> dict:
        return {
            "transform": self.transform.to_json(),
            "signs": list(self.signs),
            "standard": self.standard.to_json(),
        }


def _unimodular_to_standard(points) -> IntegerMatrix:
    """T in GL_3(Z) with T p_i = e_i: the transform of the integer echelon
    form of the 3 x r matrix of the points, reduced above its unit pivots."""
    r = len(points)
    rows = [[p.coords()[i] for p in points] for i in range(3)]
    rows, pivots, t = _echelon(rows, r, transform=True)
    for col in range(r):
        if rows[col][col] != 1:
            raise NotGeneralPosition(f"column {col} reduces to pivot {rows[col][col]}, not a unit")
    _reduce_above(rows, pivots, t)
    return IntegerMatrix.from_rows(t)


def standardize(c: PointConfiguration) -> Standardization:
    """Map the first three points to e1, e2, e3 and a fourth to [1:1:1].

    Requires general position and at most four points; five or more raise
    TooManyPoints with a mod-2 witness attached, following the torus
    argument.
    """
    r = len(c)
    if r >= 5:
        raise TooManyPoints(
            "five or more integer points are never in general position",
            witness=_mod2_witness(c),
        )
    verdict = general_position(c)
    if not verdict.ok:
        raise NotGeneralPosition(
            "configuration is not in general position",
            witness=verdict.witnesses[0],
        )
    T = _unimodular_to_standard(c.points[: min(r, 3)])
    signs = (1, 1, 1)
    if r == 4:
        w = T.mul_vec(c.points[3].coords())
        if any(abs(x) != 1 for x in w):
            raise NotGeneralPosition(
                "fourth point does not land in the standard torus",
                witness=Witness("triple", (0, 1, 2, 3), (), "torus failure"),
            )
        signs = tuple(w)
        T = IntegerMatrix.from_rows(
            [[signs[i] * T.at(i, j) for j in range(3)] for i in range(3)]
        )
    standard = PointConfiguration.make(
        [ProjectivePoint.make(*T.mul_vec(p.coords())) for p in c.points]
    )
    return Standardization(T, signs, standard)


def classify(c: PointConfiguration) -> dict:
    """Del Pezzo model of the blow-up of the plane along the configuration."""
    std = standardize(c)
    r = len(c)
    model = "P2" if r == 0 else f"blowup_P2_{r}pts"
    return {
        "model": model,
        "K2": 9 - r,
        "points": r,
        "standard": std.standard.to_json(),
    }


# ---------------------------------------------------------------------------
# Picard-lattice bookkeeping


@frozen
class LatticeClass:
    """Class d*L - sum(m_i E_i) in the blow-up Picard lattice diag(1, -1...)."""

    d: int
    multiplicities: tuple[int, ...]

    def self_intersection(self) -> int:
        return self.d * self.d - sum(m * m for m in self.multiplicities)

    def k_pairing(self) -> int:
        # pairing against the canonical class (-3; -1, ..., -1)
        return -3 * self.d + sum(self.multiplicities)

    def to_json(self) -> dict:
        return {"d": self.d, "m": list(self.multiplicities)}


def minus_one_classes(r: int) -> list[LatticeClass]:
    """All (-1)-classes: self-intersection -1 and pairing -1 against K.

    Brute-force enumeration over the finite solution set of
    sum(m_i) = 3d - 1 and sum(m_i^2) = d^2 + 1, pruned by Cauchy-Schwarz.
    """
    if not (0 <= r <= MAX_POINTS):
        raise ValueError(f"r must lie in [0, {MAX_POINTS}]")
    out = []
    if r == 0:
        return out
    for d in range(-3, 8):
        target_sum = 3 * d - 1
        target_sq = d * d + 1
        if target_sum * target_sum > r * target_sq:
            continue
        out.extend(
            LatticeClass(d, tuple(ms))
            for ms in _bounded_tuples(r, target_sum, target_sq)
        )
    return out


def _bounded_tuples(k: int, total: int, total_sq: int):
    """Integer k-tuples with the given sum and sum of squares (Cauchy-Schwarz pruned)."""
    if k == 1:
        if total * total == total_sq:
            yield (total,)
        return
    bound = isqrt(total_sq)
    for m in range(-bound, bound + 1):
        rest_sq = total_sq - m * m
        rest = total - m
        if rest_sq < 0 or rest * rest > (k - 1) * rest_sq:
            continue
        for tail in _bounded_tuples(k - 1, rest, rest_sq):
            yield (m,) + tail
