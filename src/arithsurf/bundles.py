"""Rank-2 bundle invariants on the projective line over the integers.

A :class:`BundleHandle` wraps a verified locally-free rank-2 presentation
E = coker(phi: F1 -> F0), stored as given: every invariant below is read
at the sheaf level, so no presentation is preferred.

Splitting profiles are read off the dual.  Hom(-, O) is left exact, so
E^v = ker(phi^T) exactly, over Q and on the fiber over every prime, and the
sections of E^v(d) are the kernel of the degree-d piece of phi^T:

* the generic type (a, b) has a = c - dim ker(phi^T)_(c-1) with
  c = ceil(degree / 2), since h^0(E^v(c - 1)) = c - a, and b = degree - a;
* the piece M of phi^T at a - 1 is injective over Q, and the number c_p of
  its Smith invariants divisible by p is h^0(E_p^v(a - 1)) = a - a_p.  So
  the jump primes are the prime divisors of the largest invariant and the
  type at p is (a - c_p, b + c_p);
* the type at any single prime p, as :func:`audit_splitting` reads it, has
  a_p = c - dim ker(phi^T mod p)_(c-1), by the same rule.

:func:`bundle_handle` reads this profile once, checks every type in it
against the Hilbert function of E from the independent pair engine of
:mod:`cohomology`, and stores it on the handle.  By cohomology and base
change a prime dividing no Smith invariant has the generic type, so
:func:`splitting_type` reads the stored profile and :func:`audit_splitting`
is the one explicit cross-check at a single prime.  Before any of this,
:func:`bundle_handle` checks that E is locally free: the (g-2)-minors of phi,
g the number of generators, must have no common zero on P^1 over Z.
"""

from __future__ import annotations

import json
from itertools import combinations

from .cohomology import h0_dim, sheaf_rank_degree
from .errors import (
    CompositeModulus,
    IdentityViolation,
    NotLocallyFree,
    ParityViolation,
    ProfileInconsistent,
    frozen,
)
from .exactlat import (
    IntegerMatrix,
    LatticeBasis,
    is_prime,
    kernel_lattice,
    prime_divisors,
    smith_invariants,
)
from .graded import (
    Form,
    FreeGraded,
    GradedMap,
    GradedPresentation,
    degree_piece,
    nullity,
    reduce_mod,
    transpose,
)
from .graded import twist as twist_presentation


@frozen(order=True)
class SplittingType:
    """Splitting O(a) + O(b) of a rank-2 bundle on the line over a field."""

    a: int
    b: int

    def __post_init__(self):
        if self.a > self.b:
            raise ValueError("splitting type requires a <= b")

    @property
    def degree(self) -> int:
        return self.a + self.b

    @property
    def type(self) -> int:
        return self.b - self.a

    def h0_at(self, d: int) -> int:
        return max(0, self.a + d + 1) + max(0, self.b + d + 1)

    def shifted(self, t: int) -> "SplittingType":
        return SplittingType(self.a + t, self.b + t)

    def to_json(self) -> list[int]:
        return [self.a, self.b]


@frozen
class SplittingProfile:
    """Generic splitting type plus the finite map prime -> type at jumps.

    Unlisted primes carry the generic type.  Jump deltas are even and
    positive; the constructor enforces this, so a violating profile can
    never be built.
    """

    generic: SplittingType
    jumps: tuple[tuple[int, SplittingType], ...]

    def __post_init__(self):
        for p, st in self.jumps:
            delta = st.type - self.generic.type
            if delta <= 0 or delta % 2:
                raise ParityViolation(
                    f"jump at {p} has delta {delta}; must be even and positive", "profile-parity"
                )

    def jump_map(self) -> dict[int, SplittingType]:
        return dict(self.jumps)

    def at(self, p: int | None) -> SplittingType:
        if p is None:
            return self.generic
        return self.jump_map().get(p, self.generic)

    def jump_primes(self) -> list[int]:
        return [p for p, _ in self.jumps]

    def shifted(self, t: int) -> "SplittingProfile":
        return SplittingProfile(
            self.generic.shifted(t),
            tuple((p, st.shifted(t)) for p, st in self.jumps),
        )

    def type_map(self) -> dict:
        return {"generic": self.generic.type, **{p: st.type for p, st in self.jumps}}

    def to_json(self) -> dict:
        return {
            "generic": self.generic.to_json(),
            "jumps": {str(p): st.to_json() for p, st in self.jumps},
        }


def _fnv1a_64(data: bytes) -> str:
    """64-bit FNV-1a digest (Fowler, Noll and Vo) as 16 hex digits.  A label
    for a presentation, not a guard against tampering; ``hashlib`` would map
    OpenSSL's libcrypto, several MB resident, for this one digest."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


@frozen
class BundleHandle:
    """A verified rank-2 locally free sheaf with the presentation it was given
    and its verified splitting profile."""

    presentation: GradedPresentation
    rank: int
    degree: int
    profile: SplittingProfile

    def identifier(self) -> str:
        blob = json.dumps(self.presentation.to_json(), sort_keys=True)
        return _fnv1a_64(blob.encode())

    def to_json(self) -> dict:
        return {
            "id": self.identifier(),
            "rank": self.rank,
            "degree": self.degree,
            "presentation": self.presentation.to_json(),
        }


# ---------------------------------------------------------------------------
# rows of forms without a common zero


def row_onto_degree(row, twists, a: int) -> int | None:
    """Degree at which the row F0 -> O(a) is onto over Z, or None.

    ``row[i]`` has degree ``a - twists[i]``.  The piece landing in degree
    N = max(0, 2*delta - 1), delta the largest form degree, is onto modulo
    every prime exactly when its columns span Z^(N+1), i.e. it has full row
    rank and every Smith invariant is 1.  Forms with a common zero mod p are
    refused at any N; forms without one over any field are onto from
    2*delta - 1 on, so the test is complete.
    """
    N = max(0, 2 * max(f.degree for f in row) - 1)
    row_map = GradedMap(FreeGraded(tuple(twists)), FreeGraded((a,)), (tuple(row),))
    M = degree_piece(row_map, N - a)
    span = LatticeBasis.from_vectors(M.rows, M.columns_list())
    return N if span.matrix == IntegerMatrix.identity(M.rows) else None


def _fitting_minors(phi: GradedMap) -> list[Form]:
    """The (g-2)-minors of phi, g the number of generators.

    A cokernel of generic rank 2 is locally free exactly when these have no
    common zero on P^1 over Z: its second Fitting ideal is the unit ideal.
    The t-minors are built from the (t-1)-minors by Laplace expansion along
    their first row, so each smaller minor is computed once and shared by
    every larger one that contains it.  A k-minor's expansion only reaches
    the last t of its rows, so level t only needs row sets drawn from rows
    k - t onward.  The list runs over row sets, then column sets, in
    lexicographic order.
    """
    k = phi.target.rank - 2
    rows_t, cols_t = phi.target.twists, phi.source.twists
    level = {((), ()): Form.constant(1)}
    for t in range(1, k + 1):
        bigger = {}
        for rows in combinations(range(k - t, phi.target.rank), t):
            for cols in combinations(range(phi.source.rank), t):
                degree = sum(rows_t[i] for i in rows) - sum(cols_t[j] for j in cols)
                total = Form.zero(degree)
                for j, c in enumerate(cols):
                    f = phi.entries[rows[0]][c]
                    if f.degree >= 0 and not f.is_zero():
                        term = f.mul(level[(rows[1:], cols[:j] + cols[j + 1 :])])
                        total = total.add(term if j % 2 == 0 else term.scale(-1))
                bigger[(rows, cols)] = total
        level = bigger
    return [
        level[(rows, cols)]
        for rows in combinations(range(phi.target.rank), k)
        for cols in combinations(range(phi.source.rank), k)
    ]


def bundle_handle(P: GradedPresentation, assume_saturated: bool = False) -> BundleHandle:
    """Verify and wrap a presentation as a rank-2 bundle handle.

    The handle stores ``P`` itself.  ``assume_saturated`` is accepted for
    compatibility and ignored: there is one path whatever its value.

    Raises NotLocallyFree when the rank read off the resolution twists is
    not 2 or the (g-2)-minors share a zero somewhere over Z, and
    ProfileInconsistent when a type read off the dual fails its
    Hilbert-pattern check.
    """
    if P.base.kind != "ZZ":
        raise ValueError("bundle handles live over the integers")
    r, e = sheaf_rank_degree(P)
    if r != 2:
        raise NotLocallyFree(f"expected rank 2, found rank {r}")
    minors = _fitting_minors(P.map)
    if not minors or row_onto_degree(minors, [-m.degree for m in minors], 0) is None:
        raise NotLocallyFree("the (g-2)-minors of the presentation share a zero")
    return BundleHandle(P, r, e, _read_profile(P, e))


# ---------------------------------------------------------------------------
# splitting types from the dual


def _check_pattern(Q: GradedPresentation, st: SplittingType) -> None:
    """Pair-engine h^0 at twists -b-1 .. -b+3 must match the splitting type."""
    for d in range(-st.b - 1, -st.b + 4):
        if h0_dim(Q, d) != st.h0_at(d):
            raise ProfileInconsistent(f"h0 at twist {d} does not match splitting {st}", "h0-pattern")


def splitting_type(B: BundleHandle, at: int | None = None) -> SplittingType:
    """Splitting type at the generic point (``at=None``) or at a prime, read
    off the handle's profile, whose jump list is complete."""
    if at is not None and not is_prime(at):
        raise CompositeModulus(f"{at} is not prime")
    return B.profile.at(at)


def audit_splitting(B: BundleHandle, p: int) -> SplittingType:
    """Splitting type at p read off ker(phi^T mod p), bypassing the stored
    profile, and checked against the pair engine on the fiber."""
    fiber = reduce_mod(B.presentation, p)  # raises CompositeModulus unless p is prime
    st = _dual_type(fiber, B.degree)
    _check_pattern(fiber, st)
    return st


def _dual_type(P: GradedPresentation, degree: int) -> SplittingType:
    """Type (a, degree - a) over P's base (over Q for Z) from one kernel: with
    c = ceil(degree / 2), a <= c <= b, so dim ker(phi^T)_(c-1) = c - a."""
    c = -(-degree // 2)
    a = c - nullity(degree_piece(transpose(P.map), c - 1), P.base)
    return SplittingType(a, degree - a)


def _read_profile(P: GradedPresentation, degree: int) -> SplittingProfile:
    """Generic type and jumps from the dual, each checked by the pair engine."""
    generic = _dual_type(P, degree)
    a = generic.a
    below = degree_piece(transpose(P.map), a - 1)
    invariants = smith_invariants(below)
    if len(invariants) != below.cols:
        raise ProfileInconsistent(f"the dual has sections below twist {a}", "dual-profile")
    jumps = []
    for p in prime_divisors(max(invariants, default=1)):
        c = sum(1 for x in invariants if x % p == 0)
        jumps.append((p, SplittingType(a - c, generic.b + c)))
    _check_pattern(P, generic)
    for p, st in jumps:
        _check_pattern(reduce_mod(P, p), st)
    return SplittingProfile(generic, tuple(jumps))


def type_profile(B: BundleHandle) -> SplittingProfile:
    """Generic splitting type plus all jump primes with their types."""
    return B.profile


def normalize(B: BundleHandle) -> BundleHandle:
    """Twist so the generic splitting is (-n-1, -1); idempotent."""
    t = -1 - B.profile.generic.b
    if t == 0:
        return B
    P = twist_presentation(B.presentation, t)
    return BundleHandle(P, B.rank, B.degree + 2 * t, B.profile.shifted(t))


def check_parity(B: BundleHandle) -> dict[int, int]:
    """Jump deltas, even and positive: :class:`SplittingProfile` refuses any
    other, so a handle's profile already passed this check."""
    prof = B.profile
    return {p: st.type - prof.generic.type for p, st in prof.jumps}


def check_type_h0(B: BundleHandle) -> dict[int, tuple[int, int]]:
    """Normalized identity: type delta equals 2 h^0 of the fiber at each jump.

    The delta comes from the dual Smith form and h^0 from the pair engine,
    so the identity compares two independent computations.
    """
    N = normalize(B)
    prof = N.profile
    out = {}
    for p, st in prof.jumps:
        delta = st.type - prof.generic.type
        fiber_h0 = h0_dim(reduce_mod(N.presentation, p), 0)
        if delta != 2 * fiber_h0:
            raise IdentityViolation(f"at {p}: delta {delta} != 2*h0 = {2 * fiber_h0}", "type-h0-identity")
        out[p] = (delta, fiber_h0)
    return out


# ---------------------------------------------------------------------------
# split certificates


@frozen
class SplitCertificate:
    """Witness that a constant-profile bundle E is O(a) + O(b).

    ``row`` is a section of E^v(a) = ker(phi^T)_a, one form per generator:
    a map E -> O(a).  Its degree piece landing in forms of degree ``degree``
    is onto over Z, so the forms have no common zero on any fiber and
    E -> O(a) is onto everywhere.  The kernel is then a line bundle of
    degree b, and H^1(O(b - a)) = 0 splits the sequence.
    """

    split: SplittingType
    row: tuple[Form, ...]
    degree: int

    def to_json(self) -> dict:
        return {
            "split": self.split.to_json(),
            "row": [f.to_json() for f in self.row],
            "degree": self.degree,
        }


def try_split_certificate(B: BundleHandle) -> SplitCertificate | None:
    """Split certificate for a constant profile, read off ker(phi^T)_a.

    Returns None when the profile has jumps.  The first basis vector of
    ker(phi^T)_a is primitive, so it is nonzero mod every p, and a nonzero
    section of O + O(a - b) vanishes nowhere: the onto check cannot fail on
    a verified handle, and ProfileInconsistent is raised if it does.
    """
    prof = B.profile
    if prof.jumps:
        return None
    a = prof.generic.a
    dual = transpose(B.presentation.map)
    row = dual.source.piece_forms(a, kernel_lattice(degree_piece(dual, a)).vectors()[0])
    N = row_onto_degree(row, B.presentation.generators.twists, a)
    if N is None:
        raise ProfileInconsistent(
            f"the dual section at twist {a} is not onto on every fiber", "split-certificate"
        )
    return SplitCertificate(prof.generic, row, N)
