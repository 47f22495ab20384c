"""Sheaf cohomology of presented sheaves on the projective line.

h^1 is one rank: for M~ = coker(phi: F1 -> F0), Serre duality (Hartshorne
III.7.1) and the left exactness of Hom(-, O) give h^1(M~(d)) =
dim ker (phi^T)_(-d-2), over Q when the base is Z.

h^0 still scans to a stopping rule (until ROADMAP item 1b): global sections
of M~(d) are computed in the pair representation, where an element is a pair
(u, v) of degree-(d+e) module elements with x1^e * u = x0^e * v, i.e. a
homomorphism from the ideal (x0^e, x1^e) into M(d).  The pair spaces
stabilize to H^0(M~(d)) as e grows; stabilization is accepted after two
consecutive stable transitions (three equal dimensions with both induced
maps identifying the section lattices), counted from the structural floor
where every piece is live.  A hard cap, the twist span plus |d| plus a fixed
margin of 4, bounds the scan.  The memo per presentation and twist keeps
only the answer, a ``SectionCount`` of three integers (d, e, dim); the
lattices or F_p spans of each pair space live only while its scan runs.
The pairs K are the (u, v) parts of the kernel of the pair system
(u, v, w) -> x1^e u - x0^e v + phi(w), whose columns are written as lists:
one +1 per u-monomial, one -1 per v-monomial, then the columns of phi in
degree d+2e.  Over Z any basis of that kernel projects onto the same
lattice, so the raw basis of the echelon transform is projected and brought
to canonical form once.  Over F_p one elimination of the system gives K:
each free (u, v) column of its RREF is one basis vector as it stands, and
only the free phi columns, whose projections sit on the (u, v) pivot
columns, need a second, smaller elimination, and only when one of those
projections is nonzero (``exactlat.projected_kernel_mod``).  The relation
images B are the pairs (phi1 r, 0) and (0, phi1 r), so B = im phi1 + im
phi1 in block form; over F_p its canonical row echelon form is R + 0 over
0 + R, with R that of the columns of phi1 alone, and it is built that way.

A stable transition from exponent e to e + 1 asks whether the pushes
(x0 u, x1 v) of K_e together with B_(e+1) span K_(e+1).  Both already lie
in K_(e+1), so over F_p the spans agree exactly when the rank of the
pushes and B equals rank K_(e+1), and K needs to be a basis only.  Over Z
equal rank leaves the index open, so the canonical lattices are compared.

Rank and degree are not read from sections: ker(phi) is a free module on
the line, so the graded free resolution 0 -> F2 -> F1 -> F0 -> M -> 0 has
three known layers of twists, and ``sheaf_rank_degree`` reads the rank, the
degree and with them the Euler characteristic chi(M~(d)) = r(d+1) + e off
those twists.  h^0 - h^1 = chi is therefore a cross-check between the pair
engine and the dual, not a definition.  ``h0_dim`` reports dimensions only;
splitting types are read off the dual in ``bundles``, and the pair engine
is the independent check of each one.

Sheaves defined as kernels are never re-presented here: elementary
transformations write their kernel presentation down in closed form
(``transforms``).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .errors import WindowExhausted, frozen
from .exactlat import LatticeBasis, kernel_basis, projected_kernel_mod, rref_mod, span_lattice
from .graded import GradedPresentation, degree_piece, nullity, transpose

Vec = tuple[int, ...]


def stabilization_floor(P: GradedPresentation, d: int) -> int:
    """Smallest exponent at which every summand piece of the pair system is live.

    Below this value the degree-(d+e) generator pieces or the degree-(d+2e)
    relation pieces can still be empty, so dimension plateaus there say
    nothing about the limit.
    """
    floor = 0
    for a in P.map.target.twists:
        floor = max(floor, -(a + d))
    for r in P.map.source.twists:
        m = -r - d
        if m > 0:
            floor = max(floor, (m + 1) // 2)
    return floor


# ---------------------------------------------------------------------------
# spans over the base: integer lattices or F_p row spaces


@frozen
class FpSpan:
    """Row space over F_p given by independent rows.

    A pair space's K holds the basis ``exactlat.projected_kernel_mod``
    reads off the kernel, which is not a canonical form; its B holds the
    reduced row echelon form of the relation images, which is.
    """

    ambient: int
    p: int
    rows: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[Vec]:
        return list(self.rows)


# ---------------------------------------------------------------------------
# pair spaces


@frozen
class PairSpace:
    """Sections of M~(d) in pair representation at exponent e.

    ``K`` spans the pairs, ``B`` the relation images; the section space is
    K/B and ``dim`` its rank over the base.
    """

    d: int
    e: int
    f: int
    K: LatticeBasis | FpSpan
    B: LatticeBasis | FpSpan
    dim: int


def _pair_system(P: GradedPresentation, d: int, e: int) -> tuple[int, list[list[int]]]:
    """f = dim of the degree-(d+e) generator piece, and the columns of
    (u, v, w) -> x1^e u - x0^e v + phi(w) into the degree-(d+2e) piece.

    Multiplication by x1^e shifts a monomial's index within its summand by e
    and x0^e keeps it, so each u-monomial's column holds one +1 and each
    v-monomial's one -1; the w columns are those of phi's degree-(d+2e)
    piece.  Every column is a fresh list.
    """
    gens = P.generators
    fdims, gdims = gens.piece_dims(d + e), gens.piece_dims(d + 2 * e)
    g = sum(gdims)
    u_cols, v_cols = [], []
    roff = 0
    for fd, gd in zip(fdims, gdims):
        for r in range(roff, roff + fd):
            col = [0] * g
            col[r + e] = 1
            u_cols.append(col)
            col = [0] * g
            col[r] = -1
            v_cols.append(col)
        roff += gd
    return sum(fdims), u_cols + v_cols + degree_piece(P.map, d + 2 * e).columns_list()


def _pair_data(P: GradedPresentation, d: int, e: int) -> PairSpace:
    f, system = _pair_system(P, d, e)
    phi1 = degree_piece(P.map, d + e)
    if P.base.kind == "GF":
        p = P.base.char
        K = FpSpan(2 * f, p, tuple(projected_kernel_mod(system, 2 * f, p)))
        # B = im phi1 + im phi1, so its RREF is R + 0 over 0 + R, R the RREF
        # of phi1's columns.
        R, _ = rref_mod(phi1.columns_list(), f, p)
        zero = (0,) * f
        B = FpSpan(2 * f, p, tuple(r + zero for r in R) + tuple(zero + r for r in R))
    else:
        # Any basis of the kernel projects onto the same lattice K, so the
        # raw one is spanned once, after projection.
        K = span_lattice(2 * f, [v[: 2 * f] for v in kernel_basis(system)])
        # B: images of relations, duplicated over the (u, v) components
        bvecs = []
        for j in range(phi1.cols):
            col = phi1.column(j)
            if any(col):
                bvecs.append(col + (0,) * f)
                bvecs.append((0,) * f + col)
        B = span_lattice(2 * f, bvecs)
    return PairSpace(d, e, f, K, B, K.rank - B.rank)


def _push(P: GradedPresentation, prev: PairSpace) -> list[Vec]:
    """The rows of prev.K under (u, v) -> (x0 u, x1 v), into exponent e + 1.

    Multiplication by x0 appends a zero to each generator segment and x1
    prepends one, for every summand live in degree d + e + 1; the moves are
    one index list, computed once and applied to every row.
    """
    deg, f = prev.d + prev.e, prev.f
    zero = 2 * f  # index of the zero appended to each row
    u_idx, v_idx = [], []
    off = 0
    for a, dim in zip(P.generators.twists, P.generators.piece_dims(deg)):
        if a + deg + 1 >= 0:
            u_idx += [*range(off, off + dim), zero]
            v_idx += [zero, *range(f + off, f + off + dim)]
        off += dim
    if not u_idx:
        return []
    move = itemgetter(*u_idx, *v_idx)
    return [move(v + (0,)) for v in prev.K.vectors()]


def _push_compatible(P: GradedPresentation, prev: PairSpace, cur: PairSpace) -> bool:
    """Whether the pushes of prev.K and the relation images B span cur.K.

    Both lie in cur.K ((x0 u, x1 v) is again a pair, and B is inside K), so
    over F_p the spans are equal exactly when the ranks are.  Over Z a
    sublattice of full rank can still have an index, so the canonical forms
    are compared.
    """
    pushed = _push(P, prev)
    if P.base.kind == "GF":
        rows, _ = rref_mod(pushed + cur.B.vectors(), 2 * cur.f, P.base.char)
        return len(rows) == cur.K.rank
    return span_lattice(2 * cur.f, pushed + cur.B.vectors()) == cur.K


@frozen
class SectionCount:
    """What the memo keeps of a stabilized pair space: the twist, the
    exponent at which the scan accepted it and the rank of H^0 there."""

    d: int
    e: int
    dim: int


@lru_cache(maxsize=None)
def _section_space_cached(P: GradedPresentation, d: int) -> SectionCount:
    # Accept only after two consecutive stable transitions past the floor:
    # a single dimension plateau with one compatible step can still grow
    # afterwards (sections whose chart denominators need a larger exponent).
    cap = max(P.twist_span() + abs(d), stabilization_floor(P, d)) + 4
    prev = prev2 = None
    compat_prev = False
    for e in range(stabilization_floor(P, d), cap + 1):
        cur = _pair_data(P, d, e)
        compat_cur = (
            prev is not None
            and prev.dim == cur.dim
            and _push_compatible(P, prev, cur)
        )
        if prev2 is not None and compat_prev and compat_cur and prev2.dim == cur.dim:
            return SectionCount(d, cur.e, cur.dim)
        prev2, prev, compat_prev = prev, cur, compat_cur
    raise WindowExhausted(
        f"section space at twist {d} did not stabilize below exponent {cap}"
    )


def section_space(P: GradedPresentation, d: int) -> SectionCount:
    """Twist, stabilization exponent and dimension of the stabilized pair
    space of M~(d).  Only these three integers are memoized; the spans of
    every pair space are dropped when the scan returns."""
    return _section_space_cached(P, d)


def h0_dim(P: GradedPresentation, d: int = 0) -> int:
    """Dimension of H^0 of the presented sheaf twisted by d: a lattice rank
    over Z, a vector space dimension over a field."""
    return section_space(P, d).dim


# ---------------------------------------------------------------------------
# rank, degree, h1


def sheaf_rank_degree(P: GradedPresentation) -> tuple[int, int]:
    """Rank and degree of the presented sheaf, read off its free resolution.

    With F0 = sum O(a_i) (g generators), F1 = sum O(r_j) (s relations) and
    F2 = ker(phi) = sum O(f_k), free on the line (Eisenbud, The Geometry of
    Syzygies, GTM 229), the rank is g - s + #F2 and the degree is
    sum a_i - sum r_j + sum f_k; the degree includes the length of any
    torsion, as the Hilbert polynomial r(d+1) + e does.

    Every f_k is at most max r_j, and at least
    L = sum r_j - U - (s-1) max(0, max r_j), where U = sum max(0, a_i)
    bounds the degree of every subsheaf of F0, so the image of phi.  So
    every summand of F2 has sections in degree -L, and one rank of the
    degree -L piece of phi decides whether F2 = 0, which it is for every
    bundle the package builds.  Otherwise the twist -e occurs in F2 exactly
    k(e) - 2k(e-1) + k(e-2) times, with k(e) = dim ker(phi_e).  Over Z the
    ranks are taken over Q.
    """
    gens, rels = P.generators.twists, P.relations.twists
    rank, degree = len(gens) - len(rels), sum(gens) - sum(rels)
    if not rels:
        return rank, degree
    top = max(rels)
    low = sum(rels) - sum(max(0, a) for a in gens) - (len(rels) - 1) * max(0, top)

    def kernel_dim(e: int) -> int:
        return nullity(degree_piece(P.map, e), P.base)

    if kernel_dim(-low) == 0:
        return rank, degree
    k = [kernel_dim(e) for e in range(-top - 2, -low + 1)]
    for e, (k_2, k_1, k_0) in enumerate(zip(k, k[1:], k[2:]), start=-top):
        count = k_0 - 2 * k_1 + k_2  # summands O(-e) of F2
        rank += count
        degree -= count * e
    return rank, degree


def h1(P: GradedPresentation, d: int = 0) -> int:
    """Dimension of H^1 of the presented sheaf twisted by d: the kernel of
    the degree -d-2 piece of phi^T, over Q when the base is Z."""
    return nullity(degree_piece(transpose(P.map), -d - 2), P.base)
