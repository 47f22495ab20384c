"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the production code paths: rational
Gaussian elimination with Fraction arithmetic instead of integer echelon
forms and cofactor determinants instead of Bareiss.  The global-section
solver is ``arithsurf.selftest.oracle_h0``, the pair space at one exponent
fixed by the twists of the free resolution, shared with the acceptance
criteria.  The full-row eliminations ``reference_rref_mod``,
``reference_echelon`` and ``reference_reduce_above`` are exactlat's kernels
before they learned to rewrite only the live tail of each row; the kernels
must give exactly their outputs.

The exceptions are the two engines at the end.  The section-lattice engine
re-presents a kernel-defined sheaf from a window of its stabilized section
lattices, extracting generators and syzygies degreewise (with
``quotient_group_data`` for the quotients), and stands as the reference for
the closed forms of the package: ``resaturate`` feeds it a sheaf's own
section lattices, and ``apply_full``/``restricted_quotient`` compute an
elementary transformation through it, with the fitted
``_kernel_quotient_degree`` as the reference for the blow-up record.
``splitting_scan`` reads a splitting type off one pair-engine h^0 value and
checks it against the Hilbert pattern, the reference for the types that
``bundles`` reads off the dual, and ``probe_rank_degree`` reads rank and
degree off pair-engine h^0 values at large twists, the reference for the
resolution-twist formula of ``cohomology.sheaf_rank_degree``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd

from arithsurf.bundles import BundleHandle, SplittingType, _check_pattern, bundle_handle
from arithsurf.cohomology import (
    FpSpan,
    _pair_data,
    h0_dim,
    section_space,
    sheaf_rank_degree,
    shift_pair_vector,
)
from arithsurf.errors import CompositeModulus, NotLocallyFree, ProfileInconsistent, WindowExhausted
from arithsurf.exactlat import (
    IntegerMatrix,
    LatticeBasis,
    is_prime,
    kernel_lattice,
    kernel_mod,
    rank_mod,
    rank_of,
    span_lattice,
)
from arithsurf.graded import QQ, ZZ, Form, FreeGraded, GradedMap, GradedPresentation, free_presentation
from arithsurf.transforms import FiberQuotient, _assert_transform_contract, validate_quotient

Vec = tuple[int, ...]

# Margin added to the section-lattice windows below.
WINDOW_GUARD = 4


# ---------------------------------------------------------------------------
# rational Gauss


def gauss_rank(rows):
    """Rank over Q via Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, m) if a[i][c] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def gauss_kernel(rows, ncols):
    """Basis of the rational kernel (free-variable form), as Fraction rows."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    piv = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if a[i][c] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def rank_mod_p(rows, p):
    a = [[x % p for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, m) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def cofactor_det(rows):
    """Determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def determinantal_invariants(rows):
    """Smith invariants d_k / d_(k-1), d_k the gcd of all k x k minors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = gcd(d, cofactor_det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_minors(entries, target_twists, source_twists, k):
    """All k-minors of a matrix of binary forms, by the permutation expansion.

    ``entries[i][j]`` is the coefficient tuple of a form of degree
    ``target_twists[i] - source_twists[j]`` (empty when that is negative).
    Returns (degree, coefficients) pairs, row sets then column sets in
    lexicographic order; a negative degree has no coefficients.
    """
    out = []
    for rows in combinations(range(len(target_twists)), k):
        for cols in combinations(range(len(source_twists)), k):
            degree = sum(target_twists[i] for i in rows) - sum(source_twists[j] for j in cols)
            total = [0] * (degree + 1) if degree >= 0 else []
            for perm in permutations(range(k)):
                poly = [_perm_sign(perm)]
                for i, c in zip(rows, (cols[t] for t in perm)):
                    factor = entries[i][c]
                    step = [0] * (len(poly) + len(factor) - 1) if factor else []
                    for a, x in enumerate(poly):
                        for b, y in enumerate(factor):
                            step[a + b] += x * y
                    poly = step
                for t, x in enumerate(poly):
                    total[t] += x
            out.append((degree, tuple(total)))
    return out


# ---------------------------------------------------------------------------
# integer kernels with explicit saturation


def _clear_denominators(vec):
    lcm = 1
    for x in vec:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g else ints


def _max_minor_gcd(vectors, n):
    k = len(vectors)
    g = 0
    for cols in combinations(range(n), k):
        sub = [[v[c] for c in cols] for v in vectors]
        g = gcd(g, cofactor_det(sub))
    return abs(g)


def oracle_kernel_basis(rows, ncols):
    """Integer kernel as row vectors, saturated, independent of exactlat.

    Rational kernel by Gauss, denominators cleared per vector, then the
    index of the spanned lattice in its saturation is removed prime by
    prime using kernels mod p of the coordinate matrix.
    """
    basis = [_clear_denominators(v) for v in gauss_kernel(rows, ncols)]
    if not basis:
        return []
    while True:
        g = _max_minor_gcd(basis, ncols)
        assert g != 0
        if g == 1:
            return basis
        p = min(p for p in range(2, g + 1) if g % p == 0 and all(p % q for q in range(2, p)))
        # find a combination of basis rows divisible by p
        combo = _mod_p_left_kernel(basis, p)
        assert combo is not None
        new = [sum(c * v[t] for c, v in zip(combo, basis)) // p for t in range(ncols)]
        idx = next(i for i, c in enumerate(combo) if c % p)
        basis[idx] = new


def _mod_p_left_kernel(vectors, p):
    """A nonzero row combination c with c . vectors == 0 mod p, or None."""
    k = len(vectors)
    cols = [[vectors[i][t] % p for i in range(k)] for t in range(len(vectors[0]))]
    a = [list(col) for col in cols]
    # solve a . c == 0 (a has one row per coordinate)
    m = len(a)
    piv = []
    r = 0
    for c in range(k):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(k) if c not in piv]
    if not free:
        return None
    fc = free[0]
    combo = [0] * k
    combo[fc] = 1
    for i, pc in enumerate(piv):
        combo[pc] = (-a[i][fc]) % p
    return combo


# ---------------------------------------------------------------------------
# full-row eliminations: exactlat's kernels as they were before they learned
# to touch only the live tail of each row, kept verbatim as references


def _inv_mod(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


def reference_rref_mod(rows: list[list[int]], ncols: int, p: int):
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        sel = next((i for i in range(r, m) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = _inv_mod(a[r][c], p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return [tuple(row) for row in a[:r]], piv_cols


def reference_echelon(rows: list[list[int]], ncols: int, transform: bool = False):
    """Bring ``rows`` to integer row echelon form by unimodular row operations.

    Returns ``(rows, pivots, trans)`` where ``pivots`` is a list of
    ``(row, col)`` pairs with positive pivot entries and ``trans`` (if
    requested) satisfies ``trans * original = rows``.  Zero rows end up at
    the bottom.
    """
    m = len(rows)
    trans = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        # Euclidean elimination in column c on rows r..m-1.
        while True:
            best = -1
            for i in range(r, m):
                if rows[i][c] != 0 and (best < 0 or abs(rows[i][c]) < abs(rows[best][c])):
                    best = i
            if best < 0:
                break
            if best != r:
                rows[r], rows[best] = rows[best], rows[r]
                if trans is not None:
                    trans[r], trans[best] = trans[best], trans[r]
            done = True
            piv = rows[r][c]
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    q = rows[i][c] // piv
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                        if trans is not None:
                            trans[i] = [a - q * b for a, b in zip(trans[i], trans[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
                if trans is not None:
                    trans[r] = [-a for a in trans[r]]
            pivots.append((r, c))
            r += 1
    return rows, pivots, trans


def reference_reduce_above(rows: list[list[int]], pivots: list[tuple[int, int]], trans=None):
    """Reduce entries above each pivot into [0, pivot), left to right.

    ``trans``, when given, undergoes the same row operations, so that
    ``trans * original = rows`` still holds for a transform of ``_echelon``.
    """
    for (r, c) in pivots:
        piv = rows[r][c]
        for i in range(r):
            q = rows[i][c] // piv
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                if trans is not None:
                    trans[i] = [a - q * b for a, b in zip(trans[i], trans[r])]
    return rows


# ---------------------------------------------------------------------------
# lattice membership and sums; rank over a named base


def express(L: LatticeBasis, v) -> list[int]:
    """Coordinates of ``v`` in the basis of ``L``; raises ValueError if outside."""
    work = list(v)
    if len(work) != L.ambient:
        raise ValueError("ambient dimension mismatch")
    coords = []
    for col in L.matrix.columns_list():
        piv_row = next(i for i, x in enumerate(col) if x != 0)
        q, rem = divmod(work[piv_row], col[piv_row])
        if rem:
            raise ValueError("vector not in lattice")
        coords.append(q)
        if q:
            work = [a - q * b for a, b in zip(work, col)]
    if any(work):
        raise ValueError("vector not in lattice")
    return coords


def lattice_contains(L: LatticeBasis, v) -> bool:
    try:
        express(L, v)
        return True
    except ValueError:
        return False


def lattice_sum(L: LatticeBasis, other: LatticeBasis) -> LatticeBasis:
    if L.ambient != other.ambient:
        raise ValueError("ambient dimension mismatch")
    return LatticeBasis.from_vectors(L.ambient, L.vectors() + other.vectors())


def rank_over(M: IntegerMatrix, base) -> int:
    """Rank of ``M`` over the rationals or over a prime field.

    ``base`` may be the string ``"QQ"`` (or ``"ZZ"``) or a prime integer.
    Composite moduli are rejected.
    """
    if base in ("QQ", "ZZ"):
        return rank_of(M)
    p = int(base)
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return rank_mod(M, p)


# ---------------------------------------------------------------------------
# the section-lattice engine: pair multiplication maps


@lru_cache(maxsize=None)
def monomial_mult_matrix(var: int, e: int, s: int) -> IntegerMatrix:
    """Multiplication by x_var^e from degree-s to degree-(s+e) monomials."""
    if s < 0:
        return IntegerMatrix.zero(max(0, s + e + 1), 0)
    rows = [[0] * (s + 1) for _ in range(s + e + 1)]
    for k in range(s + 1):
        rows[k + (e if var == 1 else 0)][k] = 1
    return IntegerMatrix.from_rows(rows, cols=s + 1)


def pair_mult_matrix(P: GradedPresentation, d: int, e: int, var: int) -> IntegerMatrix:
    """Multiplication by x_var on pair spaces: twist d -> d+1 at fixed e."""
    gens = P.generators
    fdims = gens.piece_dims(d + e)
    f2dims = gens.piece_dims(d + 1 + e)
    f, f2 = sum(fdims), sum(f2dims)
    rows = [[0] * (2 * f) for _ in range(2 * f2)]
    roff = coff = 0
    for a, fd, fd2 in zip(gens.twists, fdims, f2dims):
        s = a + d + e
        if fd > 0 and fd2 > 0:
            blk = monomial_mult_matrix(var, 1, s)
            for r in range(fd2):
                for c in range(fd):
                    x = blk.at(r, c)
                    if x:
                        rows[roff + r][coff + c] = x
                        rows[f2 + roff + r][f + coff + c] = x
        roff += fd2
        coff += fd
    return IntegerMatrix.from_rows(rows, cols=2 * f)


def pair_mult_vector(P: GradedPresentation, d: int, e: int, var: int, vec):
    """Multiplication by x_var on a pair vector: twist d -> d+1 at fixed e."""
    return shift_pair_vector(P, d, e, vec, var, var)


# ---------------------------------------------------------------------------
# lattice families over a window


@dataclass(frozen=True)
class FamilyPiece:
    d: int
    K: LatticeBasis | FpSpan
    B: LatticeBasis | FpSpan
    dim: int


@dataclass(frozen=True)
class SectionLatticeFamily:
    """Window of section lattices H^0(M~(d)) with multiplication maps.

    All pieces live at one common pair exponent so the multiplication maps
    by x0 and x1 align; each lattice is the stabilized (full) section
    lattice, i.e. saturated in the colimit sense: no finite-index defect.
    """

    presentation: GradedPresentation
    d_min: int
    d_max: int
    exponent: int
    pieces: tuple[FamilyPiece, ...]

    def piece(self, d: int) -> FamilyPiece:
        if not (self.d_min <= d <= self.d_max):
            raise KeyError(f"twist {d} outside family window")
        return self.pieces[d - self.d_min]

    def mult_matrix(self, d: int, var: int) -> IntegerMatrix:
        return pair_mult_matrix(self.presentation, d, self.exponent, var)

    def mult_vec(self, d: int, var: int, vec):
        return pair_mult_vector(self.presentation, d, self.exponent, var, vec)

    def rank(self, d: int) -> int:
        return self.piece(d).dim

    def to_json(self) -> dict:
        return {
            "window": [self.d_min, self.d_max],
            "exponent": self.exponent,
            "pieces": [
                {
                    "twist": pc.d,
                    "dim": pc.dim,
                    "sections": [[str(c) for c in v] for v in pc.K.vectors()],
                    "relations": [[str(c) for c in v] for v in pc.B.vectors()],
                }
                for pc in self.pieces
            ],
        }


def lattice_family(P: GradedPresentation, window: tuple[int, int]) -> SectionLatticeFamily:
    """Family of stabilized section lattices over ``window = (d_min, d_max)``."""
    d_min, d_max = window
    if d_min > d_max:
        raise ValueError("empty window")
    stab = [section_space(P, d) for d in range(d_min, d_max + 1)]
    e_star = max(s.e for s in stab)
    pieces = []
    for s in stab:
        cur = _pair_data(P, s.d, e_star)
        if cur.dim != s.dim:
            raise WindowExhausted(
                f"pair space at twist {s.d} changed between exponents "
                f"{s.e} and {e_star}"
            )
        pieces.append(FamilyPiece(s.d, cur.K, cur.B, cur.dim))
    return SectionLatticeFamily(P, d_min, d_max, e_star, tuple(pieces))


# ---------------------------------------------------------------------------
# quotient groups of lattices by Smith diagonalization


def _smith_left_inverse(X: list[list[int]], k: int, l: int):
    """Diagonalize a k x l matrix, tracking the inverse of the row transform.

    Returns ``(diag, uinv)`` with ``U X V = D`` diagonal; ``diag`` lists the
    k diagonal entries of D (zeros included) and ``uinv`` holds the columns
    of U^{-1}: the row ops applied to X are mirrored as inverse column ops.
    """
    a = [list(row) for row in X]
    uinv = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def col_add(dst: int, src: int, q: int):
        # right-multiply uinv by the inverse of the row operation just applied
        for i in range(k):
            uinv[i][dst] += q * uinv[i][src]

    top = 0
    while top < min(k, l):
        bi = bj = -1
        for i in range(top, k):
            for j in range(top, l):
                if a[i][j] != 0 and (bi < 0 or abs(a[i][j]) < abs(a[bi][bj])):
                    bi, bj = i, j
        if bi < 0:
            break
        if bi != top:
            a[top], a[bi] = a[bi], a[top]
            for row in uinv:
                row[top], row[bi] = row[bi], row[top]
        if bj != top:
            for row in a:
                row[top], row[bj] = row[bj], row[top]
        while True:
            again = False
            for i in range(top + 1, k):
                if a[i][top] != 0:
                    q = a[i][top] // a[top][top]
                    if q:
                        # a[i] -= q a[top]  has inverse  uinv[:,top] += q uinv[:,i]
                        a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                        col_add(top, i, q)
                    if a[i][top] != 0:
                        a[top], a[i] = a[i], a[top]
                        for row in uinv:
                            row[top], row[i] = row[i], row[top]
                        again = True
            if again:
                continue
            for j in range(top + 1, l):
                if a[top][j] != 0:
                    q = a[top][j] // a[top][top]
                    if q:
                        for row in a:
                            row[j] -= q * row[top]
                    if a[top][j] != 0:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        again = True
            if not again:
                break
        piv = a[top][top]
        offender = None
        for i in range(top + 1, k):
            for j in range(top + 1, l):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # a[top] += a[offender]  has inverse  uinv[:,offender] -= uinv[:,top]
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            col_add(offender, top, -1)
            continue
        if piv < 0:
            a[top] = [-x for x in a[top]]
            for row in uinv:
                row[top] = -row[top]
        top += 1
    diag = [a[i][i] if i < l else 0 for i in range(k)]
    return diag, uinv


def quotient_group_data(S: LatticeBasis, T_vectors) -> tuple[list[Vec], list[int]]:
    """Generators and cyclic orders of the quotient group span(S)/span(T).

    ``T_vectors`` must lie inside S.  Returns ``(gens, orders)`` where the
    quotient is the direct sum of Z/orders[i] (order 0 meaning Z) generated
    by the classes of ``gens``; trivial factors are dropped.
    """
    k = S.rank
    cols = [express(S, t) for t in T_vectors]
    X = [[cols[j][i] for j in range(len(cols))] for i in range(k)]
    diag, uinv = _smith_left_inverse(X, k, len(cols))
    gens: list[Vec] = []
    orders: list[int] = []
    basis = S.vectors()
    for i, d in enumerate(diag):
        if abs(d) == 1:
            continue
        # column i of U^{-1} holds S-basis coordinates; expand to ambient ones
        vec = tuple(
            sum(uinv[r][i] * basis[r][t] for r in range(k)) for t in range(S.ambient)
        )
        gens.append(vec)
        orders.append(abs(d))
    return gens, orders


# ---------------------------------------------------------------------------
# sections -> presentation engine


@dataclass(frozen=True)
class PieceProvider:
    """Window of section lattices handed to the presentation engine.

    ``lattices[i]`` is the pair (K, B) at twist ``d_min + i``; ``mult_vec``
    applies multiplication by x0 or x1 to an ambient vector at a twist.
    """

    d_min: int
    d_max: int
    lattices: tuple[tuple[LatticeBasis, LatticeBasis], ...]
    mult_vec: object

    def piece(self, d: int) -> tuple[LatticeBasis, LatticeBasis]:
        return self.lattices[d - self.d_min]


@dataclass(frozen=True)
class GeneratorLineage:
    """Chosen module generators as explicit section vectors."""

    degrees: tuple[int, ...]
    vectors: tuple[Vec, ...]


def presentation_from_sections(provider: PieceProvider, base) -> tuple[GradedPresentation, GeneratorLineage]:
    """Extract generators and syzygies degreewise; emit a cokernel presentation.

    New generators are needed at twist d exactly when multiplication from
    twist d-1 fails to surject onto the section lattice (as groups, so
    torsion cokernels count).  Syzygies are collected the same way in the
    coefficient spaces.  The window must contain two consecutive clean
    degrees for both scans past the last new generator; otherwise the
    provider window was too small and WindowExhausted is raised.
    """
    d0, d1 = provider.d_min, provider.d_max
    gens: list[tuple[int, Vec]] = []
    gen_mono_vecs: list[dict[tuple[int, int], Vec]] = []
    rels: list[tuple[int, list[tuple[int, ...]]]] = []

    prev_K: LatticeBasis | None = None
    prev_R: LatticeBasis | None = None
    prev_rel_coords: list[tuple[int, int]] = []
    clean_streak = 0
    saw_generator = False

    for d in range(d0, d1 + 1):
        K, B = provider.piece(d)
        ambient = K.ambient
        # ----- generators
        carried: list[Vec] = list(B.vectors())
        if prev_K is not None:
            for v in prev_K.vectors():
                carried.append(provider.mult_vec(d - 1, 0, v))
                carried.append(provider.mult_vec(d - 1, 1, v))
        new_gens, _ = quotient_group_data(K, carried)
        for v in new_gens:
            gens.append((d, v))
            gen_mono_vecs.append({(0, 0): v})
            saw_generator = True
        # push every generator's monomial table up to degree d
        for (dg, _), table in zip(gens, gen_mono_vecs):
            m = d - dg
            if m <= 0:
                continue
            for (i, j) in [(m - j, j) for j in range(m + 1)]:
                if (i, j) in table:
                    continue
                if i > 0 and (i - 1, j) in table:
                    table[(i, j)] = provider.mult_vec(d - 1, 0, table[(i - 1, j)])
                elif j > 0 and (i, j - 1) in table:
                    table[(i, j)] = provider.mult_vec(d - 1, 1, table[(i, j - 1)])
        # ----- syzygies among the generators at this degree
        rel_coords: list[tuple[int, int]] = []  # (generator index, x1-exponent)
        ev_cols: list[Vec] = []
        for gidx, (dg, _) in enumerate(gens):
            m = d - dg
            if m < 0:
                continue
            table = gen_mono_vecs[gidx]
            for j in range(m + 1):
                rel_coords.append((gidx, j))
                ev_cols.append(table[(m - j, j)])
        R = _kernel_mod_span(ev_cols, B, ambient)
        carried_rels: list[Vec] = []
        if prev_R is not None:
            index_map = {rc: i for i, rc in enumerate(rel_coords)}
            for c in prev_R.vectors():
                for var in (0, 1):
                    pushed = [0] * len(rel_coords)
                    ok = True
                    for (gidx, j), coef in zip(prev_rel_coords, c):
                        jj = j + (1 if var == 1 else 0)
                        key = (gidx, jj)
                        if coef and key not in index_map:
                            ok = False
                            break
                        if key in index_map:
                            pushed[index_map[key]] += coef
                    if ok:
                        carried_rels.append(tuple(pushed))
        new_rels, _ = quotient_group_data(R, carried_rels)
        for c in new_rels:
            rels.append((d, [(rel_coords[i], c[i]) for i in range(len(c))]))
        clean = not new_gens and not new_rels and saw_generator
        clean_streak = clean_streak + 1 if clean else 0
        prev_K, prev_R, prev_rel_coords = K, R, rel_coords
    if not saw_generator:
        # zero sheaf on the window: empty presentation
        empty = FreeGraded(())
        pres = GradedPresentation(base, GradedMap(empty, empty, ()))
        return pres, GeneratorLineage((), ())
    if clean_streak < 2:
        raise WindowExhausted(
            "generator/syzygy extraction did not settle inside the window"
        )
    gen_twists = tuple(-dg for dg, _ in gens)
    columns = []
    for dr, coeff_items in rels:
        forms = []
        for gidx, (dg, _) in enumerate(gens):
            m = dr - dg
            if m < 0:
                forms.append(Form.zero(m))
                continue
            coeffs = [0] * (m + 1)
            for (gi, j), c in coeff_items:
                if gi == gidx:
                    coeffs[j] = c
            forms.append(Form(m, tuple(coeffs)))
        columns.append((-dr, forms))
    src = FreeGraded(tuple(t for t, _ in columns))
    tgt = FreeGraded(gen_twists)
    entries = tuple(
        tuple(columns[j][1][i] for j in range(len(columns))) for i in range(tgt.rank)
    )
    pres = GradedPresentation(base, GradedMap(src, tgt, entries))
    lineage = GeneratorLineage(tuple(dg for dg, _ in gens), tuple(v for _, v in gens))
    return pres, lineage


def provider_from_family(family: SectionLatticeFamily, restrict=None) -> PieceProvider:
    """PieceProvider over a family window.

    ``restrict`` may replace each section lattice by a sublattice (the kernel
    of a fiber quotient, say); it receives ``(d, K, B)`` and must return a
    lattice between B and K.
    """
    lats = []
    for d in range(family.d_min, family.d_max + 1):
        pc = family.piece(d)
        K = pc.K if restrict is None else restrict(d, pc.K, pc.B)
        lats.append((K, pc.B))
    return PieceProvider(family.d_min, family.d_max, tuple(lats), family.mult_vec)


def first_section_twist(P: GradedPresentation) -> int | None:
    """Smallest twist with a nonzero section space, or None if none shows up.

    The scan starts below -(|degree| + guard) where the generation bound
    forces sections of any bundle quotient to be absent, and gives up one
    guard past the twist span.  The degree that sets the scan range comes
    from ``cohomology.sheaf_rank_degree`` (the resolution-twist formula,
    checked against ``probe_rank_degree`` in the tests); the sections come
    from the pair engine.
    """
    r, e = sheaf_rank_degree(P)
    guard = 2 + max((abs(t) for t in P.all_twists()), default=0)
    d = -(abs(e) + guard)
    while d <= abs(e) + guard:
        if h0_dim(P, d) > 0:
            return d
        d += 1
    return None


def _kernel_mod_span(columns: list[Vec], B: LatticeBasis, ambient: int) -> LatticeBasis:
    """Lattice { c : sum c_i columns_i lies in span(B) }."""
    n = len(columns)
    if n == 0:
        return LatticeBasis.from_vectors(0, [])
    bvecs = B.vectors()
    rows = [
        [columns[j][t] for j in range(n)] + [bv[t] for bv in bvecs]
        for t in range(ambient)
    ]
    mat = IntegerMatrix.from_rows(rows, cols=n + len(bvecs))
    kern = kernel_lattice(mat)
    proj = [v[:n] for v in kern.vectors()]
    lat = span_lattice(n, proj)
    return lat


# ---------------------------------------------------------------------------
# resaturation: the presentation engine on a sheaf's own section lattices


def resaturate(P: GradedPresentation) -> tuple[GradedPresentation, GeneratorLineage, SectionLatticeFamily]:
    """Re-present a sheaf from its section lattices.

    The result presents the same sheaf, with module pieces equal to the full
    section lattices from the first section twist on, so sections can be
    written against the generators directly.
    """
    d0 = first_section_twist(P)
    if d0 is None:
        raise NotLocallyFree("sheaf has no sections at any probe twist")
    span = P.twist_span()
    extra = 0
    for _ in range(4):
        window = (d0, d0 + span + WINDOW_GUARD + 2 + extra)
        family = lattice_family(P, window)
        provider = provider_from_family(family)
        try:
            pres, lineage = presentation_from_sections(provider, P.base)
            return pres, lineage, family
        except WindowExhausted:
            extra += 4
    raise WindowExhausted("resaturation window kept growing without settling")


# ---------------------------------------------------------------------------
# fiber images of sections


def fiber_value(
    P: GradedPresentation,
    q: FiberQuotient,
    d: int,
    e: int,
    vector,
) -> tuple[int, ...]:
    """Image of a pair-coordinate section of E(d) under q: a form of degree m+d.

    The pair (u, v) satisfies q(u) = x0^e w and q(v) = x1^e w mod p for a
    unique w, which is returned as its coefficient tuple (empty when m+d < 0).
    """
    gens = P.generators
    fdims = gens.piece_dims(d + e)
    f = sum(fdims)
    u, v = vector[:f], vector[f:]
    qu = _row_apply(q, gens.twists, fdims, d + e, u)
    qv = _row_apply(q, gens.twists, fdims, d + e, v)
    p = q.p
    target = q.m + d
    w = [0] * (target + 1) if target >= 0 else []
    for j, c in enumerate(qu):
        if j <= target:
            w[j] = c % p
        elif c % p:
            raise ProfileInconsistent("pair image not divisible by x0^e", "oracle")
    for j, c in enumerate(qv):
        if j < e:
            if c % p:
                raise ProfileInconsistent("pair image not divisible by x1^e", "oracle")
        elif (c - (w[j - e] if 0 <= j - e <= target else 0)) % p:
            raise ProfileInconsistent("chart images of the section disagree", "oracle")
    return tuple(w)


def _row_apply(q: FiberQuotient, twists, fdims, deg, coords):
    """Apply the quotient row to a generator-piece coordinate vector."""
    out_deg = q.m + deg
    out = [0] * (out_deg + 1) if out_deg >= 0 else []
    off = 0
    for form, a, dim in zip(q.row, twists, fdims):
        if dim > 0 and form.degree >= 0:
            # coords[off+k] multiplies x0^(s-k) x1^k, s = a + deg
            for k in range(dim):
                c = coords[off + k]
                if c:
                    for t, fc in enumerate(form.coeffs):
                        out[k + t] += c * fc
        off += dim
    return out


# ---------------------------------------------------------------------------
# apply through section lattices


@dataclass(frozen=True)
class TransformResult:
    """Kernel bundle plus the data needed to chain further transformations."""

    source: BundleHandle
    handle: BundleHandle
    lineage: GeneratorLineage
    family: SectionLatticeFamily
    quotient: FiberQuotient


def apply_full(B: BundleHandle, q: FiberQuotient) -> TransformResult:
    validate_quotient(B, q)
    P = B.presentation
    d0 = first_section_twist(P)
    if d0 is None:
        raise ProfileInconsistent("bundle has no sections anywhere", "oracle")
    span = P.twist_span()
    last = WindowExhausted("unreachable")
    for extra in (0, 4, 8):
        window = (d0, d0 + span + WINDOW_GUARD + 2 + extra)
        fam = lattice_family(P, window)

        def restrict(d, K, Bv, _fam=fam):
            return _kernel_piece(P, q, d, _fam.exponent, K)

        provider = provider_from_family(fam, restrict)
        try:
            pres, lineage = presentation_from_sections(provider, P.base)
        except WindowExhausted as exc:
            last = exc
            continue
        handle = bundle_handle(pres)
        _assert_transform_contract(B, handle, q)
        return TransformResult(B, handle, lineage, fam, q)
    raise last


def restricted_quotient(result: TransformResult, q: FiberQuotient) -> FiberQuotient:
    """Re-express a fiber quotient of the source against the kernel bundle.

    The kernel embeds in the source; composing with a quotient of the source
    gives quotient data for the kernel, one form per new generator.  Away
    from the transformation prime the composite stays surjective; in general
    the caller's validation decides.
    """
    src = result.source.presentation
    row = []
    for dg, vec in zip(result.lineage.degrees, result.lineage.vectors):
        w = fiber_value(src, q, dg, result.family.exponent, vec)
        deg = q.m + dg
        row.append(Form(deg, w) if deg >= 0 else Form.zero(deg))
    return FiberQuotient.make(q.p, q.m, row)


def _kernel_piece(P, q, d, e, K: LatticeBasis) -> LatticeBasis:
    """Sublattice of sections whose fiber image vanishes; contains p*K."""
    vecs = K.vectors()
    if not vecs:
        return K
    values = [fiber_value(P, q, d, e, v) for v in vecs]
    target = len(values[0])
    if target == 0:
        return K
    W = IntegerMatrix.from_rows(
        [[values[j][t] for j in range(len(vecs))] for t in range(target)],
        cols=len(vecs),
    )
    out = []
    for c in kernel_mod(W, q.p):
        acc = [0] * K.ambient
        for j, cj in enumerate(c):
            if cj:
                vj = vecs[j]
                for t in range(K.ambient):
                    acc[t] += cj * vj[t]
        out.append(tuple(acc))
    for v in vecs:
        out.append(tuple(q.p * x for x in v))
    return span_lattice(K.ambient, out)


def _kernel_quotient_degree(B: BundleHandle, result: TransformResult) -> int:
    """Degree of the line bundle E'/(p E) on the fiber, fitted degreewise.

    The quotient lattices E'_d/(p E_d) become full line-bundle section
    spaces once h^1 dies; the top window degrees are fitted and verified.
    """
    q, fam = result.quotient, result.family
    P = B.presentation
    dims = []
    for d in range(fam.d_min, fam.d_max + 1):
        piece = fam.piece(d)
        kernel = _kernel_piece(P, q, d, fam.exponent, piece.K)
        tvecs = [tuple(q.p * c for c in v) for v in piece.K.vectors()]
        tvecs += piece.B.vectors()
        _, orders = quotient_group_data(lattice_sum(kernel, piece.B), tvecs)
        if any(o != 0 and o != q.p for o in orders):
            raise ProfileInconsistent("kernel quotient is not an F_p space", "oracle")
        dims.append((d, sum(1 for o in orders if o == q.p)))
    (d_top, dim_top) = dims[-1]
    m_u = dim_top - d_top - 1
    for d, dim in dims[-3:]:
        if dim != m_u + d + 1:
            raise ProfileInconsistent(
                "kernel quotient does not match a line-bundle Hilbert function", "oracle"
            )
    return m_u


# ---------------------------------------------------------------------------
# splitting types from one pair-engine value


def splitting_scan(Q: GradedPresentation, degree: int) -> SplittingType:
    """Type (a, b) of a rank-2 bundle of the given degree from one pair-engine
    value, then the Hilbert-pattern check.  With h = floor(degree / 2),
    a <= h <= b gives h^0(E(-h-1)) = b - h."""
    half = degree // 2
    b = half + h0_dim(Q, -half - 1)
    st = SplittingType(degree - b, b)
    _check_pattern(Q, st)
    return st


# ---------------------------------------------------------------------------
# rank and degree from the Hilbert function at large twists


def probe_rank_degree(P: GradedPresentation) -> tuple[int, int]:
    """Rank and degree of the presented sheaf, assumed locally free.

    The rank is the slope of the Hilbert function h^0(d) at large twists and
    the degree comes from Riemann-Roch h^0(d) = r(d+1) + e there.  The probe
    twist is deterministic: the twist span plus 2, offset so that every
    generator summand already has sections; it steps forward while the
    pattern check fails, up to three attempts.
    """
    span = P.twist_span()
    top = max(P.all_twists(), default=0)
    D = span + 2 + max(0, -top)
    for _ in range(3):
        vals = [h0_dim(P, D), h0_dim(P, D + 1), h0_dim(P, D + 2)]
        r = vals[1] - vals[0]
        if vals[2] - vals[1] == r and r >= 0:
            return r, vals[0] - r * (D + 1)
        D += span + 2
    raise NotLocallyFree("Hilbert function does not match a bundle pattern")


# ---------------------------------------------------------------------------
# gcd of binary forms mod p, the coprimality reference


def form_gcd_degree_mod(f: Form, g: Form, p: int) -> int:
    """Degree of gcd(f, g) in F_p[x0, x1]; -1 if both reduce to zero."""
    fa = [c % p for c in f.coeffs]
    ga = [c % p for c in g.coeffs]
    if not any(fa) and not any(ga):
        return -1
    if not any(fa):
        return g.degree
    if not any(ga):
        return f.degree
    _, fmax = _nonzero_span(fa)
    _, gmax = _nonzero_span(ga)
    # x0-multiplicities: degree minus the top x1-exponent present
    v0 = min(f.degree - fmax, g.degree - gmax)
    u = _poly_gcd_mod(fa[: fmax + 1], ga[: gmax + 1], p)
    return v0 + (len(u) - 1)


def _nonzero_span(coeffs):
    nz = [j for j, c in enumerate(coeffs) if c]
    return nz[0], nz[-1]


def _poly_gcd_mod(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            if f:
                off = len(a) - len(b)
                for k in range(len(b)):
                    a[off + k] = (a[off + k] - f * b[k]) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a if a else [0]


# ---------------------------------------------------------------------------
# presentations that only the tests build


def structure_sheaf(base=ZZ) -> GradedPresentation:
    return free_presentation((0,), base)


def rationalize(P: GradedPresentation) -> GradedPresentation:
    """Retag an integral presentation as rational (coefficients unchanged)."""
    if P.base.kind != "ZZ":
        raise ValueError("rationalize requires an integral presentation")
    return GradedPresentation(QQ, P.map)
