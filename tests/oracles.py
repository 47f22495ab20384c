"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the production code paths: rational
Gaussian elimination with Fraction arithmetic instead of integer echelon
forms and cofactor determinants instead of Bareiss.  There is one
elimination per base: ``gauss_rref`` over Q and ``reference_rref_mod`` over
F_p, and every rank and kernel here is read off one of them, the kernels
through ``free_column_kernel``.  ``reference_rref_mod``,
``reference_echelon`` and ``reference_reduce_above`` are exactlat's kernels
before they learned to rewrite only the live tail of each row; the kernels
must give exactly their outputs.

The global-section solver is ``arithsurf.selftest.oracle_h0``, shared with
the acceptance criteria, and so are its pair matrix ``_oracle_pair_rows``
and its exponent ``oracle_exponent``: the pair space at one exponent e*
fixed by the twists of the free resolution, where it is H^0 as a group
(Eisenbud, GTM 229, App. 1).  The rest uses exactlat's integer lattices but
no part of the runtime's pair engine.  ``section_lattices`` holds H^0(M~(d))
over a window of twists as lattices (K, B) at e* of the first twist, and
``pair_kernel_rref_mod`` reads K over F_p.  ``apply_full`` and
``restricted_quotient`` compute an elementary transformation through them,
the reference for the closed forms of the package: the kernel's sections at
one twist fixed by the twists, with their linear syzygies, present it
(Castelnuovo-Mumford), so no window is scanned or grown.
``_kernel_quotient_degree`` fits the degree of the blow-up record from the
fiber map on the same lattices.  ``splitting_scan`` reads a splitting type
off one ``oracle_h0`` value and checks its Hilbert pattern, the reference
for the types that ``bundles`` reads off the dual, and
``probe_rank_degree`` reads rank and degree off ``oracle_h0`` past the
generator twists, the reference for ``cohomology.sheaf_rank_degree``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from arithsurf.bundles import BundleHandle, SplittingType, bundle_handle
from arithsurf.errors import CompositeModulus, NotLocallyFree, ProfileInconsistent
from arithsurf.exactlat import (
    IntegerMatrix,
    LatticeBasis,
    is_prime,
    kernel_lattice,
    kernel_mod,
    rank_mod,
    rank_of,
)
from arithsurf.graded import QQ, ZZ, Form, GradedPresentation, cokernel_presentation, free_presentation
from arithsurf.selftest import (
    _oracle_pair_rows,
    _oracle_rel_matrix,
    _piece_dims,
    oracle_exponent,
    oracle_h0,
    oracle_splitting,
)
from arithsurf.transforms import FiberQuotient, _assert_transform_contract, validate_quotient

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# one elimination per base: Fraction RREF over Q, full-row RREF over F_p


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


def gauss_rref(rows, ncols):
    """Reduced row echelon form over Q in Fraction arithmetic; returns
    (rows, pivot columns) as ``reference_rref_mod`` does over F_p."""
    a = [[Fraction(x) for x in row] for row in rows]
    piv_cols: list[int] = []
    for c in range(ncols):
        r = len(piv_cols)
        sel = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
    return a[: len(piv_cols)], piv_cols


def free_column_kernel(rows, piv_cols, ncols, p=None):
    """The kernel read off a reduced row echelon form: one vector per free
    column, 1 there and minus that column's pivot-row entries (mod p when p
    is given) at the pivot columns."""
    basis = []
    for fc in range(ncols):
        if fc not in piv_cols:
            v = [0] * ncols
            v[fc] = 1
            for row, pc in zip(rows, piv_cols):
                v[pc] = -row[fc] % p if p else -row[fc]
            basis.append(v)
    return basis


def gauss_rank(rows):
    """Rank over Q via Fraction Gaussian elimination."""
    return len(gauss_rref(rows, len(rows[0]) if rows else 0)[1])


def gauss_kernel(rows, ncols):
    """Basis of the rational kernel (free-variable form)."""
    return free_column_kernel(*gauss_rref(rows, ncols), ncols)


def rank_mod_p(rows, p):
    return len(reference_rref_mod(rows, len(rows[0]) if rows else 0, p)[1])


# ---------------------------------------------------------------------------
# determinants and minors


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
    kernel = free_column_kernel(*reference_rref_mod([list(t) for t in zip(*vectors)], k, p), k, p)
    return kernel[0] if kernel else None


# ---------------------------------------------------------------------------
# full-row integer eliminations: exactlat's kernels as they were before they
# learned to touch only the live tail of each row, kept verbatim as references


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
# section lattices at the one exact exponent


def pair_kernel_rref_mod(P: GradedPresentation, d: int, e: int, p: int) -> list[Vec]:
    """The pairs K of ``pair_lattices`` over F_p, in reduced row echelon form:
    the kernel of the stacked matrix mod p in free-variable form, cut to its
    (u, v) coordinates and reduced by ``reference_rref_mod``."""
    f, stacked = _oracle_pair_rows(P, d, e)
    ncols = 2 * f + sum(_piece_dims(P.map.source.twists, d + 2 * e))
    kernel = free_column_kernel(*reference_rref_mod(stacked, ncols, p), ncols, p)
    return reference_rref_mod([v[: 2 * f] for v in kernel], 2 * f, p)[0]


def pair_lattices(P: GradedPresentation, d: int, e: int) -> tuple[LatticeBasis, LatticeBasis]:
    """The pair space of ``selftest._oracle_pair_dim`` as two lattices (K, B).

    K holds the pairs (u, v) of degree-(d+e) generator vectors with
    x1^e u - x0^e v in the image of phi, B the pairs of relation images.
    From e = e*(d) on, K/B is H^0(M~(d)) as a group, not only in rank: the
    Koszul comparison behind ``oracle_h0`` is one of free modules with
    monomial bases, so it holds over Z.  Each generator's segment of u and v
    lists its monomials x0^(s-k) x1^k by k.
    """
    f, stacked = _oracle_pair_rows(P, d, e)
    if not f:
        empty = LatticeBasis.from_vectors(0, [])
        return empty, empty
    kernel = kernel_lattice(IntegerMatrix.from_rows(stacked, cols=len(stacked[0])))
    K = LatticeBasis.from_vectors(2 * f, [v[: 2 * f] for v in kernel.vectors()])
    phi1 = _oracle_rel_matrix(P, d + e)
    zero = (0,) * f
    images = [tuple(row[j] for row in phi1) for j in range(len(phi1[0]))]
    B = LatticeBasis.from_vectors(2 * f, [c + zero for c in images] + [zero + c for c in images])
    return K, B


def pair_times(P: GradedPresentation, d: int, e: int, var: int, vec) -> Vec:
    """Multiplication by x_var from twist d to d + 1 on a pair vector at
    exponent e: x0 appends a zero to each generator's segment, x1 prepends
    one."""
    gens = P.map.target.twists
    dims = _piece_dims(gens, d + e)
    f = sum(dims)
    out = []
    for half in (vec[:f], vec[f:]):
        off = 0
        for a, dim in zip(gens, dims):
            seg = list(half[off : off + dim])
            off += dim
            if a + d + e + 1 >= 0:
                out.extend(seg + [0] if var == 0 else [0] + seg)
    return tuple(out)


@dataclass(frozen=True)
class SectionLattices:
    """H^0(M~(d)) for d from ``d_min`` on, as pair lattices (K, B) at one
    exponent, so that multiplication by x0 and x1 maps each into the next."""

    presentation: GradedPresentation
    d_min: int
    exponent: int
    pieces: tuple[tuple[LatticeBasis, LatticeBasis], ...]

    def twists(self) -> range:
        return range(self.d_min, self.d_min + len(self.pieces))

    def mult(self, d: int, var: int, vec) -> Vec:
        return pair_times(self.presentation, d, self.exponent, var, vec)


def section_lattices(P: GradedPresentation, d_min: int, d_max: int) -> SectionLattices:
    """Section lattices at twists d_min..d_max, all at the exponent e*(d_min)."""
    e = oracle_exponent(P, d_min)
    return SectionLattices(P, d_min, e, tuple(pair_lattices(P, d, e) for d in range(d_min, d_max + 1)))


# ---------------------------------------------------------------------------
# quotient groups of lattices by Smith diagonalization


def _smith_left_inverse(X: list[list[int]], k: int, l: int):
    """Diagonalize a k x l matrix, tracking the inverse of the row transform.

    Returns ``(diag, uinv)`` with ``U X V = D`` diagonal; ``diag`` lists the
    k diagonal entries of D (zeros included) and ``uinv`` holds the columns
    of U^{-1}.  Each pivot takes the least nonzero entry of the remaining
    block until it divides its row, its column and the block.  U is a product
    of one kind of row operation, mirrored into U^{-1} by its inverse column
    operation; column operations (V) are not tracked.
    """
    a = [list(row) for row in X]
    uinv = [[int(i == j) for j in range(k)] for i in range(k)]

    def add(dst: int, src: int, q: int):
        # a[dst] += q a[src]; its inverse right-multiplies U^{-1} as
        # column src -= q column dst
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    top = 0
    while top < min(k, l):
        block = [(abs(a[i][j]), i, j) for i in range(top, k) for j in range(top, l) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        if i != top:  # rows (top, i) become (a_i, -a_top)
            add(top, i, 1)
            add(i, top, -1)
            add(top, i, 1)
        for row in a:
            row[top], row[j] = row[j], row[top]
        piv = a[top][top]
        for i in range(top + 1, k):
            add(i, top, -(a[i][top] // piv))
        for j in range(top + 1, l):
            q = a[top][j] // piv
            for row in a:
                row[j] -= q * row[top]
        if any(a[i][top] for i in range(top + 1, k)) or any(a[top][top + 1 :]):
            continue  # a remainder below |piv| is the next pivot
        bad = next((i for i in range(top + 1, k) if any(x % piv for x in a[i][top + 1 :])), None)
        if bad is not None:
            add(top, bad, 1)
            continue
        if piv < 0:
            for row in a:
                row[top] = -row[top]
        top += 1
    return [a[i][i] if i < l else 0 for i in range(k)], uinv


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


def _kernel_mod_span(columns: list[Vec], B: LatticeBasis, ambient: int) -> LatticeBasis:
    """Lattice { c : sum c_i columns_i lies in span(B) }."""
    n, bvecs = len(columns), B.vectors()
    rows = [[col[t] for col in columns] + [bv[t] for bv in bvecs] for t in range(ambient)]
    kernel = kernel_lattice(IntegerMatrix.from_rows(rows, cols=n + len(bvecs)))
    return LatticeBasis.from_vectors(n, [v[:n] for v in kernel.vectors()])


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
    twists = P.map.target.twists
    fdims = _piece_dims(twists, d + e)
    f = sum(fdims)
    u, v = vector[:f], vector[f:]
    qu = _row_apply(q, twists, fdims, d + e, u)
    qv = _row_apply(q, twists, fdims, d + e, v)
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


def _fiber_values(P, q, d, e, vecs) -> list[list[int]]:
    """The fiber map on sections of E(d): column j is the image of vecs[j]."""
    return [list(row) for row in zip(*(fiber_value(P, q, d, e, v) for v in vecs))]


def _kernel_piece(P, q, d, e, K: LatticeBasis) -> LatticeBasis:
    """Sublattice of sections whose fiber image vanishes: the lifts of the
    kernel mod p, and p*K."""
    vecs = K.vectors()
    W = IntegerMatrix.from_rows(_fiber_values(P, q, d, e, vecs), cols=len(vecs))
    lifts = [
        tuple(sum(c * v[t] for c, v in zip(combo, vecs)) for t in range(K.ambient))
        for combo in kernel_mod(W, q.p)
    ]
    return LatticeBasis.from_vectors(K.ambient, lifts + [tuple(q.p * x for x in v) for v in vecs])


# ---------------------------------------------------------------------------
# an elementary transformation through section lattices


@dataclass(frozen=True)
class TransformResult:
    """Kernel bundle plus the data needed to chain further transformations:
    its generators as sections of the source at the first twist of the
    window."""

    source: BundleHandle
    handle: BundleHandle
    generators: tuple[Vec, ...]
    lattices: SectionLattices
    quotient: FiberQuotient


def apply_full(B: BundleHandle, q: FiberQuotient) -> TransformResult:
    """The kernel E' of q: E -> O(m) on the fiber at p, presented by the
    sections of E'(c) with their linear syzygies, at one twist c fixed by
    the twists.

    Every fiber type of E and of E' is at least low = min(a_i, m, deg E - m)
    over the generator twists a_i: away from p, E' is E, a quotient of
    F0 = sum O(a_i); at p, E' is an extension of ker(E_p -> O(m)), of
    degree deg E - m, by O(m).  With c = -low, H^1 of every fiber of
    E'(c-1) vanishes, so over Z (by base change and Nakayama) the sections
    of E' from twist c on are generated by those at c, with syzygies
    generated at c + 1 (Castelnuovo-Mumford).  H^0(E'(d)) is the kernel of
    the fiber map on H^0(E(d)), read at e*(c) by ``section_lattices``.
    """
    validate_quotient(B, q)
    P = B.presentation
    c = -min(min(P.map.target.twists), q.m, B.degree - q.m)
    lat = section_lattices(P, c, c + 2)
    (K0, B0), (K1, B1) = lat.pieces[:2]
    gens, orders = quotient_group_data(_kernel_piece(P, q, c, lat.exponent, K0), B0.vectors())
    if any(orders):
        raise ProfileInconsistent("sections of the kernel have torsion", "oracle")
    products = [lat.mult(c, var, g) for g in gens for var in (0, 1)]
    syzygies = _kernel_mod_span(products, B1, K1.ambient).vectors()
    columns = [(-c - 1, [Form(1, s[2 * i : 2 * i + 2]) for i in range(len(gens))]) for s in syzygies]
    handle = bundle_handle(cokernel_presentation((-c,) * len(gens), columns))
    _assert_transform_contract(B, handle, q)
    return TransformResult(B, handle, tuple(gens), lat, q)


def restricted_quotient(result: TransformResult, q: FiberQuotient) -> FiberQuotient:
    """Re-express a fiber quotient of the source against the kernel bundle.

    The kernel embeds in the source; composing with a quotient of the source
    gives quotient data for the kernel, one form per generator.  Away from
    the transformation prime the composite stays surjective; in general the
    caller's validation decides.
    """
    src, c = result.source.presentation, result.lattices.d_min
    deg = q.m + c
    row = [fiber_value(src, q, c, result.lattices.exponent, g) for g in result.generators]
    return FiberQuotient.make(q.p, q.m, [Form(deg, w) if deg >= 0 else Form.zero(deg) for w in row])


def _kernel_quotient_degree(B: BundleHandle, result: TransformResult) -> int:
    """Degree of the line bundle E'/(p E) on the fiber, fitted degreewise.

    H^0(E(d)) = K/B is free, so mod p it has dimension rank K - rank B, and
    H^0(E'(d))/p H^0(E(d)) is the kernel of the fiber map on it.  These are
    the full section spaces of E'/pE once H^1 of E dies, which holds at the
    three twists of the window (see ``apply_full``); the top one fits the
    degree and the other two verify it.
    """
    q, lat = result.quotient, result.lattices
    dims = [
        (d, K.rank - Bv.rank - rank_mod_p(_fiber_values(B.presentation, q, d, lat.exponent, K.vectors()), q.p))
        for d, (K, Bv) in zip(lat.twists(), lat.pieces)
    ]
    d_top, dim_top = dims[-1]
    m_u = dim_top - d_top - 1
    if any(dim != m_u + d + 1 for d, dim in dims):
        raise ProfileInconsistent("kernel quotient does not match a line-bundle Hilbert function", "oracle")
    return m_u


# ---------------------------------------------------------------------------
# splitting types, rank and degree from oracle h^0 values


def splitting_scan(Q: GradedPresentation, degree: int) -> SplittingType:
    """Type (a, b) of a rank-2 bundle of the given degree from one oracle
    value (``selftest.oracle_splitting``), then the Hilbert pattern of that
    type against ``oracle_h0`` at the twists -b-1 .. -b+3."""
    st = SplittingType(*oracle_splitting(Q, degree))
    for d in range(-st.b - 1, -st.b + 4):
        if oracle_h0(Q, d) != st.h0_at(d):
            raise ProfileInconsistent(f"oracle h0 at twist {d} does not match splitting {st}", "oracle")
    return st


def probe_rank_degree(P: GradedPresentation) -> tuple[int, int]:
    """Rank and degree of the presented sheaf from ``oracle_h0`` at three
    twists where h^1 vanishes, so that h^0(d) = r(d+1) + e there.

    M~ is a quotient of F0 = sum O(a_i) and H^1 is right exact on a curve,
    so h^1(M~(d)) = 0 for d >= -min(a_i) - 1; the probe starts one past that.
    """
    D = -min(P.map.target.twists, default=0)
    vals = [oracle_h0(P, D + k) for k in range(3)]
    r = vals[1] - vals[0]
    if vals[2] - vals[1] != r:
        raise NotLocallyFree("Hilbert function is not linear past the generator twists")
    return r, vals[0] - r * (D + 1)


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
