"""Exact linear algebra over the integers, the rationals, and prime fields.

Everything in this module works with arbitrary-precision Python integers;
no floating point appears anywhere in the package.  The two data types are

* :class:`IntegerMatrix` -- an immutable dense matrix of ints, and
* :class:`LatticeBasis` -- a sublattice of Z^n held in a canonical column
  echelon form, so that two descriptions of the same lattice are equal as
  values.

Canonical form convention, fixed once and used everywhere: basis vectors are
the columns; the pivot (first nonzero entry) of each column sits in a strictly
later row than the pivot of the previous column; pivots are positive; within
each pivot row the entries belonging to earlier columns are reduced into
[0, pivot).  This is the transpose of the usual row-style Hermite normal form.

Two engines do every elimination: ``_echelon`` (with ``_reduce_above``)
over Z and ``rref_mod`` over F_p.  Smith invariants come from alternating
Hermite forms of a matrix and its transpose.  ``kernel_basis`` reads a
kernel off either engine from the columns of a matrix given as lists;
``kernel_lattice`` and ``kernel_mod`` wrap it for an ``IntegerMatrix``.
``projected_kernel_mod`` reads, off the same F_p elimination, a basis of
the kernel's projection onto its leading coordinates.

Both engines sweep the columns left to right and rely on one invariant: when
column c is reached, every row that is not yet a pivot row is zero left of
c, and so is the row chosen as pivot.  A row operation at column c therefore
changes only the live tail ``row[c:]``, and that is all the engines rewrite.
The integer transform of ``_echelon`` is not triangular and stays full width.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import ArithsurfError, frozen

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# matrices


@frozen
class IntegerMatrix:
    """Dense matrix of arbitrary-precision integers, row-major, immutable."""

    rows: int
    cols: int
    entries: Vec

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def from_rows(rows: list[list[int]] | tuple, cols: int | None = None) -> "IntegerMatrix":
        rows = list(rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        flat = []
        for r in rows:
            flat.extend(r)
        return IntegerMatrix(len(rows), ncols, tuple(flat))

    @staticmethod
    def from_columns(cols: list[list[int]] | list[Vec], nrows: int | None = None) -> "IntegerMatrix":
        cols = [list(c) for c in cols]
        if cols:
            n = len(cols[0])
            if any(len(c) != n for c in cols):
                raise ValueError("ragged columns")
        else:
            n = 0 if nrows is None else nrows
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        return IntegerMatrix.from_rows(rows, cols=len(cols))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vec:
        return self.entries[j :: self.cols] if self.cols else ()

    def rows_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns_list(self) -> list[list[int]]:
        return [list(self.column(j)) for j in range(self.cols)]

    def transpose(self) -> "IntegerMatrix":
        if self.cols == 0 or self.rows == 0:
            return IntegerMatrix(self.cols, self.rows, ())
        flat = []
        for j in range(self.cols):
            flat.extend(self.entries[j :: self.cols])
        return IntegerMatrix(self.cols, self.rows, tuple(flat))

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        orows = other.rows_list()
        for i in range(self.rows):
            ri = self.row(i)
            acc = [0] * other.cols
            for k, a in enumerate(ri):
                if a:
                    rk = orows[k]
                    for j in range(other.cols):
                        acc[j] += a * rk[j]
            out.append(acc)
        return IntegerMatrix.from_rows(out, cols=other.cols)

    def mul_vec(self, v: Vec | list[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        n = self.cols
        out = []
        for i in range(self.rows):
            row = self.entries[i * n : (i + 1) * n]
            out.append(sum(a * b for a, b in zip(row, v) if a))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [str(e) for e in self.entries]}


# ---------------------------------------------------------------------------
# integer echelon engine

# All echelon work happens on mutable lists of row lists.  Pivoting picks the
# smallest nonzero entry in the current column, which keeps intermediate
# entries modest on the structured matrices this package produces.


def _echelon(rows: list[list[int]], ncols: int, transform: bool = False):
    """Bring ``rows`` to integer row echelon form by unimodular row operations.

    Returns ``(rows, pivots, trans)`` where ``pivots`` is a list of
    ``(row, col)`` pairs with positive pivot entries and ``trans`` (if
    requested) satisfies ``trans * original = rows``.  Zero rows end up at
    the bottom.  The inner row lists are rewritten in place; every caller
    builds them for the call.
    """
    m = len(rows)
    trans = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        # Euclidean elimination in column c on rows r..m-1, all zero left of c.
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
            tail = rows[r][c:]
            piv = tail[0]
            for i in range(r + 1, m):
                row = rows[i]
                if row[c] != 0:
                    q = row[c] // piv
                    if q:
                        row[c:] = [a - q * b for a, b in zip(row[c:], tail)]
                        if trans is not None:
                            trans[i] = [a - q * b for a, b in zip(trans[i], trans[r])]
                    if row[c] != 0:
                        done = False
            if done:
                break
        if r < m and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r][c:] = [-a for a in rows[r][c:]]
                if trans is not None:
                    trans[r] = [-a for a in trans[r]]
            pivots.append((r, c))
            r += 1
    return rows, pivots, trans


def _reduce_above(rows: list[list[int]], pivots: list[tuple[int, int]], trans=None):
    """Reduce entries above each pivot into [0, pivot), left to right.

    ``trans``, when given, undergoes the same row operations, so that
    ``trans * original = rows`` still holds for a transform of ``_echelon``.
    A pivot row is zero left of its pivot, so only the tails change, in
    place.
    """
    for (r, c) in pivots:
        tail = rows[r][c:]
        piv = tail[0]
        for i in range(r):
            row = rows[i]
            q = row[c] // piv
            if q:
                row[c:] = [a - q * b for a, b in zip(row[c:], tail)]
                if trans is not None:
                    trans[i] = [a - q * b for a, b in zip(trans[i], trans[r])]
    return rows


def row_hnf(vectors: list[list[int]] | list[Vec], ncols: int) -> list[Vec]:
    """Canonical row Hermite form of the lattice spanned by ``vectors``."""
    rows = [list(v) for v in vectors]
    rows, pivots, _ = _echelon(rows, ncols)
    _reduce_above(rows, pivots)
    return [tuple(rows[i]) for (i, _) in pivots]


def rank_of(M: IntegerMatrix) -> int:
    """Rank of an integer matrix over the rationals."""
    _, pivots, _ = _echelon(M.rows_list(), M.cols)
    return len(pivots)


def determinant(M: IntegerMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.rows_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# lattices


@frozen
class LatticeBasis:
    """A sublattice of Z^n in canonical column echelon form.

    ``matrix`` holds the basis vectors as columns; see the module docstring
    for the exact normalization.  Equal lattices compare equal as values.
    """

    ambient: int
    matrix: IntegerMatrix

    @staticmethod
    def from_vectors(ambient: int, vectors) -> "LatticeBasis":
        canon = row_hnf(vectors, ambient)
        return LatticeBasis(ambient, IntegerMatrix.from_columns(canon, nrows=ambient))

    @property
    def rank(self) -> int:
        return self.matrix.cols

    def vectors(self) -> list[Vec]:
        return [self.matrix.column(j) for j in range(self.matrix.cols)]



def kernel_lattice(M: IntegerMatrix) -> LatticeBasis:
    """Canonical basis of the saturated lattice {v in Z^cols : Mv = 0}."""
    return LatticeBasis.from_vectors(M.cols, kernel_basis(M.columns_list()))


def span_lattice(ambient: int, vectors) -> LatticeBasis:
    return LatticeBasis.from_vectors(ambient, vectors)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_invariants(M: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Alternating Hermite forms (Kannan & Bachem, SIAM J. Comput. 8(4), 1979):
    the row Hermite form of the columns of M is a basis of its column
    lattice, and the row Hermite form of the transpose of the result, then
    of its transpose, and so on, brings it to a diagonal r x r matrix,
    r = rank.  Each form keeps its entries reduced below their pivots, so
    the coefficients stay small.  Replacing diagonal pairs by their gcd and
    lcm then gives the divisibility chain.
    """
    a = row_hnf(M.columns_list(), M.rows)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = row_hnf(list(zip(*a)), len(a))
    out = [row[i] for i, row in enumerate(a)]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] * out[j] // g
    for d, e in zip(out, out[1:]):
        if e % d:
            raise ArithsurfError(f"invariant factor chain broken: {d} does not divide {e}")
    return tuple(out)


# ---------------------------------------------------------------------------
# prime fields


def _inv_mod(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


def rref_mod(rows: list[list[int]], ncols: int, p: int):
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        for sel in range(r, m):
            if a[sel][c]:
                break
        else:
            continue
        a[r], a[sel] = a[sel], a[r]
        pivot = a[r]
        tail = pivot[c:]
        if tail[0] != 1:
            inv = _inv_mod(tail[0], p)
            tail = [(x * inv) % p for x in tail]
            pivot[c:] = tail
        for row in a:
            f = row[c]
            if f and row is not pivot:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        piv_cols.append(c)
        r += 1
    return [tuple(row) for row in a[:r]], piv_cols


def rank_mod(M: IntegerMatrix, p: int) -> int:
    rows, _ = rref_mod(M.rows_list(), M.cols, p)
    return len(rows)


def kernel_mod(M: IntegerMatrix, p: int) -> list[Vec]:
    """Basis of the kernel of M over F_p."""
    return kernel_basis([M.column(j) for j in range(M.cols)], p)


def kernel_basis(columns: list, p: int = 0) -> list:
    """Basis of {v : sum_j v_j columns[j] = 0}, columns given as equal-length lists.

    Over F_p (p prime) the basis has one vector per free column of the RREF
    of the rows, entries in [0, p).  Over Z (p = 0) it is the transform rows
    of the echelon of the columns that pair with zero echelon rows: rows of
    a unimodular matrix, they span the saturated kernel, but they are not
    canonical (``LatticeBasis.from_vectors`` makes them so).  Over Z the
    column lists are rewritten in place; callers build them for the call.
    """
    ncols = len(columns)
    if p:
        rows, piv_cols = rref_mod(list(zip(*columns)), ncols, p)
        return _free_vectors(rows, piv_cols, ncols, ncols, p)
    _, pivots, trans = _echelon(columns, len(columns[0]) if columns else 0, transform=True)
    pivot_rows = {i for (i, _) in pivots}
    return [trans[i] for i in range(ncols) if i not in pivot_rows]


def _free_vectors(rows, piv_cols: list[int], ncols: int, n: int, p: int) -> list[Vec]:
    """The kernel vector of each free column fc of an RREF over F_p, cut to
    its first n coordinates: 1 at fc when fc < n, and -rows[r][fc] at each
    pivot column below n, entries in [0, p).  Free columns ascend."""
    pivots = set(piv_cols)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = [[0] * n for _ in free]
    for i, fc in enumerate(free):
        if fc >= n:
            break
        vecs[i][fc] = 1
    for row, pc in zip(rows, piv_cols):
        if pc >= n:
            break
        for v, fc in zip(vecs, free):
            x = row[fc]
            if x:
                v[pc] = p - x
    return [tuple(v) for v in vecs]


def projected_kernel_mod(columns: list, n: int, p: int) -> list[Vec]:
    """A basis over F_p of the projection of {v : sum_j v_j columns[j] = 0}
    onto its first n coordinates, read off the RREF of the rows.

    Each free column fc < n of the RREF gives its kernel vector cut to n
    coordinates: 1 at fc, zero at the other free columns below n.  The free
    columns from n on give vectors carried by the pivot columns below n
    alone; their span is brought to RREF, and only when one of them is
    nonzero.  The two sets are independent, since the first has its 1s at
    distinct coordinates where the second is 0, so together they are a
    basis (not a canonical form) and the rank is their count.
    """
    rows, piv_cols = rref_mod(list(zip(*columns)), len(columns), p)
    vecs = _free_vectors(rows, piv_cols, len(columns), n, p)
    direct = n - sum(1 for c in piv_cols if c < n)
    extra = [v for v in vecs[direct:] if any(v)]
    if extra:
        extra, _ = rref_mod(extra, n, p)
    return vecs[:direct] + extra


# ---------------------------------------------------------------------------
# primality and factoring

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below 2^64, fixed witnesses above."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    for q in (2, 3, 5):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 100000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    rng = random.Random(0xA51)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_brent(m, rng)
        stack.append(g)
        stack.append(m // g)
    return out


def prime_divisors(n: int) -> list[int]:
    """Sorted prime divisors of |n|; empty for n in {-1, 0, 1}."""
    if n == 0 or abs(n) == 1:
        return []
    return sorted(factorize(n))
