"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the production code paths: rational
Gaussian elimination with Fraction arithmetic instead of integer echelon
forms and cofactor determinants instead of Bareiss.  The brute-force
global-section solver is ``arithsurf.selftest.oracle_h0``, shared with the
acceptance criteria.  The one exception is ``resaturate`` at the end, a
driver that feeds a presentation's own section lattices to the production
sections -> presentation engine so the engine can be tested on its own.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from arithsurf.cohomology import (
    GeneratorLineage,
    SectionLatticeFamily,
    first_section_twist,
    lattice_family,
    presentation_from_sections,
    provider_from_family,
    window_guard,
)
from arithsurf.errors import NotLocallyFree, WindowExhausted
from arithsurf.graded import GradedPresentation


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
        window = (d0, d0 + span + window_guard() + 2 + extra)
        family = lattice_family(P, window)
        provider = provider_from_family(family)
        try:
            pres, lineage = presentation_from_sections(provider, P.base)
            return pres, lineage, family
        except WindowExhausted:
            extra += 4
    raise WindowExhausted("resaturation window kept growing without settling")
