"""Independent expected values for the benchmark's correctness gate.

Nothing here imports arithsurf.  Ranks use Fraction or mod-p Gauss-Jordan
elimination written out below, determinants use cofactor expansion, and
primality is a plain Miller-Rabin test, so an answer checked against this
module is checked against arithmetic that shares no code with the path
being timed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PRIMES_TO_400 = tuple(p for p in range(2, 401) if is_prime(p))


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def small_prime_divisors(n: int) -> list[int]:
    """Prime divisors by trial division; for the small numbers used here."""
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# ranks and determinants


def rank_q(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    return _gauss_rank(a, lambda x: x != 0, lambda x: 1 / x, lambda x: x)


def rank_mod(rows, p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    return _gauss_rank(a, bool, lambda x: pow(x, p - 2, p), lambda x: x % p)


def _gauss_rank(a, nonzero, inverse, norm) -> int:
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(a)) if nonzero(a[i][c])), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = inverse(a[r][c])
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and nonzero(a[i][c]):
                f = a[i][c]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        r += 1
    return r


def cofactor_det(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# binary forms


def forms_coprime_mod(g, h, p: int) -> bool:
    """True when binary forms g, h (coefficient lists, decreasing x0-power)
    have no common zero on the projective line over the algebraic closure
    of F_p: their Sylvester matrix is invertible mod p."""
    m, n = len(g) - 1, len(h) - 1
    size = m + n
    if size == 0:
        return g[0] % p != 0 or h[0] % p != 0
    rows = [[0] * i + list(g) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(h) + [0] * (m - 1 - i) for i in range(m)]
    return rank_mod(rows, p) == size


def render_form(coeffs) -> str:
    """A binary form in the CLI grammar, 'c*x0^a*x1^b' terms, '0' if zero."""
    d = len(coeffs) - 1
    parts = []
    for j, c in enumerate(coeffs):
        if c:
            parts.append(f"{c}*x0^{d - j}*x1^{j}".replace("*x0^0", "").replace("*x1^0", ""))
    return "+".join(parts).replace("+-", "-") or "0"


def equation_string(n: int, coeffs) -> str:
    """The canonical normal-form equation as the README documents it."""

    def mono(i, j, tail):
        fs = (["x0" if i == 1 else f"x0^{i}"] if i else [])
        fs += (["x1" if j == 1 else f"x1^{j}"] if j else [])
        return "*".join(fs + [tail])

    out = [mono(n, 0, "y0"), "+ " + mono(0, n, "y1")]
    for j, c in enumerate(coeffs):
        if c:
            term = mono(n - j, j, "y2")
            if abs(c) != 1:
                term = f"{abs(c)}*{term}"
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out) + " = 0"


# ---------------------------------------------------------------------------
# normal forms x0^n y0 + x1^n y1 + f y2: splitting types from syzygies


def _syzygy_matrix(n: int, f, t: int):
    """(A, B, C) -> A x0^n + B x1^n + C f from degree-t triples to degree t+n."""
    rows = [[0] * (3 * (t + 1)) for _ in range(t + n + 1)]
    for j in range(t + 1):
        rows[j][j] = 1
        rows[j + n][t + 1 + j] = 1
        for k, c in enumerate(f):
            rows[j + k][2 * (t + 1) + j] = c
    return rows


def _first_syzygy(n: int, f, rank) -> int:
    """Smallest degree of a syzygy of (x0^n, x1^n, f); the bundle
    coker(O(-n) -> O^3) splits as O(a) + O(n-a) with a this degree."""
    t = 0
    while rank(_syzygy_matrix(n, f, t)) == 3 * (t + 1):
        t += 1
    return t


def nf_generic(n: int, f) -> tuple[int, int]:
    a = _first_syzygy(n, f, rank_q)
    return (a, n - a)


def nf_type_mod(n: int, f, p: int) -> tuple[int, int]:
    a = _first_syzygy(n, f, lambda rows: rank_mod(rows, p))
    return (a, n - a)


def nf_jump_modulus(n: int, f) -> int:
    """gcd of the maximal minors of the syzygy map one degree below the
    generic first syzygy: a prime jumps exactly when it divides this."""
    a = nf_generic(n, f)[0]
    if a == 0:
        return 1
    rows = _syzygy_matrix(n, f, a - 1)
    g = 0
    for pick in combinations(range(len(rows)), 3 * a):
        g = gcd(g, cofactor_det([rows[i] for i in pick]))
        if g == 1:
            break
    return g


def check_jump_set(jumps: dict[int, tuple[int, int]], modulus: int, type_at) -> str | None:
    """None when the jump primes are exactly the prime divisors of
    ``modulus`` and each carries ``type_at(p)``; no factoring needed."""
    rest = modulus
    for p, st in jumps.items():
        if not is_prime(p) or rest % p:
            return f"{p} is not a jump prime"
        while rest % p == 0:
            rest //= p
        if tuple(st) != type_at(p):
            return f"type at {p} is {tuple(st)}, expected {type_at(p)}"
    if rest != 1:
        return f"jump primes missing: cofactor {rest} left"
    return None


# ---------------------------------------------------------------------------
# del Pezzo point configurations


def gp_witnesses(points) -> list[dict]:
    """Witnesses of the first failing general-position check (pairs, then
    triples) in the CLI's JSON form; empty when in general position."""
    out = []
    for i, j in combinations(range(len(points)), 2):
        (a, b, c), (d, e, f) = points[i], points[j]
        g = gcd(gcd(b * f - c * e, a * f - c * d), a * e - b * d)
        if g == 0:
            out.append(_witness("pair", (i, j), [], "identical"))
        elif g != 1:
            out.append(_witness("pair", (i, j), small_prime_divisors(g), "collide mod p"))
    if out:
        return out
    for idx in combinations(range(len(points)), 3):
        det = cofactor_det([list(points[i]) for i in idx])
        if det == 0:
            out.append(_witness("triple", idx, [], "collinear"))
        elif abs(det) != 1:
            out.append(_witness("triple", idx, small_prime_divisors(det), "collinear mod p"))
    return out


def _witness(kind, indices, primes, note) -> dict:
    return {"kind": kind, "indices": list(indices), "primes": [str(p) for p in primes], "note": note}
