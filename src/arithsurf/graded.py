"""Binary forms over Z and graded presentations of sheaves on the projective line.

A sheaf is stored as the sheafified cokernel of a degree-compatible map of
free graded modules over Z[x0, x1] (or its reductions).  The twist convention
is fixed so that a free summand of twist ``a`` has degree-d piece of dimension
``a + d + 1``: cohomology of line bundles reads directly off twists.

Monomials of degree d are always ordered by decreasing x0-power:
x0^d, x0^(d-1)*x1, ..., x1^d.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CompositeModulus, frozen, schema_checked
from .exactlat import IntegerMatrix, _echelon, is_prime, rank_mod, rank_of


# ---------------------------------------------------------------------------
# base rings


@frozen
class Ring:
    """Base ring tag: the integers, the rationals, or a prime field."""

    kind: str  # "ZZ" | "QQ" | "GF"
    char: int = 0

    def __str__(self):
        return f"GF({self.char})" if self.kind == "GF" else self.kind


ZZ = Ring("ZZ")
QQ = Ring("QQ")


@lru_cache(maxsize=None)
def GF(p: int) -> Ring:
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    return Ring("GF", p)


def ring_from_tag(tag: str) -> Ring:
    if tag == "ZZ":
        return ZZ
    if tag == "QQ":
        return QQ
    if tag.startswith("GF(") and tag.endswith(")"):
        return GF(int(tag[3:-1]))
    raise ValueError(f"unknown ring tag {tag!r}")


# ---------------------------------------------------------------------------
# forms


def monomial_basis(d: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (i, j) with i+j = d, decreasing x0-power; empty for d < 0."""
    if d < 0:
        return ()
    return tuple((d - j, j) for j in range(d + 1))


@frozen
class Form:
    """Homogeneous binary form sum(c_j * x0^(d-j) * x1^j) with integer coefficients.

    The zero form carries an explicit degree tag; degrees below zero denote
    the zero entry of a slot whose required degree is negative and carry no
    coefficients.
    """

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        expect = self.degree + 1 if self.degree >= 0 else 0
        if len(self.coeffs) != expect:
            raise ValueError("coefficient count must be degree + 1")

    @staticmethod
    def make(degree: int, coeffs) -> "Form":
        return Form(degree, tuple(int(c) for c in coeffs))

    @staticmethod
    def zero(degree: int) -> "Form":
        return Form(degree, (0,) * (degree + 1) if degree >= 0 else ())

    @staticmethod
    def monomial(degree: int, j: int, coeff: int = 1) -> "Form":
        c = [0] * (degree + 1)
        c[j] = coeff
        return Form(degree, tuple(c))

    @staticmethod
    def constant(c: int) -> "Form":
        return Form(0, (int(c),))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def map_coeffs(self, fn) -> "Form":
        return Form(self.degree, tuple(fn(c) for c in self.coeffs))

    def add(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return Form(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c: int) -> "Form":
        return self.map_coeffs(lambda a: c * a)

    def mul(self, other: "Form") -> "Form":
        if self.degree < 0 or other.degree < 0:
            return Form.zero(self.degree + other.degree)
        d = self.degree + other.degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Form(d, tuple(out))

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "Form":
        return Form(int(obj["degree"]), tuple(int(c) for c in obj["coeffs"]))

    def __str__(self):
        return form_to_str(self)


def form_to_str(f: Form) -> str:
    """Render in the fixed ASCII grammar: 'c*x0^a*x1^b' terms joined by +/-."""
    if f.degree < 0 or f.is_zero():
        return "0"
    parts = []
    for (i, j), c in zip(monomial_basis(f.degree), f.coeffs):
        if c == 0:
            continue
        factors = []
        if i > 0:
            factors.append("x0" if i == 1 else f"x0^{i}")
        if j > 0:
            factors.append("x1" if j == 1 else f"x1^{j}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def parse_form(text: str, degree: int | None = None) -> Form:
    """Parse the grammar produced by :func:`form_to_str`.

    ``degree`` pins the homogeneous degree (required when the text is "0");
    mixed-degree input is rejected.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty form")
    terms: dict[tuple[int, int], int] = {}
    i = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    start = i
    chunks: list[tuple[int, str]] = []
    while i <= len(text):
        if i == len(text) or text[i] in "+-":
            if i == start:
                raise ValueError("malformed form")
            chunks.append((sign, text[start:i]))
            if i < len(text):
                sign = -1 if text[i] == "-" else 1
            start = i + 1
        i += 1
    for sgn, chunk in chunks:
        coeff = sgn
        exps = [0, 0]
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError("malformed form")
            var, rest = factor[:2], factor[2:]
            try:
                if var not in ("x0", "x1"):
                    coeff *= int(factor)
                    continue
                if rest and not rest.startswith("^"):
                    raise ValueError
                exps[int(var[1])] += int(rest[1:]) if rest else 1
            except ValueError:
                raise ValueError(f"malformed factor {factor!r}") from None
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    terms = {k: v for k, v in terms.items() if v != 0}
    if not terms:
        if degree is None:
            raise ValueError("degree of the zero form is ambiguous; pass degree")
        return Form.zero(degree)
    degs = {e0 + e1 for (e0, e1) in terms}
    if len(degs) != 1:
        raise ValueError("form is not homogeneous")
    d = degs.pop()
    if degree is not None and d != degree:
        raise ValueError(f"form has degree {d}, expected {degree}")
    coeffs = [0] * (d + 1)
    for (e0, e1), c in terms.items():
        coeffs[e1] = c
    return Form(d, tuple(coeffs))


# ---------------------------------------------------------------------------
# free graded modules and maps


@frozen
class FreeGraded:
    """Direct sum of twists O(a1) + ... + O(ar), as its graded section module."""

    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)

    def piece_dims(self, d: int) -> list[int]:
        return [max(0, a + d + 1) for a in self.twists]

    def piece_dim(self, d: int) -> int:
        return sum(self.piece_dims(d))

    def piece_forms(self, d: int, vec) -> tuple[Form, ...]:
        """Split a vector of the degree-d piece into one form per summand."""
        out, off = [], 0
        for a, dim in zip(self.twists, self.piece_dims(d)):
            out.append(Form(a + d, tuple(vec[off : off + dim])))
            off += dim
        return tuple(out)


@frozen
class GradedMap:
    """Degree-compatible map between free graded modules.

    ``entries[i][j]`` multiplies the j-th source generator into the i-th
    target generator and must have degree ``target.twists[i] - source.twists[j]``.
    """

    source: FreeGraded
    target: FreeGraded
    entries: tuple[tuple[Form, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.target.rank:
            raise ValueError("entry grid has wrong number of rows")
        for i, row in enumerate(self.entries):
            if len(row) != self.source.rank:
                raise ValueError("entry grid has wrong number of columns")
            for j, f in enumerate(row):
                need = self.target.twists[i] - self.source.twists[j]
                if f.degree != need:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {f.degree}, needs {need}"
                    )
                if need < 0 and not f.is_zero():
                    raise ValueError("negative-degree entries must be zero")

    def to_json(self) -> dict:
        return {
            "source_twists": list(self.source.twists),
            "target_twists": list(self.target.twists),
            "entries": [[f.to_json() for f in row] for row in self.entries],
        }

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "GradedMap":
        return GradedMap(
            FreeGraded(tuple(int(t) for t in obj["source_twists"])),
            FreeGraded(tuple(int(t) for t in obj["target_twists"])),
            tuple(tuple(Form.from_json(f) for f in row) for row in obj["entries"]),
        )


def map_from_columns(target_twists, columns) -> GradedMap:
    """Build a GradedMap from relation columns given as (twist, [forms])."""
    src = FreeGraded(tuple(t for t, _ in columns))
    tgt = FreeGraded(tuple(target_twists))
    entries = tuple(
        tuple(columns[j][1][i] for j in range(len(columns))) for i in range(tgt.rank)
    )
    return GradedMap(src, tgt, entries)


# All reuse of a degree piece comes from one scan and the twists next to it,
# so a small fixed bound keeps nearly every hit of an unbounded cache.
_DEGREE_PIECE_CACHE_SIZE = 64


@lru_cache(maxsize=_DEGREE_PIECE_CACHE_SIZE)
def degree_piece(phi: GradedMap, d: int) -> IntegerMatrix:
    """Matrix of a graded map on degree-d pieces in monomial_basis order.

    Entry (i, j) multiplies the k-th degree-(s_j + d) monomial of source
    summand j into monomials k..k+deg of target summand i, so its
    coefficient t lands at row k + t, column k of that block: one strided
    slice of the flat entry list, filled in place.
    """
    tdims = phi.target.piece_dims(d)
    sdims = phi.source.piece_dims(d)
    nrows, ncols = sum(tdims), sum(sdims)
    flat = [0] * (nrows * ncols)
    roff = 0
    for i in range(phi.target.rank):
        coff = 0
        for j, n in enumerate(sdims):
            # a negative-degree entry is zero and has no coefficients
            if n:
                for t, a in enumerate(phi.entries[i][j].coeffs):
                    if a:
                        start = (roff + t) * ncols + coff
                        flat[start : start + n * (ncols + 1) : ncols + 1] = [a] * n
            coff += n
        roff += tdims[i]
    return IntegerMatrix(nrows, ncols, tuple(flat))


def transpose(phi: GradedMap) -> GradedMap:
    """phi^T: F0^v -> F1^v.  Hom(-, O) is left exact, so the kernel of its
    degree-t piece is Hom(coker phi, O(t)) over any base field."""
    return GradedMap(
        FreeGraded(tuple(-t for t in phi.target.twists)),
        FreeGraded(tuple(-t for t in phi.source.twists)),
        tuple(tuple(row[j] for row in phi.entries) for j in range(phi.source.rank)),
    )


def nullity(M: IntegerMatrix, base: Ring) -> int:
    """Dimension of ker M over the base: mod p over GF(p), over Q otherwise,
    which over Z is the generic dimension by flat base change."""
    return M.cols - (rank_mod(M, base.char) if base.kind == "GF" else rank_of(M))


# ---------------------------------------------------------------------------
# presentations


@frozen
class GradedPresentation:
    """A coherent sheaf on the projective line: sheafified cokernel of ``map``.

    Kernel-defined sheaves are never stored: an elementary transformation
    writes its kernel down as a cokernel presentation in closed form
    (``transforms.apply_full``), so reduction mod p is exact for the stored
    object.
    """

    base: Ring
    map: GradedMap

    def __post_init__(self):
        if self.base.kind == "GF":
            p = self.base.char
            for row in self.map.entries:
                for f in row:
                    if any(not (0 <= c < p) for c in f.coeffs):
                        raise ValueError("coefficients not reduced mod p")

    @property
    def generators(self) -> FreeGraded:
        return self.map.target

    @property
    def relations(self) -> FreeGraded:
        return self.map.source

    def all_twists(self) -> tuple[int, ...]:
        return self.map.target.twists + self.map.source.twists

    def twist_span(self) -> int:
        tw = self.all_twists()
        return (max(tw) - min(tw)) if tw else 0

    def to_json(self) -> dict:
        return {"base": str(self.base), "map": self.map.to_json()}

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "GradedPresentation":
        return GradedPresentation(ring_from_tag(obj["base"]), GradedMap.from_json(obj["map"]))


def free_presentation(twists, base: Ring = ZZ) -> GradedPresentation:
    """Presentation of the split bundle O(a1) + ... + O(ar): no relations."""
    tgt = FreeGraded(tuple(twists))
    src = FreeGraded(())
    entries = tuple(() for _ in range(tgt.rank))
    return GradedPresentation(base, GradedMap(src, tgt, entries))


def cokernel_presentation(target_twists, columns, base: Ring = ZZ) -> GradedPresentation:
    """Cokernel of the map assembled from ``columns`` of (twist, forms)."""
    return GradedPresentation(base, map_from_columns(target_twists, columns))


def minimize_presentation(P: GradedPresentation) -> tuple[GradedPresentation, tuple[int, ...]]:
    """Drop the generators that a unit constant relation makes redundant.

    A relation of twist t has constant entries on the generators of twist t.
    When these entries at one such generator c have gcd 1, ``_echelon``
    gives unimodular combinations of the relations of twist t, the first
    with entry 1 at c, so that one writes c through the other generators.
    The combinations replace the relations of twist t; the first is
    subtracted from every other relation to clear c, and then c goes
    together with it.  Repeats until no generator qualifies and drops
    relations that became zero.  The cokernel is unchanged.

    Returns the presentation and the indices of the surviving generators,
    which keep their order and are not recombined.
    """
    twists = list(P.generators.twists)
    keep = list(range(len(twists)))
    cols = [
        (r, [row[k] for row in P.map.entries]) for k, r in enumerate(P.relations.twists)
    ]
    while (found := _unit_relation(twists, cols)) is not None:
        gen, block, trans = found
        old = [cols[k][1] for k in block]
        for k, coeffs in zip(block, trans):
            col = [Form.zero(a - twists[gen]) for a in twists]
            for c, rel in zip(coeffs, old):
                if c:
                    col = [x.add(f.scale(c)) for x, f in zip(col, rel)]
            cols[k] = (twists[gen], col)
        pivot = cols[block[0]][1]
        for k, (s, col) in enumerate(cols):
            f = col[gen]
            if k != block[0] and not f.is_zero():
                cols[k] = (s, [x.add(f.mul(y).scale(-1)) for x, y in zip(col, pivot)])
        del cols[block[0]]
        cols = [(s, col[:gen] + col[gen + 1 :]) for s, col in cols]
        del twists[gen], keep[gen]
    cols = [(s, col) for s, col in cols if not all(f.is_zero() for f in col)]
    return cokernel_presentation(twists, cols, P.base), tuple(keep)


def _unit_relation(twists, cols):
    """(c, block, trans) for the first generator c that a relation can clear.

    ``block`` lists the relations of twist twists[c] and ``trans`` is a
    unimodular matrix whose first row combines them into a relation with
    constant entry 1 at c; None when no generator qualifies.
    """
    for c, t in enumerate(twists):
        block = [k for k, (r, _) in enumerate(cols) if r == t]
        if block:
            ech, _, trans = _echelon([[cols[k][1][c].coeffs[0]] for k in block], 1, transform=True)
            if ech[0][0] == 1:
                return c, block, trans
    return None


def reduce_mod(P: GradedPresentation, p: int) -> GradedPresentation:
    """Entrywise reduction mod p; the result presents the fiber over p."""
    if P.base.kind != "ZZ":
        raise ValueError("reduce_mod requires an integral presentation")
    fp = GF(p)  # raises CompositeModulus when p is not prime
    entries = tuple(
        tuple(f.map_coeffs(lambda c: c % p) for f in row) for row in P.map.entries
    )
    return GradedPresentation(fp, GradedMap(P.map.source, P.map.target, entries))


def twist(P: GradedPresentation, t: int) -> GradedPresentation:
    """Shift every generator and relation twist by t (O(t)-tensor)."""
    if t == 0:
        return P
    src = FreeGraded(tuple(a + t for a in P.map.source.twists))
    tgt = FreeGraded(tuple(a + t for a in P.map.target.twists))
    return GradedPresentation(P.base, GradedMap(src, tgt, P.map.entries))
