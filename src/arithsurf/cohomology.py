"""Sheaf cohomology of presented sheaves on the projective line.

Global sections of the sheafified cokernel M~ twisted by d are computed in
the pair representation: an element is a pair (u, v) of degree-(d+e) module
elements with x1^e * u = x0^e * v, i.e. a homomorphism from the ideal
(x0^e, x1^e) into M(d).  The pair spaces stabilize to H^0(M~(d)) as e grows;
stabilization is accepted after two consecutive stable transitions (three
equal dimensions with both induced maps identifying the section lattices),
counted from the structural floor where every piece is live.  A hard cap
derived from the presentation twists bounds the scan.

h^1 is read off the Euler characteristic h^0 - h^1 = r(d+1) + e, which is
exact on the line, so there is a single stabilization code path to trust.

The module also houses the section-lattice-to-presentation engine: given a
window of section lattices with their multiplication maps, it extracts
generators and syzygies degreewise and emits a cokernel presentation.  This
is how kernel-defined sheaves (elementary transformations) get a
presentation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotLocallyFree, WindowExhausted
from .exactlat import (
    IntegerMatrix,
    LatticeBasis,
    kernel_lattice,
    kernel_mod,
    quotient_group_data,
    rref_mod,
    span_lattice,
)
from .graded import (
    Form,
    FreeGraded,
    GradedMap,
    GradedPresentation,
    degree_piece,
    monomial_mult_matrix,
)

Vec = tuple[int, ...]

DEFAULT_GUARD = 4


def window_guard() -> int:
    """Stabilization guard; ARITHSURF_WINDOW_GUARD overrides the default."""
    raw = os.environ.get("ARITHSURF_WINDOW_GUARD", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_GUARD
    return value if value > 0 else DEFAULT_GUARD


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


@dataclass(frozen=True)
class FpSpan:
    """Row space over F_p in reduced row echelon form (canonical)."""

    ambient: int
    p: int
    rows: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[Vec]:
        return list(self.rows)


def _fp_span(ambient: int, p: int, vectors) -> FpSpan:
    rows, _ = rref_mod([list(v) for v in vectors], ambient, p)
    return FpSpan(ambient, p, tuple(rows))


# ---------------------------------------------------------------------------
# pair spaces


@dataclass(frozen=True)
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


def _mu_matrix(P: GradedPresentation, d: int, e: int) -> IntegerMatrix:
    """(u, v) -> x1^e u - x0^e v on generator pieces, block per summand.

    Multiplication by x1^e shifts the monomial index by e and x0^e keeps it,
    so the blocks are written directly.
    """
    gens = P.generators
    fdims = gens.piece_dims(d + e)
    gdims = gens.piece_dims(d + 2 * e)
    f, g = sum(fdims), sum(gdims)
    rows = [[0] * (2 * f) for _ in range(g)]
    roff = coff = 0
    for fd, gd in zip(fdims, gdims):
        if fd > 0 and gd > 0:
            for c in range(fd):
                rows[roff + c + e][coff + c] = 1
                rows[roff + c][f + coff + c] = -1
        roff += gd
        coff += fd
    return IntegerMatrix.from_rows(rows, cols=2 * f)


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


def shift_pair_vector(P: GradedPresentation, d: int, e: int, vec, var_u: int, var_v: int):
    """Apply monomial multiplication blockwise to a pair vector, by shifts.

    Multiplication by x0 appends a zero to each generator segment and x1
    prepends one; this is the whole content of the block matrices, applied
    without building them.
    """
    gens = P.generators
    src = gens.piece_dims(d + e)
    f = sum(src)
    out = []
    for part, var in ((vec[:f], var_u), (vec[f:], var_v)):
        off = 0
        for a, dim in zip(gens.twists, src):
            seg = list(part[off : off + dim])
            off += dim
            if a + d + e + 1 >= 0:
                out.extend(seg + [0] if var == 0 else [0] + seg)
    return tuple(out)


def pair_mult_vector(P: GradedPresentation, d: int, e: int, var: int, vec):
    """Multiplication by x_var on a pair vector: twist d -> d+1 at fixed e."""
    return shift_pair_vector(P, d, e, vec, var, var)


def _pair_data(P: GradedPresentation, d: int, e: int) -> PairSpace:
    gens = P.generators
    f = gens.piece_dim(d + e)
    mu = _mu_matrix(P, d, e)
    phi2 = degree_piece(P.map, d + 2 * e)
    phi1 = degree_piece(P.map, d + e)
    # B: images of relations, duplicated over the (u, v) components
    bvecs = []
    for j in range(phi1.cols):
        col = phi1.column(j)
        if any(col):
            bvecs.append(tuple(col) + (0,) * f)
            bvecs.append((0,) * f + tuple(col))
    stacked = mu.hstack(phi2) if phi2.cols else mu
    if P.base.kind == "GF":
        p = P.base.char
        kern = kernel_mod(stacked, p)
        proj = [v[: 2 * f] for v in kern]
        K = _fp_span(2 * f, p, proj)
        B = _fp_span(2 * f, p, bvecs)
    else:
        kern = kernel_lattice(stacked)
        proj = [v[: 2 * f] for v in kern.vectors()]
        K = span_lattice(2 * f, proj)
        B = span_lattice(2 * f, bvecs)
    return PairSpace(d, e, f, K, B, K.rank - B.rank)


def _push_compatible(P: GradedPresentation, prev: PairSpace, cur: PairSpace) -> bool:
    pushed = [
        shift_pair_vector(P, prev.d, prev.e, v, 0, 1) for v in prev.K.vectors()
    ]
    if P.base.kind == "GF":
        p = P.base.char
        combined = _fp_span(2 * cur.f, p, pushed + cur.B.vectors())
        return combined == cur.K
    combined = span_lattice(2 * cur.f, pushed + cur.B.vectors())
    return combined == cur.K


@lru_cache(maxsize=None)
def _section_space_cached(P: GradedPresentation, d: int, guard: int) -> PairSpace:
    # Accept only after two consecutive stable transitions past the floor:
    # a single dimension plateau with one compatible step can still grow
    # afterwards (sections whose chart denominators need a larger exponent).
    cap = max(P.twist_span() + abs(d), stabilization_floor(P, d)) + guard
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
            return cur
        prev2, prev, compat_prev = prev, cur, compat_cur
    raise WindowExhausted(
        f"section space at twist {d} did not stabilize below exponent {cap}"
    )


def section_space(P: GradedPresentation, d: int) -> PairSpace:
    """Stabilized pair space of sections of M~(d); cached."""
    return _section_space_cached(P, d, window_guard())


def h0(P: GradedPresentation, d: int = 0):
    """Dimension (lattice rank over Z, vector space dimension over a field)
    of H^0 of the presented sheaf twisted by d, with a section basis.

    Returns ``(dim, basis)`` where ``basis`` holds pair-representation lifts
    of a basis of the section space modulo relations.
    """
    space = section_space(P, d)
    if P.base.kind == "GF":
        basis = _fp_quotient_basis(space)
    else:
        gens, orders = quotient_group_data(space.K, _vectors_of(space.B))
        basis = tuple(g for g, o in zip(gens, orders) if o == 0)
    return space.dim, SectionBasis(d, space.e, 2 * space.f, tuple(basis))


def h0_dim(P: GradedPresentation, d: int = 0) -> int:
    return section_space(P, d).dim


def _vectors_of(span) -> list[Vec]:
    return list(span.vectors())


def _fp_quotient_basis(space: PairSpace) -> tuple[Vec, ...]:
    p = space.B.p if isinstance(space.B, FpSpan) else 0
    brows = [list(r) for r in space.B.vectors()]
    out = []
    for v in space.K.vectors():
        cand = brows + [list(r) for r in out] + [list(v)]
        rows, _ = rref_mod(cand, space.K.ambient, p)
        if len(rows) > len(brows) + len(out):
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class SectionBasis:
    """Lifted basis of a section space in pair coordinates."""

    twist: int
    exponent: int
    ambient: int
    vectors: tuple[Vec, ...]

    def to_json(self) -> dict:
        return {
            "twist": self.twist,
            "exponent": self.exponent,
            "ambient": self.ambient,
            "vectors": [[str(c) for c in v] for v in self.vectors],
        }


# ---------------------------------------------------------------------------
# rank, degree, h1


@lru_cache(maxsize=None)
def sheaf_rank_degree(P: GradedPresentation) -> tuple[int, int]:
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


def h1(P: GradedPresentation, d: int = 0) -> int:
    """h^1 via the Euler characteristic h^0 - h^1 = r(d+1) + e."""
    r, e = sheaf_rank_degree(P)
    value = h0_dim(P, d) - (r * (d + 1) + e)
    if value < 0:
        raise NotLocallyFree("negative h^1; presentation is not a bundle")
    return value


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
    guard past the twist span.
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
