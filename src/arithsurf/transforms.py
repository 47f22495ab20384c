"""Fiber-type elementary transformations of rank-2 bundles.

An elementary transformation replaces a bundle E by the kernel of a
surjection onto a line bundle supported on the fiber over one prime:

    0 -> E' -> E -> (fiber) O(m) -> 0

:func:`apply` computes the kernel degreewise on section lattices (it
contains p*E automatically), then re-presents it through the
generator/syzygy engine, so the result is an ordinary cokernel presentation
and composes freely with everything else.  Only fiber-type centers are
supported; horizontal ones are rejected.

:func:`prescribed_types` needs no engine.  For E = O(-1) + O(-n-1) with
generators e1, e2 and surjections (g_i, h_i) onto O_{F_{p_i}}(n_i - 1), let
N = prod p_i and group the jumps by height: N_h = prod_{n_i = h} p_i, and
G_h, H_h are the CRT lifts with G_h = g_i, H_h = h_i mod p_i.  The kernel is
generated by N e1, N e2 and one (N/N_h) kappa_h per height, kappa_h =
(H_h, -G_h) the Koszul syzygy, of twists -1, -n-1, -n-1-h.  Locally at p_i
these are p E plus the lift of the only syzygy of the coprime pair mod p_i.
The relations are free on one per height,

    H_h (N e1) - G_h (N e2) - N_h ((N/N_h) kappa_h) = 0   (twist -n-1-h):

in any relation the coefficient of (N/N_h) kappa_h is divisible by every p
in N_h, so subtracting a multiple of this one leaves a relation among
N e1, N e2 alone, which is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .bundles import (
    BundleHandle,
    SplittingProfile,
    SplittingType,
    bundle_handle,
    splitting_type,
    type_profile,
)
from .cohomology import (
    GeneratorLineage,
    SectionLatticeFamily,
    first_section_twist,
    lattice_family,
    presentation_from_sections,
    provider_from_family,
    window_guard,
)
from .errors import (
    CompositeModulus,
    DegreeMismatch,
    DuplicatePrime,
    NotSurjective,
    ProfileInconsistent,
    UnsupportedCenter,
    WindowExhausted,
    schema_checked,
)
from .exactlat import (
    IntegerMatrix,
    LatticeBasis,
    is_prime,
    kernel_mod,
    quotient_group_data,
    rank_mod,
    span_lattice,
)
from .graded import (
    Form,
    GradedPresentation,
    cokernel_presentation,
    form_gcd_degree_mod,
    free_presentation,
)


@dataclass(frozen=True)
class FiberQuotient:
    """A surjection E -> O(m) on the fiber over p, one form per generator."""

    p: int
    m: int
    row: tuple[Form, ...]

    def __post_init__(self):
        if self.p == 0:
            raise UnsupportedCenter("horizontal centers are not supported")
        if not is_prime(self.p):
            raise CompositeModulus(f"{self.p} is not prime")
        for f in self.row:
            if any(not (0 <= c < self.p) for c in f.coeffs):
                raise ValueError("quotient row must be reduced mod p")

    @staticmethod
    def make(p: int, m: int, forms) -> "FiberQuotient":
        if p == 0:
            raise UnsupportedCenter("horizontal centers are not supported")
        if not is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        reduced = tuple(f.map_coeffs(lambda c: c % p) for f in forms)
        return FiberQuotient(p, m, reduced)

    @staticmethod
    def from_pair(p: int, m: int, g: Form, h: Form) -> "FiberQuotient":
        return FiberQuotient.make(p, m, (g, h))

    def to_json(self) -> dict:
        if len(self.row) == 2:
            return {
                "p": str(self.p),
                "m": self.m,
                "g": self.row[0].to_json(),
                "h": self.row[1].to_json(),
            }
        return {
            "p": str(self.p),
            "m": self.m,
            "row": [f.to_json() for f in self.row],
        }

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "FiberQuotient":
        p, m = int(obj["p"]), int(obj["m"])
        if "row" in obj:
            return FiberQuotient.make(p, m, [Form.from_json(f) for f in obj["row"]])
        return FiberQuotient.make(
            p, m, (Form.from_json(obj["g"]), Form.from_json(obj["h"]))
        )


def default_surjection(p: int, n: int, ni: int) -> FiberQuotient:
    """The documented default (g, h) = (x0^ni, x1^(ni+n)) against (-1, -n-1)."""
    return FiberQuotient.from_pair(
        p, ni - 1, Form.monomial(ni, 0), Form.monomial(ni + n, ni + n)
    )


# ---------------------------------------------------------------------------
# validation


def validate_quotient(B: BundleHandle, q: FiberQuotient) -> dict:
    """Degree compatibility plus sheaf surjectivity of the fiber map.

    Returns a verdict record on success; raises DegreeMismatch or
    NotSurjective (with the witness degree) otherwise.
    """
    P = B.presentation
    twists = P.map.target.twists
    if len(q.row) != len(twists):
        raise DegreeMismatch(
            f"quotient row has {len(q.row)} entries for {len(twists)} generators"
        )
    if all(q.m - a < 0 for a in twists):
        raise DegreeMismatch(f"twist {q.m} lies below every source twist")
    for f, a in zip(q.row, twists):
        need = q.m - a
        if f.degree != need:
            raise DegreeMismatch(
                f"entry degree {f.degree} does not match required {need}"
            )
        if need < 0 and not f.is_zero():
            raise DegreeMismatch("negative-degree entries must vanish")
    # the row must kill the relations mod p
    for j in range(P.map.source.rank):
        acc = Form.zero(q.m - P.map.source.twists[j])
        for i in range(P.map.target.rank):
            entry = P.map.entries[i][j]
            if entry.degree >= 0 and not entry.is_zero() and q.row[i].degree >= 0:
                acc = acc.add(q.row[i].mul(entry))
        if any(c % q.p for c in acc.coeffs):
            raise DegreeMismatch(
                f"row does not descend to the cokernel at relation {j}"
            )
    # surjectivity: for a two-generator relation-free source use the gcd
    # criterion, otherwise check that the cokernel pieces vanish from the
    # stated bound on
    if len(twists) == 2 and P.map.source.rank == 0:
        if form_gcd_degree_mod(q.row[0], q.row[1], q.p) != 0:
            raise NotSurjective(
                "the two quotient forms share a zero on the fiber", degree=None
            )
        return {"ok": True, "criterion": "coprime-pair"}
    maxdeg = max((f.degree for f in q.row if f.degree >= 0), default=0)
    d_stop = -q.m + 2 * maxdeg + 2
    d = -q.m
    while d <= d_stop:
        target_dim = q.m + d + 1
        mat = _fiber_map_matrix(P, q, d)
        if rank_mod(mat, q.p) == target_dim:
            return {"ok": True, "criterion": "cokernel-vanishes", "degree": d}
        d += 1
    raise NotSurjective(
        f"cokernel piece still nonzero at degree {d_stop}", degree=d_stop
    )


def _fiber_map_matrix(P: GradedPresentation, q: FiberQuotient, d: int) -> IntegerMatrix:
    """Matrix of the fiber map on generator pieces at twist d, over Z."""
    twists = P.map.target.twists
    dims = P.generators.piece_dims(d)
    target = q.m + d + 1
    rows = [[0] * sum(dims) for _ in range(max(0, target))]
    off = 0
    for f, a, dim in zip(q.row, twists, dims):
        s = a + d
        if dim > 0 and f.degree >= 0:
            for k in range(dim):
                for t, c in enumerate(f.coeffs):
                    rows[t + k][off + k] = c
        off += dim
    return IntegerMatrix.from_rows(rows, cols=sum(dims))


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
            raise ProfileInconsistent("pair image not divisible by x0^e")
    for j, c in enumerate(qv):
        if j < e:
            if c % p:
                raise ProfileInconsistent("pair image not divisible by x1^e")
        elif (c - (w[j - e] if 0 <= j - e <= target else 0)) % p:
            raise ProfileInconsistent("chart images of the section disagree")
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
# apply


@dataclass(frozen=True)
class TransformResult:
    """Kernel bundle plus the data needed to chain further transformations."""

    source: BundleHandle
    handle: BundleHandle
    lineage: GeneratorLineage
    family: SectionLatticeFamily
    quotient: FiberQuotient


def apply(B: BundleHandle, q: FiberQuotient) -> BundleHandle:
    """Kernel of the fiber quotient, as a fresh verified bundle handle."""
    return apply_full(B, q).handle


def apply_full(B: BundleHandle, q: FiberQuotient) -> TransformResult:
    validate_quotient(B, q)
    P = B.presentation
    d0 = first_section_twist(P)
    if d0 is None:
        raise ProfileInconsistent("bundle has no sections anywhere")
    span = P.twist_span()
    last = WindowExhausted("unreachable")
    for extra in (0, 4, 8):
        window = (d0, d0 + span + window_guard() + 2 + extra)
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


def _assert_transform_contract(B: BundleHandle, out: BundleHandle, q: FiberQuotient):
    """Generic type and off-prime profile are invariants of the transformation."""
    before, after = type_profile(B), type_profile(out)
    if before.generic != after.generic:
        raise ProfileInconsistent(
            f"generic splitting changed under the transformation: "
            f"{before.generic} -> {after.generic}"
        )
    off_before = {p: st for p, st in before.jumps if p != q.p}
    off_after = {p: st for p, st in after.jumps if p != q.p}
    if off_before != off_after:
        raise ProfileInconsistent(
            "profile changed away from the transformation prime"
        )


# ---------------------------------------------------------------------------
# prescribed-types constructor


def prescribed_types(n: int, jumps) -> BundleHandle:
    """Normalized rank-2 bundle of generic type n with prescribed jumps.

    ``jumps`` lists (p_i, n_i) or (p_i, n_i, (g_i, h_i)); the default
    surjections are (x0^ni, x1^(ni+n)).  The output profile is type n at
    unlisted primes and type n + 2 n_i at p_i.

    The kernel of O(-1) + O(-n-1) -> sum_i O_{F_{p_i}}(n_i - 1) is written
    down in closed form (module docstring): generators N e1, N e2 and one
    CRT Koszul generator (N/N_h) kappa_h per distinct height h, one relation
    per height.
    """
    if n < 0:
        raise ValueError("generic type must be nonnegative")
    specs = []
    seen = set()
    for item in jumps:
        if len(item) == 2:
            p, ni = item
            q = default_surjection(p, n, ni)
        else:
            p, ni, (g, h) = item
            q = FiberQuotient.from_pair(p, ni - 1, g, h)
        if ni < 1:
            raise ValueError("jump heights must be at least 1")
        if p in seen:
            raise DuplicatePrime(f"prime {p} listed twice")
        seen.add(p)
        specs.append((ni, q))
    source = bundle_handle(free_presentation((-1, -n - 1)))
    for _, q in specs:
        validate_quotient(source, q)
    if not specs:
        return source
    groups: dict[int, list[FiberQuotient]] = {}
    for ni, q in specs:
        groups.setdefault(ni, []).append(q)
    heights = sorted(groups)
    twists = (-1, -n - 1) + tuple(-n - 1 - h for h in heights)
    columns = []
    for k, h in enumerate(heights):
        qs = groups[h]
        moduli = [q.p for q in qs]
        G = _crt_form([q.row[0] for q in qs], moduli)
        H = _crt_form([q.row[1] for q in qs], moduli)
        # H (N e1) - G (N e2) - N_h ((N/N_h) kappa_h) = 0, twist -n-1-h
        column = [H, G.scale(-1)]
        for j, other in enumerate(heights):
            column.append(Form.constant(-prod(moduli)) if j == k else Form.zero(h - other))
        columns.append((-n - 1 - h, column))
    handle = bundle_handle(cokernel_presentation(twists, columns))
    expect = SplittingProfile(
        SplittingType(-n - 1, -1),
        tuple(sorted((q.p, SplittingType(-n - 1 - ni, ni - 1)) for ni, q in specs)),
    )
    if type_profile(handle) != expect:
        raise ProfileInconsistent(
            f"closed-form kernel has profile {type_profile(handle).to_json()}, "
            f"prescribed {expect.to_json()}"
        )
    return handle


def _crt_form(forms, moduli) -> Form:
    """The form congruent to forms[i] mod moduli[i], coefficients in [0, prod)."""
    M = prod(moduli)
    coeffs = [0] * (forms[0].degree + 1)
    for f, p in zip(forms, moduli):
        basis = (M // p) * pow(M // p, -1, p)
        for t, c in enumerate(f.coeffs):
            coeffs[t] += c * basis
    return Form(forms[0].degree, tuple(c % M for c in coeffs))


# ---------------------------------------------------------------------------
# blow-up factorization records


@dataclass(frozen=True)
class CenterSection:
    """Verified description of a section of a projectivized bundle over a fiber."""

    prime: int
    quotient_degree: int
    degree: int
    self_intersection: int
    fiber_splitting: SplittingType
    row: tuple[Form, ...]

    def to_json(self) -> dict:
        return {
            "p": str(self.prime),
            "quotient_degree": self.quotient_degree,
            "degree": self.degree,
            "self_intersection": self.self_intersection,
            "fiber_splitting": self.fiber_splitting.to_json(),
            "row": [f.to_json() for f in self.row],
        }

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "CenterSection":
        return CenterSection(
            int(obj["p"]),
            int(obj["quotient_degree"]),
            int(obj["degree"]),
            int(obj["self_intersection"]),
            SplittingType(*obj["fiber_splitting"]),
            tuple(Form.from_json(f) for f in obj["row"]),
        )


@dataclass(frozen=True)
class BlowupFactorization:
    """Symbolic record identifying a transformation with a blow-up/blow-down.

    No threefold geometry is computed; the record carries the two centers
    (over the same prime) plus both bundles' profiles for bookkeeping, and
    round-trips through JSON losslessly.
    """

    prime: int
    twist: int
    source_id: str
    target_id: str
    center_V: CenterSection
    center_U: CenterSection
    source_profile: SplittingProfile
    target_profile: SplittingProfile

    def to_json(self) -> dict:
        return {
            "p": str(self.prime),
            "m": self.twist,
            "source": self.source_id,
            "target": self.target_id,
            "center_V": self.center_V.to_json(),
            "center_U": self.center_U.to_json(),
            "source_profile": self.source_profile.to_json(),
            "target_profile": self.target_profile.to_json(),
        }

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "BlowupFactorization":
        def profile(po):
            return SplittingProfile(
                SplittingType(*po["generic"]),
                tuple(
                    (int(p), SplittingType(*st)) for p, st in sorted(
                        po["jumps"].items(), key=lambda kv: int(kv[0])
                    )
                ),
            )

        return BlowupFactorization(
            int(obj["p"]),
            int(obj["m"]),
            obj["source"],
            obj["target"],
            CenterSection.from_json(obj["center_V"]),
            CenterSection.from_json(obj["center_U"]),
            profile(obj["source_profile"]),
            profile(obj["target_profile"]),
        )


def blowup_factorization(B: BundleHandle, q: FiberQuotient) -> BlowupFactorization:
    """Emit the blow-up record for one fiber-type elementary transformation."""
    result = apply_full(B, q)
    out = result.handle
    e_src = B.degree
    src_split = splitting_type(B, q.p)
    out_split = splitting_type(out, q.p)
    center_V = CenterSection(
        q.p,
        q.m,
        q.m - src_split.b,
        2 * q.m - e_src,
        src_split,
        q.row,
    )
    m_u = _kernel_quotient_degree(B, result)
    center_U = CenterSection(
        q.p,
        m_u,
        m_u - out_split.b,
        2 * m_u - e_src,
        out_split,
        (),
    )
    return BlowupFactorization(
        q.p,
        q.m,
        B.identifier(),
        out.identifier(),
        center_V,
        center_U,
        type_profile(B),
        type_profile(out),
    )


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
        _, orders = quotient_group_data(kernel.sum(piece.B), tvecs)
        if any(o != 0 and o != q.p for o in orders):
            raise ProfileInconsistent("kernel quotient is not an F_p space")
        dims.append((d, sum(1 for o in orders if o == q.p)))
    (d_top, dim_top) = dims[-1]
    m_u = dim_top - d_top - 1
    for d, dim in dims[-3:]:
        if dim != m_u + d + 1:
            raise ProfileInconsistent(
                "kernel quotient does not match a line-bundle Hilbert function"
            )
    return m_u
