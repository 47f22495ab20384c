"""Fiber-type elementary transformations of rank-2 bundles.

An elementary transformation replaces a bundle E by the kernel of a
surjection onto a line bundle supported on the fiber over one prime:

    0 -> E' -> E -> (fiber) O(m) -> 0

:func:`apply` writes the kernel down in closed form.  For E = coker(phi:
F1 -> F0), F0 = O(a_1) + ... + O(a_g), and a row q of forms mod p, the
preimage of E' in F0 is K0 = p F0 + (lifts s_j of the syzygies of q mod p),
and E' = K0 / im phi.  The syzygies of a row without common zero on the
fiber are free of rank g-1 (Hilbert-Burch); a scan over their degree pieces
finds them below a stated bound.  K0 is generated by p e_i (twist a_i) and
s_j (twist -d_j) with one relation p s_j - sum_i s_{j,i} (p e_i) = 0 per
syzygy: in any relation the coefficients of the s_j vanish mod p, and
subtracting multiples of these leaves a relation among the p e_i, which is
zero.  Each column of phi lies in K0 and is written as
sum_j l_j s_j + p u, with the l_j solved mod p and u divided out exactly.
The result is an ordinary cokernel presentation, minimized by
:func:`graded.minimize_presentation`, so it composes freely with everything
else.  Only fiber-type centers are supported; horizontal ones are rejected.

:func:`prescribed_types` writes several jumps down at once.  For
E = O(-1) + O(-n-1) with generators e1, e2 and surjections (g_i, h_i) onto
O_{F_{p_i}}(n_i - 1), let N = prod p_i and group the jumps by height:
N_h = prod_{n_i = h} p_i, and G_h, H_h are the CRT lifts with G_h = g_i,
H_h = h_i mod p_i.  The kernel is generated by N e1, N e2 and one
(N/N_h) kappa_h per height, kappa_h = (H_h, -G_h) the Koszul syzygy, of
twists -1, -n-1, -n-1-h.  Locally at p_i
these are p E plus the lift of the only syzygy of the coprime pair mod p_i.
The relations are free on one per height,

    H_h (N e1) - G_h (N e2) - N_h ((N/N_h) kappa_h) = 0   (twist -n-1-h):

in any relation the coefficient of (N/N_h) kappa_h is divisible by every p
in N_h, so subtracting a multiple of this one leaves a relation among
N e1, N e2 alone, which is zero.
"""

from __future__ import annotations

from math import prod

from .bundles import (
    BundleHandle,
    SplittingProfile,
    SplittingType,
    bundle_handle,
    splitting_type,
    type_profile,
)
from .errors import (
    CompositeModulus,
    DegreeMismatch,
    DuplicatePrime,
    NotSurjective,
    ProfileInconsistent,
    UnsupportedCenter,
    frozen,
    schema_checked,
)
from .exactlat import is_prime, kernel_mod, rank_mod, rref_mod
from .graded import (
    Form,
    FreeGraded,
    GradedMap,
    GradedPresentation,
    cokernel_presentation,
    degree_piece,
    free_presentation,
    minimize_presentation,
)


@frozen
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

    The row is onto on the fiber exactly when its forms, of degree at most
    delta, have no common zero there, and then they fill every degree
    >= 2 delta - 1.  So one rank mod p of the fiber map at the twist landing
    in degree 2 delta + 2 decides it.  Returns a verdict record with that
    twist on success; raises DegreeMismatch, or NotSurjective with the
    twist, otherwise.
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
    # the fiber map, the row's degree piece at twist d, lands in degree
    # m + d = 2 delta + 2
    delta = max((f.degree for f in q.row if f.degree >= 0), default=0)
    d = -q.m + 2 * delta + 2
    row = GradedMap(P.generators, FreeGraded((q.m,)), (q.row,))
    if rank_mod(degree_piece(row, d), q.p) < q.m + d + 1:
        raise NotSurjective(f"cokernel piece still nonzero at degree {d}", degree=d)
    return {"ok": True, "criterion": "cokernel-vanishes", "degree": d}


# ---------------------------------------------------------------------------
# syzygies of the quotient row on the fiber


_X = (Form.monomial(1, 0), Form.monomial(1, 1))


def _coords(forms) -> list[int]:
    """Coefficients of a generator-piece vector, generator by generator."""
    return [c for f in forms for c in f.coeffs]


def _row_syzygies(P: GradedPresentation, q: FiberQuotient) -> list[tuple[int, tuple[Form, ...]]]:
    """Free basis of the syzygies of the row mod p, as (twist d, forms) pairs.

    The row maps F0 = sum O(a_i) onto O_F(m), so its kernel on the fiber is
    a bundle of rank g-1 and the module of syzygies is free (Hilbert-Burch):
    exactly g-1 generators, at twists d_j >= -max(a_i) with
    sum(d_j) = m - sum(a_i), hence each d_j <= m - sum(a_i) + (g-2) max(a_i).
    Degree by degree the scan keeps the kernel vectors outside x0 K + x1 K,
    K the kernel one twist lower: one reduction mod p of the columns
    [x0 K, x1 K | kernel] picks them as its pivot columns in the kernel
    block.  It stops once it holds g-1 of them.
    """
    twists = P.generators.twists
    g, top = len(twists), max(twists)
    bound = q.m - sum(twists) + (g - 2) * top
    row = GradedMap(P.generators, FreeGraded((q.m,)), (q.row,))
    found: list[tuple[int, tuple[Form, ...]]] = []
    below: list[tuple[Form, ...]] = []
    for d in range(-top, bound + 1):
        if len(found) == g - 1:
            break
        kernel = [P.generators.piece_forms(d, v) for v in kernel_mod(degree_piece(row, d), q.p)]
        columns = [_coords(f.mul(x) for f in s) for s in below for x in _X]
        carried = len(columns)
        columns += [_coords(s) for s in kernel]
        _, pivots = rref_mod([list(t) for t in zip(*columns)], len(columns), q.p)
        found += [(d, kernel[c - carried]) for c in pivots if c >= carried]
        below = kernel
    if len(found) != g - 1:
        raise ProfileInconsistent(
            f"quotient row has {len(found)} syzygies up to twist {bound}, expected {g - 1}",
            "kernel-syzygies",
        )
    return found


def _syzygy_coefficients(column, d: int, syz, p: int) -> list[Form]:
    """Forms l_j of degree d - d_j with column = sum l_j s_j mod p."""
    unknowns = [(j, b) for j, (dj, _) in enumerate(syz) for b in range(d - dj + 1)]
    basis = [
        _coords(f.mul(Form.monomial(d - syz[j][0], b)) for f in syz[j][1]) for j, b in unknowns
    ]
    rhs = _coords(column)
    rows = [[v[t] for v in basis] + [rhs[t]] for t in range(len(rhs))]
    ech, pivots = rref_mod(rows, len(basis) + 1, p)
    if len(basis) in pivots:
        raise ProfileInconsistent(
            "a relation of the source does not lie in the kernel mod p", "kernel-relations"
        )
    coeffs = [[0] * max(0, d - dj + 1) for dj, _ in syz]
    for row, c in zip(ech, pivots):
        j, b = unknowns[c]
        coeffs[j][b] = row[-1]
    return [Form(d - dj, tuple(cs)) for (dj, _), cs in zip(syz, coeffs)]


# ---------------------------------------------------------------------------
# apply


@frozen
class TransformResult:
    """Kernel bundle plus the data needed to chain further transformations.

    ``embedding[k]`` writes the k-th generator of the kernel's presentation
    in the source's generators, one form per source generator.
    """

    source: BundleHandle
    handle: BundleHandle
    embedding: tuple[tuple[Form, ...], ...]
    quotient: FiberQuotient


def apply(B: BundleHandle, q: FiberQuotient) -> BundleHandle:
    """Kernel of the fiber quotient, as a fresh verified bundle handle."""
    return apply_full(B, q).handle


def apply_full(B: BundleHandle, q: FiberQuotient) -> TransformResult:
    """Kernel of the fiber quotient in closed form (module docstring)."""
    validate_quotient(B, q)
    P, p = B.presentation, q.p
    twists = P.generators.twists
    syz = _row_syzygies(P, q)
    embedding = [
        tuple(Form.constant(p) if i == k else Form.zero(a - b) for i, a in enumerate(twists))
        for k, b in enumerate(twists)
    ] + [s for _, s in syz]
    columns = []
    for j, (d, s) in enumerate(syz):
        # p s_j - sum_i s_{j,i} (p e_i) = 0, twist -d_j
        own = [Form.constant(p) if k == j else Form.zero(d - dk) for k, (dk, _) in enumerate(syz)]
        columns.append((-d, [f.scale(-1) for f in s] + own))
    for k, r in enumerate(P.relations.twists):
        # phi_k = sum_j l_j s_j + p u, so phi_k = sum_j l_j s_j + sum_i u_i (p e_i)
        column = [row[k] for row in P.map.entries]
        lam = _syzygy_coefficients(column, -r, syz, p)
        u = []
        for i, f in enumerate(column):
            for coeff, (_, s) in zip(lam, syz):
                f = f.add(coeff.mul(s[i]).scale(-1))
            if any(c % p for c in f.coeffs):
                raise ProfileInconsistent(
                    "a relation of the source is not divisible by p", "kernel-relations"
                )
            u.append(f.map_coeffs(lambda c: c // p))
        columns.append((r, u + lam))
    gen_twists = twists + tuple(-d for d, _ in syz)
    pres, keep = minimize_presentation(cokernel_presentation(gen_twists, columns))
    handle = bundle_handle(pres)
    _assert_transform_contract(B, handle, q)
    return TransformResult(B, handle, tuple(embedding[k] for k in keep), q)


def restricted_quotient(result: TransformResult, q: FiberQuotient) -> FiberQuotient:
    """Re-express a fiber quotient of the source against the kernel bundle.

    The kernel embeds in the source; composing with a quotient of the source
    gives quotient data for the kernel, the row q times the embedding, one
    form per new generator.  Away from the transformation prime the
    composite stays surjective; in general the caller's validation decides.
    """
    row = []
    for column, t in zip(result.embedding, result.handle.presentation.generators.twists):
        form = Form.zero(q.m - t)
        for f, e in zip(q.row, column):
            form = form.add(f.mul(e))
        row.append(form)
    return FiberQuotient.make(q.p, q.m, row)


def _assert_transform_contract(B: BundleHandle, out: BundleHandle, q: FiberQuotient):
    """Generic type and off-prime profile are invariants of the transformation."""
    before, after = type_profile(B), type_profile(out)
    if before.generic != after.generic:
        raise ProfileInconsistent(
            f"generic splitting changed under the transformation: "
            f"{before.generic} -> {after.generic}",
            "transform-contract",
        )
    off_before = {p: st for p, st in before.jumps if p != q.p}
    off_after = {p: st for p, st in after.jumps if p != q.p}
    if off_before != off_after:
        raise ProfileInconsistent("profile changed away from the transformation prime", "transform-contract")


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
        p, ni = item[:2]
        if ni < 1:
            raise ValueError("jump heights must be at least 1")
        if len(item) == 2:
            q = default_surjection(p, n, ni)
        else:
            g, h = item[2]
            q = FiberQuotient.from_pair(p, ni - 1, g, h)
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
            f"prescribed {expect.to_json()}",
            "prescribed-profile",
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


@frozen
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


@frozen
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

        def identifier(value):
            if not isinstance(value, str):
                raise TypeError(f"a bundle id is a string, not {type(value).__name__}")
            return value

        return BlowupFactorization(
            int(obj["p"]),
            int(obj["m"]),
            identifier(obj["source"]),
            identifier(obj["target"]),
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
    # E'/pE = ker(E|_F -> O_F(m)) is a line bundle of degree deg E - m
    m_u = B.degree - q.m
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
