"""Normal-form equations of Hirzebruch surface models in P^1 x P^2.

A model with a section is cut out by  x0^n y0 + x1^n y1 + f(x0,x1) y2 = 0
for a binary form f of degree n.  The three coefficient forms x0^n, x1^n, f
have no common zero on any fiber, so the hypersurface is smooth over every
prime unconditionally, and the associated rank-2 bundle is the cokernel of
the single relation column (x0^n, x1^n, f).  Its handle stores exactly that
presentation: three generators of twist 0 and one relation of twist -n.  So
a fiber quotient of the bundle (``FiberQuotient``, ``--row`` on the command
line) takes one form per generator, three forms of degree m for the target
twist m, with (g0, g1, g2) . (x0^n, x1^n, f) = 0 mod p.

The fiberwise Hirzebruch degrees of the model are the splitting types of
that bundle; everything here delegates the bundle analysis and reports it in
surface language.  Equation strings use a fixed ASCII grammar (x0, x1, y0,
y1, y2, "^", "*") so outputs can be compared byte for byte.
"""

from __future__ import annotations


from .bundles import (
    BundleHandle,
    SplitCertificate,
    SplittingProfile,
    bundle_handle,
    try_split_certificate,
    type_profile,
)
from .errors import frozen, schema_checked
from .graded import Form, cokernel_presentation, monomial_basis, parse_form


@frozen
class NormalForm:
    """Data (n, f) of the hypersurface x0^n y0 + x1^n y1 + f y2 = 0."""

    n: int
    f: Form

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("the degree n must be nonnegative")
        if self.f.degree != self.n:
            raise ValueError(f"f has degree {self.f.degree}, expected {self.n}")

    @staticmethod
    def make(n: int, f) -> "NormalForm":
        if isinstance(f, str):
            f = parse_form(f, degree=n)
        return NormalForm(n, f)

    def to_json(self) -> dict:
        return {"n": self.n, "f": self.f.to_json()}

    @staticmethod
    @schema_checked
    def from_json(obj: dict) -> "NormalForm":
        return NormalForm(int(obj["n"]), Form.from_json(obj["f"]))


def _monomial_str(i: int, j: int, tail: str) -> str:
    factors = []
    if i > 0:
        factors.append("x0" if i == 1 else f"x0^{i}")
    if j > 0:
        factors.append("x1" if j == 1 else f"x1^{j}")
    factors.append(tail)
    return "*".join(factors)


def equation_string(nf: NormalForm) -> str:
    """Canonical rendering of the defining equation, ending in " = 0"."""
    parts = [_monomial_str(nf.n, 0, "y0"), "+ " + _monomial_str(0, nf.n, "y1")]
    for (i, j), c in zip(monomial_basis(nf.n), nf.f.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = _monomial_str(i, j, "y2")
        if mag != 1:
            term = f"{mag}*{term}"
        parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) + " = 0"


def equation(nf: NormalForm) -> dict:
    """Equation record: canonical string, bidegree, unconditional smoothness."""
    return {
        "equation": equation_string(nf),
        "bidegree": [nf.n, 1],
        "n": nf.n,
        "f": nf.f.to_json(),
        "smooth": True,
    }


def reduce_coefficients(nf: NormalForm) -> NormalForm:
    """Kill the x0^n and x1^n coefficients of f by y0, y1 substitutions.

    The substitutions y0 -> y0 + m*y2 and y1 -> y1 + m'*y2 absorb those two
    monomials into the other terms of the equation, so the surface is
    unchanged up to an automorphism of the ambient space.
    """
    if nf.n == 0:
        return NormalForm(0, Form.zero(0))
    coeffs = list(nf.f.coeffs)
    coeffs[0] = 0
    coeffs[nf.n] = 0
    return NormalForm(nf.n, Form(nf.n, tuple(coeffs)))


def bundle_from_normal_form(nf: NormalForm) -> BundleHandle:
    """Cokernel of the relation column (x0^n, x1^n, f): rank 2, degree n."""
    column = (-nf.n, [Form.monomial(nf.n, 0), Form.monomial(nf.n, nf.n), nf.f])
    P = cokernel_presentation((0, 0, 0), [column])
    return bundle_handle(P)


def degree_profile(nf: NormalForm) -> SplittingProfile:
    """Fiberwise Hirzebruch degrees of the model: the bundle splitting profile."""
    return type_profile(bundle_from_normal_form(nf))


@frozen
class ConstancyResult:
    """Outcome of the constant-degree certification of a normal form."""

    status: str  # "certified" | "not-constant"
    profile: SplittingProfile
    certificate: SplitCertificate | None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "profile": self.profile.to_json(),
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def constancy_check(nf: NormalForm) -> ConstancyResult:
    """Certify a constant-degree model as the split bundle.

    A constant profile of degree n forces the split model F_n; the returned
    certificate carries a row of forms E -> O(a), read off the dual, that is
    onto on every fiber.  A non-constant profile is refused; a row that fails
    the onto check raises ProfileInconsistent (see ``try_split_certificate``).
    """
    B = bundle_from_normal_form(nf)
    prof = type_profile(B)
    if prof.jumps:
        return ConstancyResult("not-constant", prof, None)
    return ConstancyResult("certified", prof, try_split_certificate(B))
