"""Acceptance suite: one runnable check per release criterion.

Each criterion is a function returning a :class:`CriterionResult`; the REPL,
the test suite, and the CLI ``selftest`` subcommand all consume the same
implementations.  Where a criterion calls for an independent oracle (the
global-section solver, the splitting type read from one of its values, the
class enumeration), a self-contained implementation lives here and shares no
elimination code with the production path: Bareiss fraction-free
elimination over Z and textbook mod-p row reduction.  The global-section
solver reads the pair space at one exponent fixed by the twists of the free
resolution.
"""

from __future__ import annotations

import random
import time

from .bundles import (
    audit_splitting,
    bundle_handle,
    check_parity,
    check_type_h0,
    splitting_type,
    type_profile,
)
from .cohomology import h0_dim
from .delpezzo import (
    E1,
    E2,
    E3,
    TORUS_POINT,
    PointConfiguration,
    ProjectivePoint,
    classify,
    general_position,
    minus_one_classes,
    standardize,
)
from .errors import TooManyPoints
from .exactlat import is_prime
from .graded import (
    Form,
    GradedPresentation,
    cokernel_presentation,
    free_presentation,
    reduce_mod,
)
from .hirzebruch import NormalForm, bundle_from_normal_form, equation_string
from .transforms import (
    apply_full,
    blowup_factorization,
    default_surjection,
    prescribed_types,
    restricted_quotient,
)

# Sizes of the randomized criteria; each draws its inputs from a fixed seed.
_CRITERION_2_COUNT = 100
_CRITERION_5_COUNT = 200
_CRITERION_6_SWEEP = 10_000
_CRITERION_8_COUNT = 50


class CriterionResult:
    """Outcome of one acceptance criterion."""

    def __init__(self, number: int, name: str, passed: bool, seconds: float, details: dict | None = None):
        self.number = number
        self.name = name
        self.passed = passed
        self.seconds = seconds
        self.details = {} if details is None else details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.seconds:.1f}s)"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _primes_not_in(exclude, count):
    out, p = [], 2
    while len(out) < count:
        if is_prime(p) and p not in exclude:
            out.append(p)
        p += 1
    return out


# ---------------------------------------------------------------------------
# independent oracles (no shared elimination code with the main path)


def _gauss_rank_q(rows):
    """Rank over Q by Bareiss forward elimination on the integers.

    Each step divides exactly by the previous pivot, since every entry below
    the pivot rows is a minor of the input (Sylvester's identity).
    """
    a = [list(row) for row in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    r, prev = 0, 1
    for c in range(n):
        sel = next((i for i in range(r, m) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        pivot = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = pivot
        r += 1
        if r == m:
            break
    return r


def _gauss_rank_p(rows, p):
    a = [[x % p for x in row] for row in rows]
    if not a or not a[0]:
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


def _piece_dims(twists, d):
    return [max(0, a + d + 1) for a in twists]


def _power_block(var, e, s):
    rows = [[0] * (s + 1) for _ in range(s + e + 1)]
    for k in range(s + 1):
        rows[k + (e if var else 0)][k] = 1
    return rows


def _form_block(coeffs, deg, s):
    rows = [[0] * (s + 1) for _ in range(s + deg + 1)]
    for t in range(s + deg + 1):
        for k in range(s + 1):
            if 0 <= t - k <= deg:
                rows[t][k] = coeffs[t - k]
    return rows


def _oracle_rank(P: GradedPresentation, rows) -> int:
    return _gauss_rank_p(rows, P.base.char) if P.base.kind == "GF" else _gauss_rank_q(rows)


def _oracle_rel_matrix(P: GradedPresentation, dd):
    """The relation map on degree pieces at twist dd, entry by entry."""
    gens = P.map.target.twists
    rels = P.map.source.twists
    sdims = _piece_dims(rels, dd)
    tdims = _piece_dims(gens, dd)
    rows = [[0] * sum(sdims) for _ in range(sum(tdims))]
    ro = 0
    for i, a in enumerate(gens):
        co = 0
        for j, b in enumerate(rels):
            entry = P.map.entries[i][j]
            if sdims[j] and tdims[i] and entry.degree >= 0:
                block = _form_block(entry.coeffs, entry.degree, b + dd)
                for r in range(tdims[i]):
                    for c in range(sdims[j]):
                        rows[ro + r][co + c] = block[r][c]
            co += sdims[j]
        ro += tdims[i]
    return rows


def _oracle_pair_dim(P: GradedPresentation, d, e):
    """dim Hom((x0^e, x1^e), M)_d: pairs (u, v) in M_(d+e), x1^e u = x0^e v."""
    gens = P.map.target.twists
    fdims = _piece_dims(gens, d + e)
    gdims = _piece_dims(gens, d + 2 * e)
    f, g = sum(fdims), sum(gdims)
    mu = [[0] * (2 * f) for _ in range(g)]
    roff = coff = 0
    for a, fd, gd in zip(gens, fdims, gdims):
        s = a + d + e
        if fd and gd:
            b1 = _power_block(1, e, s)
            b0 = _power_block(0, e, s)
            for r in range(gd):
                for c in range(fd):
                    mu[roff + r][coff + c] = b1[r][c]
                    mu[roff + r][f + coff + c] = -b0[r][c]
        roff += gd
        coff += fd
    phi2 = _oracle_rel_matrix(P, d + 2 * e)
    phi1 = _oracle_rel_matrix(P, d + e)
    stacked = [mu[i] + phi2[i] for i in range(g)]
    r_stacked, r_phi2, r_phi1 = (_oracle_rank(P, m) for m in (stacked, phi2, phi1))
    return 2 * f - r_stacked + r_phi2 - 2 * r_phi1


def _oracle_syzygy_twists(P: GradedPresentation) -> list[int]:
    """Twists of F2 = ker(phi) by the formula of ``sheaf_rank_degree``."""
    gens, rels = P.map.target.twists, P.map.source.twists
    if not rels:
        return []
    top = max(rels)
    low = sum(rels) - sum(max(0, a) for a in gens) - (len(rels) - 1) * max(0, top)
    def kernel_dim(e):
        return sum(_piece_dims(rels, e)) - _oracle_rank(P, _oracle_rel_matrix(P, e))
    if kernel_dim(-low) == 0:
        return []
    k = [kernel_dim(e) for e in range(-top - 2, -low + 1)]
    return [-e for e, (k_2, k_1, k_0) in enumerate(zip(k, k[1:], k[2:]), start=-top)
            for _ in range(k_0 - 2 * k_1 + k_2)]


def oracle_h0(P: GradedPresentation, d: int) -> int:
    """h^0(M~(d)) as dim Hom((x0^e, x1^e), M)_d at the one exponent
    e* = max(0, -t-d-1 over the twists t of F1 and F2 = ker phi): for free F
    the Koszul Ext^i((x0^e, x1^e), F) maps into H^i_m(F) injectively, onto in
    degree d from e* on, and a chase through 0 -> F2 -> F1 -> F0 -> M -> 0
    carries this to M (Eisenbud, GTM 229, Appendix 1)."""
    twists = list(P.map.source.twists) + _oracle_syzygy_twists(P)
    return _oracle_pair_dim(P, d, max([0] + [-t - d - 1 for t in twists]))


def oracle_splitting(P: GradedPresentation, degree: int):
    """(a, b) of a rank-2 bundle from one oracle value: h^0(E(-h-1)) = b - h
    for h = floor(degree / 2), as a <= h <= b."""
    b = degree // 2 + oracle_h0(P, -(degree // 2) - 1)
    return (degree - b, b)


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> CriterionResult:
    """Prescribed-types reproduction with off-prime audits."""
    t0 = time.monotonic()
    cases = [
        (0, [(2, 1), (3, 2)]),
        (1, [(5, 3)]),
        (2, [(2, 2), (7, 1)]),
    ]
    failures = []
    for n, jumps in cases:
        B = prescribed_types(n, jumps)
        prof = type_profile(B)
        expect = {"generic": n, **{p: n + 2 * ni for p, ni in jumps}}
        if prof.type_map() != expect:
            failures.append({"case": [n, jumps], "profile": prof.to_json()})
            continue
        for p in _primes_not_in({p for p, _ in jumps}, 10):
            if audit_splitting(B, p) != prof.generic:
                failures.append({"case": [n, jumps], "audit_prime": p})
    seconds = time.monotonic() - t0
    passed = not failures and seconds < 30.0
    return CriterionResult(
        1,
        "prescribed-types profiles with ten off-prime audits each",
        passed,
        seconds,
        {"failures": failures, "budget_seconds": 30.0},
    )


def _coprime_mod(g: Form, h: Form, p: int) -> bool:
    """Nonzero forms g, h share no zero on P^1 over the algebraic closure of
    F_p exactly when their Sylvester matrix, the map (u, v) -> u g + v h into
    forms of degree deg g + deg h - 1, has full rank mod p."""
    m, k = g.degree, h.degree
    blocks = zip(_form_block(g.coeffs, m, k - 1), _form_block(h.coeffs, k, m - 1))
    return _gauss_rank_p([u + v for u, v in blocks], p) == m + k


def _random_surjection(rng, p, n, ni):
    while True:
        g = Form.make(ni, [rng.randrange(p) for _ in range(ni + 1)])
        h = Form.make(ni + n, [rng.randrange(p) for _ in range(ni + n + 1)])
        if g.is_zero() or h.is_zero():
            continue
        if _coprime_mod(g, h, p):
            return (g, h)


def criterion_2() -> CriterionResult:
    """Parity and 2h^0 identities on randomized prescribed-types bundles."""
    t0 = time.monotonic()
    rng = random.Random(0xA11CE)
    primes = [2, 3, 5, 7, 11, 13]
    violations = []
    for trial in range(_CRITERION_2_COUNT):
        n = rng.randint(0, 3)
        r = rng.randint(1, 2)
        ps = rng.sample(primes, r)
        jumps = []
        for p in ps:
            ni = rng.randint(1, 3)
            if rng.random() < 0.5:
                jumps.append((p, ni))
            else:
                jumps.append((p, ni, _random_surjection(rng, p, n, ni)))
        B = prescribed_types(n, jumps)
        prof = type_profile(B)
        expect = {"generic": n, **{item[0]: n + 2 * item[1] for item in jumps}}
        if prof.type_map() != expect:
            violations.append({"trial": trial, "profile": prof.type_map()})
            continue
        deltas = check_parity(B)
        if any(delta <= 0 or delta % 2 for delta in deltas.values()):
            violations.append({"trial": trial, "deltas": deltas})
        for p, (delta, fiber_h0) in check_type_h0(B).items():
            if delta != 2 * fiber_h0:
                violations.append({"trial": trial, "prime": p})
    seconds = time.monotonic() - t0
    return CriterionResult(
        2,
        f"parity and 2h^0 identities on {_CRITERION_2_COUNT} randomized bundles",
        not violations,
        seconds,
        {"violations": violations, "count": _CRITERION_2_COUNT},
    )


def criterion_3() -> CriterionResult:
    """Normal-form equation strings byte-match the canonical grammar."""
    t0 = time.monotonic()
    cases = [
        (NormalForm.make(0, "0"), "y0 + y1 = 0"),
        (NormalForm.make(1, "0"), "x0*y0 + x1*y1 = 0"),
        (NormalForm.make(2, "x0*x1"), "x0^2*y0 + x1^2*y1 + x0*x1*y2 = 0"),
        (NormalForm.make(2, "5*x0*x1"), "x0^2*y0 + x1^2*y1 + 5*x0*x1*y2 = 0"),
    ]
    mismatches = [
        {"expected": want, "got": equation_string(nf)}
        for nf, want in cases
        if equation_string(nf) != want
    ]
    return CriterionResult(
        3,
        "normal-form equation strings byte-match",
        not mismatches,
        time.monotonic() - t0,
        {"mismatches": mismatches},
    )


def criterion_4() -> CriterionResult:
    """Jump primes of (2, m*x0*x1) are exactly the prime divisors of m."""
    t0 = time.monotonic()
    failures = []
    for m in (2, 3, 5, 6, 30):
        nf = NormalForm.make(2, Form.make(2, (0, m, 0)))
        B = bundle_from_normal_form(nf)
        prof = type_profile(B)
        expected_primes = sorted({p for p in (2, 3, 5) if m % p == 0})
        ok = (
            prof.generic.type == 0
            and sorted(prof.jump_map()) == expected_primes
            and all(st.type == 2 for _, st in prof.jumps)
        )
        if not ok:
            failures.append({"m": m, "profile": prof.to_json()})
            continue
        # independent monomial oracle on the raw presentation
        raw = nf_presentation(m)
        if oracle_splitting(raw, 2) != (1, 1):
            failures.append({"m": m, "oracle": "generic"})
        for p in expected_primes:
            if oracle_splitting(reduce_mod(raw, p), 2) != (0, 2):
                failures.append({"m": m, "oracle_prime": p})
        for p in (7, 11):
            if m % p == 0:
                continue
            if oracle_splitting(reduce_mod(raw, p), 2) != (1, 1):
                failures.append({"m": m, "oracle_prime": p})
    seconds = time.monotonic() - t0
    passed = not failures and seconds < 10.0
    return CriterionResult(
        4,
        "equation jump detection against the monomial oracle",
        passed,
        seconds,
        {"failures": failures, "budget_seconds": 10.0},
    )


def nf_presentation(m):
    return cokernel_presentation(
        (0, 0, 0),
        [(-2, [Form.monomial(2, 0), Form.monomial(2, 2), Form.make(2, (0, m, 0))])],
    )


def criterion_5() -> CriterionResult:
    """Stabilized h^0 equals the brute-force solver on random presentations."""
    t0 = time.monotonic()
    rng = random.Random(0x5EC7)
    bases = [None, 2, 3, 5, 13]
    mismatches = []
    for trial in range(_CRITERION_5_COUNT):
        gens = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
        P = free_presentation(gens)
        if rng.random() < 0.75:
            rt = min(gens) - rng.randint(0, 3)
            col = [
                Form.make(a - rt, [rng.randint(-5, 5) for _ in range(a - rt + 1)])
                for a in gens
            ]
            P = cokernel_presentation(gens, [(rt, col)])
        base_p = bases[trial % len(bases)]
        Q = P if base_p is None else reduce_mod(P, base_p)
        for d in rng.sample(range(-6, 7), 2):
            got = h0_dim(Q, d)
            want = oracle_h0(Q, d)
            if got != want:
                mismatches.append(
                    {"trial": trial, "d": d, "base": base_p, "got": got, "want": want}
                )
    return CriterionResult(
        5,
        f"h^0 oracle equivalence on {_CRITERION_5_COUNT} randomized presentations",
        not mismatches,
        time.monotonic() - t0,
        {"mismatches": mismatches, "count": _CRITERION_5_COUNT},
    )


def criterion_6() -> CriterionResult:
    """Del Pezzo classification, witnesses, and the five-point sweep."""
    t0 = time.monotonic()
    failures = []
    subsets = [
        ([], 9),
        ([E1], 8),
        ([E1, E2], 7),
        ([E1, E2, E3], 6),
        ([E1, E2, E3, TORUS_POINT], 5),
    ]
    for pts, k2 in subsets:
        out = classify(PointConfiguration.make(pts))
        if out["K2"] != k2:
            failures.append({"points": [str(p) for p in pts], "got": out})
    verdict = general_position(
        PointConfiguration.make([E1, E2, E3, ProjectivePoint.make(2, 3, 5)])
    )
    det2 = [w for w in verdict.witnesses if 2 in w.primes]
    if verdict.ok or not det2:
        failures.append({"case": "2:3:5", "verdict": verdict.to_json()})
    for fifth in ("3:5:7", "1:-1:1", "2:9:15", "7:3:2"):
        try:
            standardize(
                PointConfiguration.make([E1, E2, E3, TORUS_POINT, fifth])
            )
            failures.append({"case": f"five points {fifth} accepted"})
        except TooManyPoints as exc:
            w = exc.witness
            if w is None or (w.primes not in ((2,), ()) ):
                failures.append({"case": f"five points {fifth}", "witness": w and w.to_json()})
    rng = random.Random(0xDE1)
    passes = 0
    for _ in range(_CRITERION_6_SWEEP):
        pts = []
        while len(pts) < 5:
            try:
                pts.append(
                    ProjectivePoint.make(
                        rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20)
                    )
                )
            except ValueError:
                continue
        if general_position(PointConfiguration.make(pts)).ok:
            passes += 1
    if passes:
        failures.append({"five_point_passes": passes})
    return CriterionResult(
        6,
        f"del Pezzo classification and {_CRITERION_6_SWEEP}-configuration sweep",
        not failures,
        time.monotonic() - t0,
        {"failures": failures, "sweep": _CRITERION_6_SWEEP},
    )


def criterion_7() -> CriterionResult:
    """(-1)-class counts match the brute-force enumeration oracle."""
    t0 = time.monotonic()
    failures = []

    def oracle(r):
        found = 0
        from itertools import product

        for d in range(-3, 4):
            for ms in product(range(-2, 3), repeat=r):
                if d * d - sum(m * m for m in ms) == -1 and -3 * d + sum(ms) == -1:
                    found += 1
        return found

    for r, expect in ((1, 1), (2, 3), (3, 6), (4, 10)):
        got = len(minus_one_classes(r))
        if got != expect or oracle(r) != expect:
            failures.append({"r": r, "got": got, "oracle": oracle(r)})
    return CriterionResult(
        7,
        "(-1)-class counts (1, 3, 6, 10) for r = 1..4",
        not failures,
        time.monotonic() - t0,
        {"failures": failures},
    )


def criterion_8() -> CriterionResult:
    """Transformation locality plus blow-up record round-trips."""
    import json as _json

    from .transforms import BlowupFactorization

    t0 = time.monotonic()
    rng = random.Random(0xFAC7)
    primes = [2, 3, 5, 7, 11, 13]
    failures = []
    for trial in range(_CRITERION_8_COUNT):
        n = rng.randint(0, 2)
        split = bundle_handle(free_presentation((-1, -n - 1)))
        pre_jump = None
        p = rng.choice(primes)
        ni = rng.randint(1, 2)
        q = default_surjection(p, n, ni)
        if rng.random() < 0.4:
            pre_jump = rng.choice([r for r in primes if r != p])
            pre = apply_full(split, default_surjection(pre_jump, n, rng.randint(1, 2)))
            start = pre.handle
            q = restricted_quotient(pre, q)
        else:
            start = split
        before = type_profile(start)
        result = apply_full(start, q)
        after = type_profile(result.handle)
        if after.generic != before.generic:
            failures.append({"trial": trial, "reason": "generic moved"})
            continue
        off_before = {pp: st for pp, st in before.jumps if pp != p}
        off_after = {pp: st for pp, st in after.jumps if pp != p}
        if off_before != off_after:
            failures.append({"trial": trial, "reason": "off-prime profile moved"})
            continue
        if splitting_type(result.handle, p).degree != start.degree:
            failures.append({"trial": trial, "reason": "fiber degree moved"})
            continue
        rec = blowup_factorization(start, q)
        again = BlowupFactorization.from_json(_json.loads(_json.dumps(rec.to_json())))
        if again != rec:
            failures.append({"trial": trial, "reason": "record round-trip"})
            continue
        if rec.center_V.degree != ni or rec.center_V.prime != rec.center_U.prime:
            failures.append({"trial": trial, "reason": "center degrees"})
    return CriterionResult(
        8,
        f"locality and factorization records on {_CRITERION_8_COUNT} randomized applies",
        not failures,
        time.monotonic() - t0,
        {"failures": failures, "count": _CRITERION_8_COUNT},
    )


ALL_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def run_acceptance(only=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default), in order."""
    unknown = sorted(set(only or ()) - set(ALL_CRITERIA))
    if unknown:
        raise ValueError(
            f"no criterion {', '.join(map(str, unknown))}; "
            f"the criteria are {', '.join(map(str, ALL_CRITERIA))}"
        )
    numbers = sorted(ALL_CRITERIA) if not only else sorted(set(only))
    return [ALL_CRITERIA[n]() for n in numbers]
