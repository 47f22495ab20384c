"""The benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop with one caller.  ``make_op(seed, i)`` builds
the i-th input and its expected answer from plain data; it never touches
arithsurf, so nothing it does is timed or shares code with the timed path.
``run`` is the timed operation and goes through arithsurf's public names
(or its CLI) only.  ``check`` compares the answer with the expectation and
returns a mismatch message or None.

Operation classes cycle in a fixed order so that every seed yields the same
mix of sizes; the seed picks the primes and coefficients inside each class.

Each workload also names ``deadline_s``, the per-operation deadline, and
``cycle_seconds``, the time one cycle of ``cycle`` operations takes at seed
on a 2-vCPU x86_64 host with CPython 3.11.  A run does a fixed number of
whole cycles derived from ``--seconds`` (see run.py), so every run of a
seed does the same work and its counts and memory repeat.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import oracle

# Operation cost grows with the prime, so each jump draws from a fixed band.
# Three primes a band, so that a 16-second prescribe run (three cycles) uses
# each of them once per jump of each class.
PRIME_BANDS = ((2, 3, 5), (11, 13, 17), (23, 29, 31), (41, 43, 47))
OFF_PRIMES = tuple(p for p in oracle.PRIMES_TO_400 if p <= 97)


def _rng(workload: str, seed: int, i) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _prescribed_profile(n: int, jumps) -> dict:
    """Normalized prescribed-types profile: (-n-1, -1), and at p_i the type
    n + 2 n_i, i.e. (-n-1-n_i, -1+n_i)."""
    return {
        "generic": [-n - 1, -1],
        "jumps": {str(p): [-n - 1 - ni, -1 + ni] for p, ni in sorted(jumps)},
    }


def _random_surjection(rng, p: int, n: int, ni: int):
    """Dense (g, h) of degrees (ni, ni + n) with no common zero mod p."""
    while True:
        g = [rng.randrange(p) for _ in range(ni + 1)]
        h = [rng.randrange(p) for _ in range(ni + n + 1)]
        if any(g) and any(h) and oracle.forms_coprime_mod(g, h, p):
            return g, h


def _default_surjection(n: int, ni: int):
    return [1] + [0] * ni, [0] * (ni + n) + [1]


def _record_fields(n: int, p: int, ni: int) -> dict:
    """Blow-up record of the first transformation of O(-1) + O(-n-1).

    The fiber kernel E'/pE is a line bundle of degree deg E - m, which fixes
    the second center; the rest follows from the two splitting types.
    """
    e, m = -n - 2, ni - 1
    m_u = e - m
    jump = [-n - 1 - ni, -1 + ni]
    return {
        "p": str(p),
        "m": m,
        "center_V": {"p": str(p), "quotient_degree": m, "degree": m + 1,
                     "self_intersection": 2 * m - e, "fiber_splitting": [-n - 1, -1]},
        "center_U": {"p": str(p), "quotient_degree": m_u, "degree": m_u - jump[1],
                     "self_intersection": 2 * m_u - e, "fiber_splitting": jump},
        "source_profile": _prescribed_profile(n, []),
        "target_profile": _prescribed_profile(n, [(p, ni)]),
    }


# Documents whose expected fields are a subset; every other field must match whole.
_PARTIAL = frozenset({"factorization", "center_V", "center_U", "constancy", "certificate", "bundle", "source"})


def _subset_mismatch(want: dict, got: dict, where: str = "") -> str | None:
    for key, value in want.items():
        if key not in got:
            return f"{where}{key} missing"
        if key in _PARTIAL and isinstance(got[key], dict):
            msg = _subset_mismatch(value, got[key], f"{where}{key}.")
            if msg:
                return msg
        elif got[key] != value:
            return f"{where}{key}: got {got[key]!r}, expected {value!r}"
    return None


def _nf_expected(n: int, f) -> tuple[tuple[int, int], int]:
    """Generic type and jump modulus (jump primes = its prime divisors).

    n = 1 is always (0, 1); for n = 2 the type is (1, 1) jumping to (0, 2)
    exactly at the primes dividing the x0*x1 coefficient (constant (0, 2)
    when it vanishes); from n = 3 on the brute-force syzygy oracle decides.
    """
    if n == 1:
        return (0, 1), 1
    if n == 2:
        return ((1, 1), abs(f[1])) if f[1] else ((0, 2), 1)
    return oracle.nf_generic(n, f), oracle.nf_jump_modulus(n, f)


def _nf_check_profile(n: int, f, prof: dict) -> str | None:
    generic = tuple(prof["generic"])
    want, modulus = _nf_expected(n, f)
    if generic != want:
        return f"generic {generic} != {want}"
    jumps = {int(p): tuple(st) for p, st in prof["jumps"].items()}
    return oracle.check_jump_set(jumps, modulus, lambda p: (0, 2) if n == 2 else oracle.nf_type_mod(n, f, p))


def _off_primes(rng, modulus: int, k: int = 2) -> list[int]:
    return rng.sample([p for p in OFF_PRIMES if modulus % p], k)


# ---------------------------------------------------------------------------
# prescribe


class Prescribe:
    """prescribed_types, then type_profile, check_parity, check_type_h0;
    every fourth operation also round-trips a blow-up record through JSON.

    Why: the transformation path (apply_full, pair-space stabilization,
    integer echelon) that closed-form transformations would replace.
    """

    name = "prescribe"
    deadline_s = 20.0
    cycle_seconds = 5.5
    # (generic type n, heights, dense surjection per jump).  A dense
    # surjection is the only one or the last one: applied before another
    # jump it makes operations take from one second to minutes at seed,
    # which no fixed-length run can average; DENSE_FIRST runs that case
    # once per run, outside the measured loop.  The classes at ranks 6-8 by
    # cost ((2,(1,1)), (1,(1,1,1)), (1,(1,2))) cost about the same, so the
    # median of the mix is a middle order statistic of twelve similar
    # operations instead of an edge of one class.
    CLASSES = (
        (0, (1,), (False,)),
        (1, (2,), (True,)),
        (2, (1, 2), (False, False)),
        (3, (3,), (False,)),
        (0, (2, 1), (True, False)),
        (1, (1, 1, 1), (False, False, False)),
        (2, (1, 1), (False, True)),
        (3, (1,), (True,)),
        (0, (3, 3, 3), (False, False, False)),
        (1, (1, 2), (False, True)),
        (2, (2, 2, 1), (False, False, False)),
        (3, (2, 1), (False, False)),
        (2, (1,), (False,)),
    )
    cycle = len(CLASSES)
    # A dense surjection at a prime of 11-17 before a jump at 23-31: about
    # 1-5 s at seed, so it may overrun its deadline.
    DENSE_FIRST = (1, (2, 1), (True, False))
    DENSE_FIRST_BAND = 1
    DENSE_FIRST_DEADLINE_S = 5.0

    def setup_inputs(self, seed):
        return None

    def setup(self, A, inputs, workdir):
        return None

    def make_op(self, seed, i):
        """Jump k of class c takes its prime from band c + k.  Each band
        steps by one prime per cycle from a seed-chosen start, so a run of
        three cycles uses every prime of a band once for each jump that
        draws from it.  All operations of a cycle that draw from one band
        share its prime, so which operations find the first transformation
        of another one cached, and hence the run's cost, does not depend on
        the seed."""
        c, n_cycle = i % self.cycle, i // self.cycle
        n, heights, dense = self.CLASSES[c]
        start = _rng(self.name, seed, "rotation")
        starts = [start.randrange(len(band)) for band in PRIME_BANDS]
        primes = []
        for k in range(len(heights)):
            b = (c + k) % len(PRIME_BANDS)
            primes.append(PRIME_BANDS[b][(starts[b] + n_cycle) % len(PRIME_BANDS[b])])
        return self._spec(_rng(self.name, seed, i), n, heights, dense, primes, record=i % 4 == 0)

    @staticmethod
    def _spec(rng, n, heights, dense, primes, record):
        """The first jump's pair (or the default one) also gives the
        blow-up record when asked."""
        jumps = []
        for p, ni, d in zip(primes, heights, dense):
            jumps.append((p, ni, _random_surjection(rng, p, n, ni) if d else None))
        p, ni, gh = jumps[0]
        return {
            "n": n,
            "jumps": jumps,
            "record": (p, ni, gh or _default_surjection(n, ni)) if record else None,
            "profile": _prescribed_profile(n, [(p, ni) for p, ni, _ in jumps]),
        }

    def run(self, A, state, spec):
        n = spec["n"]
        jumps = []
        for p, ni, gh in spec["jumps"]:
            if gh is None:
                jumps.append((p, ni))
            else:
                jumps.append((p, ni, (A.Form.make(ni, gh[0]), A.Form.make(ni + n, gh[1]))))
        B = A.prescribed_types(n, jumps)
        out = {
            "profile": A.type_profile(B).to_json(),
            "parity": A.check_parity(B),
            "type_h0": A.check_type_h0(B),
        }
        if spec["record"]:
            p, ni, (g, h) = spec["record"]
            base = A.bundle_handle(A.free_presentation((-1, -n - 1)), assume_saturated=True)
            q = A.FiberQuotient.from_pair(p, ni - 1, A.Form.make(ni, g), A.Form.make(ni + n, h))
            rec = A.blowup_factorization(base, q)
            again = A.BlowupFactorization.from_json(json.loads(json.dumps(rec.to_json())))
            out["record"] = (rec.to_json(), again == rec)
        return out

    def check(self, spec, out):
        if out["profile"] != spec["profile"]:
            return f"profile {out['profile']} != {spec['profile']}"
        heights = {p: ni for p, ni, _ in spec["jumps"]}
        if out["parity"] != {p: 2 * ni for p, ni in heights.items()}:
            return f"parity deltas {out['parity']}"
        if out["type_h0"] != {p: (2 * ni, ni) for p, ni in heights.items()}:
            return f"type/h0 identity {out['type_h0']}"
        if spec["record"]:
            doc, same = out["record"]
            if not same:
                return "blow-up record does not round-trip through JSON"
            p, ni, _ = spec["record"]
            return _subset_mismatch(_record_fields(spec["n"], p, ni), doc, "record.")
        return None

    def off_loop_probe(self, A, seed, run_with_deadline):
        """A dense surjection before another jump, outside the measured loop."""
        rng = _rng(self.name, seed, "dense-first")
        n, heights, dense = self.DENSE_FIRST
        primes = [rng.choice(PRIME_BANDS[self.DENSE_FIRST_BAND + k]) for k in range(len(heights))]
        spec = self._spec(rng, n, heights, dense, primes, record=False)
        outcome, seconds, _ = run_with_deadline(
            lambda: self.run(A, None, spec), self.DENSE_FIRST_DEADLINE_S, lambda out: self.check(spec, out)
        )
        return {"case": "dense surjection before another jump",
                "jumps": [[p, ni] for p, ni, _ in spec["jumps"]],
                "deadline_s": self.DENSE_FIRST_DEADLINE_S, "outcome": outcome, "seconds": seconds}


# ---------------------------------------------------------------------------
# normal forms


class NormalForms:
    """bundle_from_normal_form, degree_profile, two off-jump splitting_type
    audits, and constancy_check on the classes whose profile is constant.

    Why: resaturation, candidate jump primes and factoring, which profiles
    from a Smith form on the dual and bounded factoring would change.
    """

    name = "normal-forms"
    deadline_s = 10.0
    cycle_seconds = 5.5
    # (kind, n, coefficient bound, constancy check)
    CLASSES = (
        ("random", 1, 30, True),
        ("random", 2, 30, False),
        ("random", 3, 1000, False),
        ("random", 4, 30, False),
        ("random", 2, 10**6, False),
        ("random", 1, 10**6, True),
        ("random", 3, 10**6, False),
        ("semiprime", 2, 30, False),
        ("random", 4, 1000, False),
        ("random", 3, 30, False),
        ("random", 4, 10**6, False),
        ("unit", 2, 30, True),
    )
    cycle = len(CLASSES)
    # m*x0*x1 with m a 37-digit semiprime: candidate-prime detection falls
    # through to unbudgeted factoring.  Run once per run, outside the
    # measured loop.
    KNOWN_FAILURE_DIGITS = 37
    KNOWN_FAILURE_DEADLINE_S = 2.0

    def setup_inputs(self, seed):
        return None

    def setup(self, A, inputs, workdir):
        return None

    def make_op(self, seed, i):
        rng = _rng(self.name, seed, i)
        kind, n, bound, constancy = self.CLASSES[i % self.cycle]
        f = [rng.randint(-bound, bound) for _ in range(n + 1)]
        if n == 2:
            if kind == "semiprime":
                f[1] = oracle.random_prime(rng, 3 * 10**9, 10**10) * oracle.random_prime(rng, 3 * 10**9, 10**10)
            elif kind == "unit":
                f[1] = rng.choice((-1, 1))
            while f[1] == 0:
                f[1] = rng.randint(-bound, bound)
        generic, modulus = _nf_expected(n, f)
        return {
            "n": n,
            "f": f,
            "generic": list(generic),
            "off": _off_primes(rng, modulus),
            "constancy": constancy,
        }

    def run(self, A, state, spec):
        nf = A.NormalForm.make(spec["n"], A.Form.make(spec["n"], spec["f"]))
        B = A.bundle_from_normal_form(nf)
        out = {
            "profile": A.degree_profile(nf).to_json(),
            "off": [A.splitting_type(B, p).to_json() for p in spec["off"]],
        }
        if spec["constancy"]:
            out["constancy"] = A.constancy_check(nf).to_json()
        return out

    def check(self, spec, out):
        msg = _nf_check_profile(spec["n"], spec["f"], out["profile"])
        if msg:
            return msg
        if any(st != spec["generic"] for st in out["off"]):
            return f"off-jump types {out['off']} != generic {spec['generic']}"
        if spec["constancy"]:
            cons = out["constancy"]
            if cons["status"] != "certified" or cons["certificate"]["split"] != spec["generic"]:
                return f"constancy {cons['status']}"
        return None

    def off_loop_probe(self, A, seed, run_with_deadline):
        """The 37-digit case, outside the measured loop: outcome and seconds."""
        rng = _rng(self.name, seed, "known-failure")
        low = 10 ** (self.KNOWN_FAILURE_DIGITS // 2)
        m = oracle.random_prime(rng, low, 2 * low) * oracle.random_prime(rng, 2 * low, 5 * low)
        spec = {"n": 2, "f": [1, m, 1], "generic": [1, 1], "off": [], "constancy": False}
        outcome, seconds, _ = run_with_deadline(
            lambda: self.run(A, None, spec), self.KNOWN_FAILURE_DEADLINE_S, lambda out: self.check(spec, out)
        )
        return {"case": "semiprime m*x0*x1", "digits": len(str(m)), "deadline_s": self.KNOWN_FAILURE_DEADLINE_S,
                "outcome": outcome, "seconds": seconds}


# ---------------------------------------------------------------------------
# sections


def _type_h0_h1(split, t: int) -> tuple[int, int]:
    """h0 and h1 of O(a) + O(b) twisted by t."""
    return sum(max(0, t + d + 1) for d in split), sum(max(0, -t - d - 1) for d in split)


class Sections:
    """h0_dim and h1 at every twist -8..8, over Z or over GF(p), of a
    bundle from a pool built in set-up.  A third of the queries find
    their answers cached: a ninth repeat an earlier query, and the others
    ask for jump fibers and Z tables, which set-up mostly computed already.

    Why: the pair engine and mod-p elimination with no construction, and
    the section-space caches.  Profiles from a Smith form on the dual and
    closed-form transformations should leave it unchanged; bounding the
    caches should cost it.

    Every answer has a closed form from the known type (a, b) at the query's
    prime: h0 = sum max(0, t+d+1) and h1 = sum max(0, -t-d-1).  The pool's
    shapes are fixed and the seed picks their primes and coefficients.
    Queries take their (bundle, prime) from seed-shuffled lists of all of
    them, in passes: an off query's first pass meets a fiber no query has
    reduced yet, and a later pass finds it cached.  So the share of cache
    misses is the same for every seed, and the median lies inside them.
    cycle_seconds is set so that a run of up to 20 seconds plans at most
    one pass over the 306 off fibers (six per cycle).
    """

    name = "sections"
    deadline_s = 10.0
    cycle_seconds = 0.4
    TWISTS = tuple(range(-8, 9))
    # off: a prime up to 400 that is not a jump of the bundle; jump: a jump
    # prime; zz: over Z; repeat: an earlier off or jump query, a cache hit.
    CYCLE = ("off", "off", "jump", "off", "repeat", "off", "off", "zz", "off")
    cycle = len(CYCLE)
    REPEATABLE = tuple(k for k, kind in enumerate(CYCLE) if kind in ("off", "jump"))
    # (kind, generic type n or normal-form n, heights, first band)
    POOL = (("prescribed", 1, (2,), 0), ("prescribed", 2, (1,), 1),
            ("prescribed", 0, (1, 1), 0), ("normal", 2, None, None))

    def setup_inputs(self, seed):
        rng = _rng(self.name, seed, "pool")
        pool = []
        for kind, n, heights, band in self.POOL:
            if kind == "prescribed":
                primes = [rng.choice(PRIME_BANDS[band + k]) for k in range(len(heights))]
                prof = _prescribed_profile(n, list(zip(primes, heights)))
                pool.append({"kind": kind, "n": n, "jumps": [list(j) for j in zip(primes, heights)],
                             "generic": prof["generic"], "types": prof["jumps"]})
            else:
                a, b = rng.sample((2, 3, 5, 7, 11, 13), 2)
                f = [rng.randint(-30, 30), rng.choice((-1, 1)) * a * b, rng.randint(-30, 30)]
                pool.append({"kind": kind, "n": n, "f": f, "generic": [1, 1],
                             "types": {str(q): [0, 2] for q in sorted((a, b))}})
        return pool

    def setup(self, A, inputs, workdir):
        out = []
        for b in inputs:
            if b["kind"] == "prescribed":
                B = A.prescribed_types(b["n"], [tuple(j) for j in b["jumps"]])
            else:
                B = A.bundle_from_normal_form(A.NormalForm.make(b["n"], A.Form.make(b["n"], b["f"])))
            out.append(B.presentation)
        return out

    def _plan(self, seed):
        """Seed-shuffled (bundle, prime) lists per kind; None is Z."""
        if getattr(self, "_planned", (None,))[0] != seed:
            pool = self.setup_inputs(seed)
            combos = {"jump": [], "off": [], "zz": []}
            for b, spec in enumerate(pool):
                combos["zz"].append((b, None))
                for q in oracle.PRIMES_TO_400:
                    combos["jump" if str(q) in spec["types"] else "off"].append((b, q))
            rng = _rng(self.name, seed, "plan")
            for kind in combos:
                rng.shuffle(combos[kind])
            self._planned = (seed, pool, combos)
        return self._planned[1:]

    def make_op(self, seed, i):
        pool, combos = self._plan(seed)
        kind = self.CYCLE[i % self.cycle]
        if kind == "repeat":
            slots = self.REPEATABLE
            earlier = i // self.cycle * len(slots) + sum(1 for k in slots if k < i % self.cycle)
            c, k = divmod(_rng(self.name, seed, i).randrange(earlier), len(slots))
            return dict(self.make_op(seed, c * self.cycle + slots[k]), kind=kind)
        m = i // self.cycle * self.CYCLE.count(kind) + self.CYCLE[: i % self.cycle].count(kind)
        b, q = combos[kind][m % len(combos[kind])]
        split = pool[b]["generic"] if q is None else pool[b]["types"].get(str(q), pool[b]["generic"])
        return {"kind": kind, "bundle": b, "p": q, "expect": [list(_type_h0_h1(split, t)) for t in self.TWISTS]}

    def run(self, A, state, spec):
        P = state[spec["bundle"]]
        Q = P if spec["p"] is None else A.reduce_mod(P, spec["p"])
        return [[A.h0_dim(Q, t), A.h1(Q, t)] for t in self.TWISTS]

    def check(self, spec, out):
        if out != spec["expect"]:
            return f"(h0, h1) {out} != {spec['expect']} at p={spec['p']}"
        return None


# ---------------------------------------------------------------------------
# cli


class Cli:
    """One fresh ``python -m arithsurf.cli`` process per operation.

    Why: fresh processes keep the caches from hiding cost, the import is a
    large share of each command, and this is the only workload that reaches
    the cli and delpezzo layers.
    """

    name = "cli"
    deadline_s = 30.0
    cycle_seconds = 4.5
    CLASSES = (
        "bundle-build", "bundle-check", "bundle-profile-nf", "bundle-profile-handle",
        "bundle-check-handle", "transform-apply", "transform-factorize", "surface-reduce",
        "surface-certify", "delpezzo-check", "delpezzo-classify", "malformed",
    )
    cycle = len(CLASSES)
    CLI_PRIMES = tuple(p for p in oracle.PRIMES_TO_400 if p <= 23)
    STANDARD = ("1:0:0", "0:1:0", "0:0:1", "1:1:1")

    def setup_inputs(self, seed):
        rng = _rng(self.name, seed, "handles")
        a, b, c = rng.sample(self.CLI_PRIMES, 3)
        return [(1, [(c, 2)]), (0, [(a, 1), (b, 1)])]

    def setup(self, A, inputs, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, (n, jumps) in enumerate(inputs):
            path = workdir / f"handle{k}.json"
            path.write_text(json.dumps(A.prescribed_types(n, jumps).to_json()))
            paths.append(str(path))
        return paths

    def make_op(self, seed, i):
        rng = _rng(self.name, seed, i)
        kind = self.CLASSES[i % self.cycle]
        return getattr(self, "_op_" + kind.replace("-", "_"))(rng, seed, i)

    # Each _op_* returns the argv, the exit status and the expected fields
    # of the JSON document, plus "nf" = (n, f) when the profile is checked
    # against the normal-form oracle.  Sizes (n, jump count, heights) follow
    # the cycle number k = i // cycle, so every seed runs the same mix; the
    # seed picks primes and coefficients.

    def _op_bundle_build(self, rng, seed, i):
        k = i // self.cycle
        n = k % 3
        jumps = [(p, 1 + (k + j) % 2) for j, p in enumerate(rng.sample(self.CLI_PRIMES, 1 + k % 2))]
        argv = ["bundle", "build", "--generic-type", str(n)]
        for p, ni in jumps:
            argv += ["--jump", f"{p}:{ni}"]
        return {"argv": argv, "exit": 0, "expect": {"profile": _prescribed_profile(n, jumps)}}

    def _op_bundle_check(self, rng, seed, i):
        k = i // self.cycle
        n, jumps = (k + 1) % 3, [(rng.choice(self.CLI_PRIMES), 1 + k % 2)]
        argv = ["bundle", "check", "--generic-type", str(n), "--jump", "%d:%d" % jumps[0]]
        return {"argv": argv, "exit": 0, "expect": self._check_fields(n, jumps)}

    @staticmethod
    def _check_fields(n, jumps):
        return {
            "profile": _prescribed_profile(n, jumps),
            "parity_deltas": {str(p): 2 * ni for p, ni in jumps},
            "type_h0": {str(p): {"delta": 2 * ni, "fiber_h0": ni} for p, ni in jumps},
        }

    def _op_bundle_profile_nf(self, rng, seed, i):
        beta = rng.choice((-1, 1))
        for p in rng.sample((2, 3, 5, 7, 11, 13), 1 + i // self.cycle % 2):
            beta *= p
        f = [rng.randint(-30, 30), beta, rng.randint(-30, 30)]
        jumps = oracle.small_prime_divisors(beta)
        audit = {str(p): [0, 2] if p in jumps else [1, 1] for p in (2, 3, 5, 7, 11, 13)}
        argv = ["bundle", "profile", "-n", "2", "-f=" + oracle.render_form(f), "--primes-up-to", "13"]
        expect = {"profile": {"generic": [1, 1], "jumps": {str(p): [0, 2] for p in jumps}}, "audit": audit}
        return {"argv": argv, "exit": 0, "expect": expect}

    def _op_bundle_profile_handle(self, rng, seed, i):
        n, jumps = self.setup_inputs(seed)[0]
        return {"argv": ["bundle", "profile", "--bundle", "@0"], "exit": 0,
                "expect": {"profile": _prescribed_profile(n, jumps)}}

    def _op_bundle_check_handle(self, rng, seed, i):
        n, jumps = self.setup_inputs(seed)[1]
        return {"argv": ["bundle", "check", "--bundle", "@1"], "exit": 0,
                "expect": self._check_fields(n, jumps)}

    def _op_transform_apply(self, rng, seed, i):
        k = i // self.cycle
        n, p, ni = k % 3, rng.choice(self.CLI_PRIMES), 1 + k // 3 % 2
        g, h = _random_surjection(rng, p, n, ni)
        argv = ["transform", "apply", "--generic-type", str(n), "--prime", str(p), "--twist", str(ni - 1),
                "--g=" + oracle.render_form(g), "--h=" + oracle.render_form(h)]
        return {"argv": argv, "exit": 0,
                "expect": {"profile": _prescribed_profile(n, [(p, ni)]),
                           "source": {"degree": -n - 2}, "bundle": {"rank": 2, "degree": -n - 2}}}

    def _op_transform_factorize(self, rng, seed, i):
        k = i // self.cycle
        n, p, ni = (k + 1) % 3, rng.choice(self.CLI_PRIMES), 1 + k % 2
        g, h = _default_surjection(n, ni)
        argv = ["transform", "factorize", "--generic-type", str(n), "--prime", str(p), "--twist", str(ni - 1),
                "--g=" + oracle.render_form(g), "--h=" + oracle.render_form(h)]
        return {"argv": argv, "exit": 0, "expect": {"factorization": _record_fields(n, p, ni)}}

    def _op_surface_reduce(self, rng, seed, i):
        n = 2 + i // self.cycle % 2
        f = [rng.randint(-1000, 1000) for _ in range(n + 1)]
        while f[1] == 0:
            f[1] = rng.randint(-1000, 1000)
        reduced = [0] + f[1:n] + [0]
        argv = ["surface", "normal-form", "-n", str(n), "-f=" + oracle.render_form(f), "--reduce"]
        expect = {"equation": oracle.equation_string(n, reduced), "bidegree": [n, 1], "smooth": True}
        return {"argv": argv, "exit": 0, "expect": expect, "nf": (n, reduced)}

    def _op_surface_certify(self, rng, seed, i):
        f = [rng.randint(-10**6, 10**6) for _ in range(2)]
        argv = ["surface", "normal-form", "-n", "1", "-f=" + oracle.render_form(f), "--certify"]
        expect = {"equation": oracle.equation_string(1, f),
                  "profile": {"generic": [0, 1], "jumps": {}},
                  "constancy": {"status": "certified", "certificate": {"split": [0, 1]}}}
        return {"argv": argv, "exit": 0, "expect": expect}

    def _op_delpezzo_check(self, rng, seed, i):
        points = []
        while len(points) < 4:
            pt = tuple(rng.randint(-5, 5) for _ in range(3))
            if _primitive(pt):
                points.append(pt)
        witnesses = oracle.gp_witnesses(points)
        argv = ["delpezzo", "check", "--points=" + ",".join("%d:%d:%d" % pt for pt in points)]
        return {"argv": argv, "exit": 0, "expect": {"verdict": {"ok": not witnesses, "witnesses": witnesses}}}

    def _op_delpezzo_classify(self, rng, seed, i):
        r = 1 + i // self.cycle % 4
        U = _unimodular(rng)
        std = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)][:r]
        points = [tuple(sum(U[k][j] * v[j] for j in range(3)) for k in range(3)) for v in std]
        argv = ["delpezzo", "classify", "--points=" + ",".join("%d:%d:%d" % pt for pt in points)]
        expect = {"model": f"blowup_P2_{r}pts", "K2": 9 - r, "points": r, "standard": list(self.STANDARD[:r])}
        return {"argv": argv, "exit": 0, "expect": expect}

    def _op_malformed(self, rng, seed, i):
        p = rng.choice(self.CLI_PRIMES)
        case = i // self.cycle % 3
        if case == 0:
            argv, error = ["bundle", "build", "--generic-type", "0", "--jump", f"{p}:1", "--jump", f"{p}:2"], "DuplicatePrime"
        elif case == 1:
            argv, error = ["bundle", "build", "--generic-type", "1", "--jump", f"{p * rng.choice((2, 3))}:1"], "CompositeModulus"
        else:
            argv, error = ["transform", "apply", "--generic-type", "0", "--prime", str(p), "--twist", "0",
                           "--g", "x0", "--h", "x0"], "NotSurjective"
        return {"argv": argv, "exit": 2, "expect": {"error": error}}

    def command(self, state, spec, traced_spans: str | None):
        argv = [a if not a.startswith("@") else state[int(a[1:])] for a in spec["argv"]]
        if traced_spans is None:
            return [sys.executable, "-m", "arithsurf.cli", *argv]
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), traced_spans, *argv]

    def run_process(self, cmd, env, cwd):
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=self.deadline_s)
        return proc.returncode, proc.stdout

    def check(self, spec, out):
        code, stdout = out
        if code != spec["exit"]:
            return f"exit {code}, expected {spec['exit']}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not one JSON document"
        msg = _subset_mismatch(spec["expect"], doc)
        if msg is None and "nf" in spec:
            msg = _nf_check_profile(*spec["nf"], doc["profile"])
        return msg


def _primitive(pt) -> bool:
    return gcd(gcd(pt[0], pt[1]), pt[2]) == 1


def _unimodular(rng):
    """A random 3x3 integer matrix of determinant +-1 with small entries."""
    U = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


WORKLOADS = {w.name: w for w in (Prescribe(), NormalForms(), Sections(), Cli())}
