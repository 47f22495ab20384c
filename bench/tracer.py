"""Per-layer spans recorded from outside the package.

The tracer replaces module-level functions of the arithsurf layers with
timing wrappers.  ``from .x import f`` copies a binding, so every
``arithsurf.*`` module namespace that holds the original object is rebound.
Functions are discovered by introspection (public functions plus every
``lru_cache`` entry point) together with the few internals a metric needs;
a name a later version no longer has is skipped and the metrics that read
it are listed as absent.

Spans stay in memory as flat columns, one parent link each, and are written
out by the caller when the run ends.

Which end-to-end metric each per-layer metric should move:
  exactlat.*, cohomology.exponents_scanned and cohomology.self_s: latency on
    prescribe and normal-forms, ops_per_s on sections;
  cohomology.resaturate_s, bundles.candidate_yield: latency_p50_ms on
    normal-forms;
  exactlat.factor_s: latency_tail_ms on normal-forms (and its deadline
    overruns);
  transforms.window_retries and transforms.self_s: latency_tail_ms on
    prescribe;
  the cache hit ratios: ops_per_s and peak_rss_mb on sections;
  cli.import_s: setup_s everywhere and latency_p50_ms on cli.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("exactlat", "graded", "cohomology", "bundles", "transforms", "hirzebruch", "delpezzo", "cli")

# Internals that a per-layer metric is defined on.
NAMED_INTERNALS = {
    "exactlat": ("_echelon", "_smith_left_inverse"),
    "bundles": ("_splitting_scan",),
}
# Calls that run one elimination each; none of them calls another.
ELIMINATIONS = frozenset(
    "exactlat." + n
    for n in ("_echelon", "_smith_left_inverse", "rref_mod", "smith_invariants", "rank_uniform_mod", "determinant")
)
FACTORING = frozenset("exactlat." + n for n in ("partial_factor", "prime_divisors", "factorize"))
SECTION_SPACE = "cohomology._section_space_cached"
PROFILE = "bundles._profile_cached"
CANDIDATES = "bundles.candidate_jump_primes"

# Functions each derived metric reads; a metric is absent when one is missing.
METRIC_SOURCES = {
    "exactlat.entries": ("exactlat._echelon",),
    "exactlat.max_bits": ("exactlat._echelon",),
    "exactlat.factor_s": ("exactlat.partial_factor", "exactlat.prime_divisors"),
    "graded.degree_piece.hit_ratio": ("graded.degree_piece",),
    "cohomology.section_space.hit_ratio": (SECTION_SPACE,),
    "cohomology.exponents_scanned": (SECTION_SPACE, "cohomology.stabilization_floor"),
    "cohomology.stabilization_yield": (SECTION_SPACE, "cohomology.stabilization_floor"),
    "cohomology.resaturate_s": ("cohomology.resaturate",),
    "bundles.profile.hit_ratio": (PROFILE,),
    "bundles.candidate_primes": (CANDIDATES, PROFILE),
    "bundles.jump_primes": (PROFILE,),
    "bundles.candidate_yield": (CANDIDATES, PROFILE),
    "bundles.scans": ("bundles._splitting_scan",),
    "transforms.applies": ("transforms.apply_full",),
    "transforms.window_retries": ("transforms.apply_full", "cohomology.lattice_family"),
}
COLUMNS = ("parent", "func", "t0", "t1", "a", "b")


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def discover() -> dict[str, object]:
    """Qualified name -> original function for every traced entry point."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module("arithsurf." + layer)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if (inspect.isfunction(obj) and not name.startswith("_")) or _is_lru(obj):
                found[f"{layer}.{name}"] = obj
        for name in NAMED_INTERNALS.get(layer, ()):
            if name in vars(mod):
                found[f"{layer}.{name}"] = vars(mod)[name]
    return found


def _matrix_stats(args) -> tuple[int, int]:
    """(rows x cols, largest entry bit length) of an elimination's input."""
    first = args[0]
    if hasattr(first, "entries"):  # IntegerMatrix
        flat = first.entries
        return first.rows * first.cols, max(max(flat, default=0), -min(flat, default=0)).bit_length()
    size = hi = lo = 0
    for row in first:  # a list of rows
        if row:
            size += len(row)
            hi = max(hi, max(row))
            lo = min(lo, min(row))
    return size, max(hi, -lo).bit_length()


class Spans:
    """Flat span columns plus the function-name table they index."""

    def __init__(self, names):
        self.names = list(names)
        self.cols = {c: array("d" if c in ("t0", "t1") else "q") for c in COLUMNS}

    def __len__(self):
        return len(self.cols["func"])

    def to_json(self) -> dict:
        return {"names": self.names, **{c: v.tolist() for c, v in self.cols.items()}}

    def extend(self, other: dict):
        """Append spans written by another process, remapping ids."""
        index = {}
        for name in other["names"]:
            if name not in index:
                if name not in self.names:
                    self.names.append(name)
                index[name] = self.names.index(name)
        fmap = [index[n] for n in other["names"]]
        base = len(self)
        self.cols["parent"].extend(p + base if p >= 0 else -1 for p in other["parent"])
        self.cols["func"].extend(fmap[f] for f in other["func"])
        for c in ("t0", "t1", "a", "b"):
            self.cols[c].extend(other[c])


class Tracer:
    """Wrap the layers, record spans while installed, unwrap."""

    def __init__(self):
        self.originals = discover()
        self.spans = Spans(self.originals)
        self._stack: list[int] = []
        self.wrappers = {name: self._wrap(i, fn) for i, (name, fn) in enumerate(self.originals.items())}
        self.installed = False

    def _wrap(self, fid: int, fn):
        qual = self.spans.names[fid]
        stack = self._stack
        parent, func, t0s, t1s, aa, bb = (self.spans.cols[c] for c in COLUMNS)
        clock = time.perf_counter
        elim = qual in ELIMINATIONS
        lru = _is_lru(fn)
        count_result = qual == CANDIDATES
        post = None
        if qual == SECTION_SPACE and "cohomology.stabilization_floor" in self.originals:
            floor = self.originals["cohomology.stabilization_floor"]
            post = lambda args, res: res.e - floor(args[0], args[1]) + 1  # noqa: E731
        elif qual == PROFILE:
            post = lambda args, res: len(res.jumps)  # noqa: E731

        def wrapper(*args, **kwargs):
            a = b = 0
            if elim:
                a, b = _matrix_stats(args)
            elif lru:
                misses = fn.cache_info().misses
            idx = len(func)
            parent.append(stack[-1] if stack else -1)
            func.append(fid)
            t0s.append(0.0)
            t1s.append(0.0)
            aa.append(0)
            bb.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[idx] = start
                t1s[idx] = end
            if lru:
                a = fn.cache_info().misses - misses
                if a and post is not None:
                    b = post(args, result)
            elif count_result:
                a = len(result)
            aa[idx] = a
            bb[idx] = b
            return result

        functools.update_wrapper(wrapper, fn)
        if lru:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    @staticmethod
    def _rebind(swap: dict):
        for modname, mod in list(sys.modules.items()):
            if modname == "arithsurf" or modname.startswith("arithsurf."):
                for attr, obj in list(vars(mod).items()):
                    new = swap.get(id(obj))
                    if new is not None:
                        setattr(mod, attr, new)

    def install(self):
        if not self.installed:
            self._rebind({id(self.originals[n]): w for n, w in self.wrappers.items()})
            self.installed = True

    def uninstall(self):
        if self.installed:
            self._rebind({id(w): self.originals[n] for n, w in self.wrappers.items()})
            self.installed = False


def absent_metrics(names) -> list[str]:
    have = set(names)
    return sorted(m for m, srcs in METRIC_SOURCES.items() if not have.issuperset(srcs))


def summarize(spans: Spans) -> dict[str, float]:
    """Per-layer totals over every recorded span.

    ``calls`` counts entries into a layer from outside it (from the
    benchmark or from another layer); ``self_s`` is span time minus the time
    of child spans, summed over the layer.
    """
    names = spans.names
    layer_of = [n.split(".", 1)[0] for n in names]
    parent, func, t0, t1, a, b = (spans.cols[c] for c in COLUMNS)
    n = len(func)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += t1[i] - t0[i]

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    fid = {name: i for i, name in enumerate(names)}
    elim = {fid[x] for x in ELIMINATIONS if x in fid}
    factoring = {fid[x] for x in FACTORING if x in fid}
    get = fid.get
    ss, prof, cand = get(SECTION_SPACE), get(PROFILE), get(CANDIDATES)
    dpiece, resat = get("graded.degree_piece"), get("cohomology.resaturate")
    apply_full, lat_fam, scan = get("transforms.apply_full"), get("cohomology.lattice_family"), get("bundles._splitting_scan")
    c = dict(entries=0, max_bits=0, factor_s=0.0, dp=0, dp_miss=0, ss=0, ss_miss=0, scanned=0,
             resat_s=0.0, prof=0, prof_miss=0, jumps=0, cands=0, scans=0, applies=0, fam_in_apply=0)
    for i in range(n):
        f = func[i]
        layer = layer_of[f]
        p = parent[i]
        pf = func[p] if p >= 0 else -1
        dur = t1[i] - t0[i]
        if p < 0 or layer_of[pf] != layer:
            calls[layer] += 1
        self_s[layer] += dur - child[i]
        if f in elim:
            c["entries"] += a[i]
            c["max_bits"] = max(c["max_bits"], b[i])
        elif f in factoring:
            if pf not in factoring:
                c["factor_s"] += dur
        elif f == dpiece:
            c["dp"] += 1
            c["dp_miss"] += a[i]
        elif f == ss:
            c["ss"] += 1
            c["ss_miss"] += a[i]
            c["scanned"] += b[i]
        elif f == resat and pf != resat:
            c["resat_s"] += dur
        elif f == prof:
            c["prof"] += 1
            c["prof_miss"] += a[i]
            c["jumps"] += b[i]
        elif f == cand and pf == prof:
            c["cands"] += a[i]
        elif f == scan:
            c["scans"] += 1
        elif f == apply_full:
            c["applies"] += 1
        if f == lat_fam and pf == apply_full and apply_full is not None:
            c["fam_in_apply"] += 1

    def ratio(x, y):
        return x / y if y else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update({
        "exactlat.entries": c["entries"],
        "exactlat.max_bits": c["max_bits"],
        "exactlat.factor_s": c["factor_s"],
        "graded.degree_piece.hit_ratio": ratio(c["dp"] - c["dp_miss"], c["dp"]),
        "cohomology.section_space.hit_ratio": ratio(c["ss"] - c["ss_miss"], c["ss"]),
        "cohomology.exponents_scanned": c["scanned"],
        "cohomology.stabilization_yield": ratio(c["ss_miss"], c["scanned"]),
        "cohomology.resaturate_s": c["resat_s"],
        "bundles.profile.hit_ratio": ratio(c["prof"] - c["prof_miss"], c["prof"]),
        "bundles.candidate_primes": c["cands"],
        "bundles.jump_primes": c["jumps"],
        "bundles.candidate_yield": ratio(c["jumps"], c["cands"]),
        "bundles.scans": c["scans"],
        "transforms.applies": c["applies"],
        "transforms.window_retries": ratio(c["fam_in_apply"], c["applies"]) - 1 if c["applies"] else 0.0,
    })
    return out
