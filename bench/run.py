"""arithsurf benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 bench/run.py --workload prescribe --seed 1 --seconds 16 --trace 0
    python3 bench/smoke.py        # every workload, one cycle, both modes

Workloads (why each exists is in workloads.py): prescribe, normal-forms,
sections, cli.  Each operation starts when the previous one returned, runs
under a per-operation deadline, and its answer is checked, outside the
timed region, against a value known independently of the timed path.

``--seconds`` fixes the work: ``--trace 0`` runs max(1, round(seconds /
cycle_seconds)) whole cycles of the workload's operation classes, about
``--seconds`` of operations at seed (``--seconds 0`` is one cycle), and
reports the end-to-end metrics.  A fixed amount of work keeps the class
mix, the tail percentile and the memory high-water mark the same from run
to run on a host whose speed drifts.  A run whose operations use more than
MAX_STRETCH x the planned cycles' expected time stops starting operations
and exits 3 without a result line, since its class mix differs from a full
run's.  ``--trace 1`` alternates untraced and traced cycles, about
``--seconds`` in all (at least one pair), and reports per-layer metrics
from the traced ones plus the throughput of both kinds, which is the
tracing overhead.  Metric units come from BENCHMARK.json.

Every end-to-end time is reported at a reference host speed.  On a shared
2-vCPU x86_64 host with CPython 3.11, CPU speed drifted by half or more
over tens of seconds (the CAL_STEPS loop below read anywhere from 10 to
22 ms), and the program's operations slowed down with it in step.  So the
run pins itself and its children to one CPU, times a short fixed
calibration loop between operations, at least every CAL_EVERY_S, and
multiplies each raw time by REF_CAL_S / (median calibration time within
CAL_WINDOW_S of it).  The calibration loop is the benchmark's own code, so
a change to the program cannot move it.  The report keeps the raw values
under ``raw_metrics`` and the calibration samples' quartiles.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is the full report: every metric with its unit (the
error rate too), the tail percentile and its sample count, set-up samples,
the outcome of the workload's off-loop probe if it has one, a host-noise
loop timed at start and end, and provenance.  The report and,
for traced runs, the spans are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 5
NOISE_STEPS = 2_000_000
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROBE_TIMEOUT_S = 120.0
MAX_STRETCH = 2.0
TRACED_PAIR_CYCLES = 2  # an untraced plus a traced cycle; tracing adds 0-25% at seed
CAL_STEPS = 100_000
REF_CAL_S = 0.015  # CAL_STEPS loop time at the reference speed (typical on the host above)
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 2.0
CAL_MIN_SAMPLES = 5


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def run_with_deadline(fn, deadline_s: float, check):
    """Run one operation; returns (outcome, seconds, result).

    The outcome is "ok", "deadline", "raised: ..." or "wrong: ...".  Only
    the call itself is timed; ``check`` runs afterwards.
    """
    elapsed = deadline_s
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return "deadline", elapsed, None
    except Exception as exc:  # an operation that raises is a failed operation
        return f"raised: {type(exc).__name__}: {exc}"[:300], elapsed, None
    try:
        msg = check(result)
    except Exception as exc:  # malformed output fails the check
        msg = f"check raised {type(exc).__name__}: {exc}"
    return ("ok" if msg is None else f"wrong: {msg}"[:300]), elapsed, result


def cpu_loop(steps: int = NOISE_STEPS) -> float:
    """Seconds for a fixed pure-Python loop: host noise, not a metric."""
    start = time.perf_counter()
    x = 0
    for i in range(steps):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class HostClock:
    """Calibration samples over a run, to rescale raw times to REF_CAL_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = cpu_loop(CAL_STEPS)
        self.samples.append((start + seconds / 2, seconds))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.sample()

    def adjust(self, mid: float, seconds: float) -> float:
        """``seconds`` measured around ``mid``, at the reference speed."""
        near = [c for t, c in self.samples if abs(t - mid) <= CAL_WINDOW_S]
        if len(near) < CAL_MIN_SAMPLES:
            near = [c for _, c in sorted(self.samples, key=lambda tc: abs(tc[0] - mid))[:CAL_MIN_SAMPLES]]
        return seconds * REF_CAL_S / statistics.median(near)

    def summary(self) -> dict:
        cal = [c for _, c in self.samples]
        q = statistics.quantiles(cal, n=4) if len(cal) > 1 else [cal[0]] * 3
        return {"steps": CAL_STEPS, "ref_s": REF_CAL_S, "samples": len(cal), "quartiles_s": q}


def measure_setup(name: str, seed: int, workdir: Path, env: dict, clock: HostClock) -> tuple[list, list]:
    """setup_s samples: spawn to ready of a fresh probe, minus input
    generation; returned raw and at the reference speed."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPS):
        for _ in range(CAL_MIN_SAMPLES):
            clock.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(workdir)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        signal.setitimer(signal.ITIMER_REAL, PROBE_TIMEOUT_S)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("READY "):
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        raw.append(ready - start - float(line.split()[1]))
        for _ in range(CAL_MIN_SAMPLES):
            clock.sample()
        adjusted.append(clock.adjust((start + ready) / 2, raw[-1]))
    return raw, adjusted


def provenance(args, ops: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def latency_summary(records, deadline_s: float) -> dict:
    """Median and tail latency; a failed operation counts as at least the
    deadline, so it misses every latency limit."""
    lat = sorted((s if outcome == "ok" else max(s, deadline_s)) * 1000 for _, s, outcome in records)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, pct, beyond = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    else:
        tail, pct, beyond = lat[-1], 100.0, 0
    return {"p50_ms": statistics.median(lat), "tail_ms": tail, "tail_percentile": pct, "tail_samples_beyond": beyond}


class Runner:
    def __init__(self, args, w, A, state, env):
        self.args, self.w, self.A, self.state, self.env = args, w, A, state, env
        self.is_cli = w.name == "cli"

    def execute(self, i: int, spans_path: Path | None = None):
        w, spec = self.w, self.w.make_op(self.args.seed, i)
        if self.is_cli:
            cmd = w.command(self.state, spec, None if spans_path is None else str(spans_path))
            fn = lambda: w.run_process(cmd, self.env, ROOT)  # noqa: E731
        else:
            fn = lambda: w.run(self.A, self.state, spec)  # noqa: E731
        outcome, seconds, _ = run_with_deadline(fn, w.deadline_s, lambda out: w.check(spec, out))
        return i, seconds, outcome

    def timed_loop(self, clock: HostClock):
        """Returns the records at the reference speed, the raw ones, the
        raw busy time and the planned operation count."""
        cycles = max(1, round(self.args.seconds / self.w.cycle_seconds))
        planned, limit = cycles * self.w.cycle, MAX_STRETCH * cycles * self.w.cycle_seconds
        raw, mids, busy = [], [], 0.0
        for i in range(planned):
            if busy > limit:
                break
            clock.maybe_sample()
            start = time.perf_counter()
            rec = self.execute(i)
            raw.append(rec)
            mids.append(start + rec[1] / 2)
            busy += rec[1]
        clock.sample()
        adjusted = [(i, clock.adjust(mid, s), o) for (i, s, o), mid in zip(raw, mids)]
        return adjusted, raw, busy, planned

    def traced_loop(self, tr):
        """Alternate untraced and traced cycles of the same class mix."""
        chunk = self.w.cycle
        pairs = max(1, round(self.args.seconds / (TRACED_PAIR_CYCLES * self.w.cycle_seconds)))
        plain, traced, imports = [], [], []
        spans_path = OUT / f"child_spans_{self.w.name}_{self.args.seed}.json"
        for c in range(2 * pairs):
            on = c % 2 == 1
            if on and not self.is_cli:
                tr.install()
            try:
                for k in range(chunk):
                    i = c * chunk + k
                    rec = self.execute(i, spans_path if on and self.is_cli else None)
                    (traced if on else plain).append(rec)
                    if on and self.is_cli and spans_path.exists():
                        doc = json.loads(spans_path.read_text())
                        spans_path.unlink()
                        tr.spans.extend(doc["spans"])
                        imports.append(doc["import_s"])
            finally:
                tr.uninstall()
        return plain, traced, imports


def _rate(records) -> float:
    busy = sum(s for _, s, _ in records)
    return sum(1 for *_, o in records if o == "ok") / busy if busy else 0.0


def _metrics(values: dict) -> dict:
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "arithsurf" / "__init__.py").is_file():
        print(f"error: arithsurf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = OUT / "work" / f"{w.name}-{args.seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # One CPU for the caller, its children and the calibration loop, so the
    # loop reads the speed of the CPU the operations run on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    noise_start = cpu_loop()

    inputs = w.setup_inputs(args.seed)
    start = time.perf_counter()
    import arithsurf as A

    if not Path(A.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported arithsurf from {A.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    state = w.setup(A, inputs, workdir)
    main_setup_s = time.perf_counter() - start
    runner = Runner(args, w, A, state, env)

    report = {"workload": w.name, "seed": args.seed, "trace": args.trace, "main_setup_s": main_setup_s}
    if args.trace:
        import tracer

        import arithsurf.cli  # noqa: F401  (its namespace is rebound too)

        tr = tracer.Tracer()
        plain, traced, imports = runner.traced_loop(tr)
        records = plain + traced
        values = tracer.summarize(tr.spans)
        values["cli.import_s"] = statistics.mean(imports) if imports else 0.0
        values["trace.ops_per_s"] = _rate(traced)
        values["trace.untraced_ops_per_s"] = _rate(plain)
        metrics = _metrics(values)
        spans_file = OUT / f"trace_{w.name}_s{args.seed}.json"
        spans_file.write_text(json.dumps(tr.spans.to_json()))
        report["trace_run"] = {
            "untraced_ops": len(plain),
            "traced_ops": len(traced),
            "overhead": values["trace.untraced_ops_per_s"] / values["trace.ops_per_s"] if values["trace.ops_per_s"] else None,
            "spans": len(tr.spans),
            "spans_file": str(spans_file.relative_to(ROOT)),
            "absent_metrics": tracer.absent_metrics(tr.spans.names),
        }
    else:
        clock = HostClock()
        records, raw_records, busy, planned = runner.timed_loop(clock)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner.is_cli else resource.RUSAGE_SELF)
        raw_setup, setup = measure_setup(w.name, args.seed, workdir, env, clock)
        completed = sum(1 for *_, o in records if o == "ok")

        def e2e(recs, setup_samples):
            lat = latency_summary(recs, w.deadline_s)
            return lat, {
                "setup_s": statistics.median(setup_samples),
                "ops_per_s": completed / sum(s for _, s, _ in recs),
                "latency_p50_ms": lat["p50_ms"],
                "latency_tail_ms": lat["tail_ms"],
                "peak_rss_mb": usage.ru_maxrss / 1024,
            }

        lat, values = e2e(records, setup)
        metrics = _metrics(values)
        report["raw_metrics"] = _metrics(e2e(raw_records, raw_setup)[1])
        report["host_calibration"] = clock.summary()
        report["error_rate"] = {"value": (len(records) - completed) / len(records), "unit": "ratio"}
        report["latency_tail"] = {k: lat[k] for k in ("tail_percentile", "tail_samples_beyond")}
        report["setup_s_samples"] = setup
        report["raw_setup_s_samples"] = raw_setup
        report["timed_s"] = busy
        report["truncated"] = len(records) < planned
        if hasattr(w, "off_loop_probe"):
            report["off_loop_probe"] = w.off_loop_probe(A, args.seed, run_with_deadline)

    failures = [(i, o) for i, _, o in records if o != "ok"]
    report["metrics"] = metrics
    report["failures"] = failures[:20]
    report["host_noise_loop_s"] = {"steps": NOISE_STEPS, "start": noise_start, "end": cpu_loop()}
    report["provenance"] = provenance(args, len(records))
    if "latency_tail" in report:
        report["provenance"]["tail_percentile"] = report["latency_tail"]["tail_percentile"]
    name = f"BENCH_{w.name}_s{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    if report.get("truncated"):
        print(f"error: stopped after {len(records)} operations: over {MAX_STRETCH}x the planned time; "
              f"report in {(OUT / name).relative_to(ROOT)}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
