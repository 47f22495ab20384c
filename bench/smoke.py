"""Smoke check of the benchmark itself: every workload, one cycle.

Run from the repository root:  python3 bench/smoke.py

For each workload, an untraced run of one cycle (every operation class
once) and a traced run of one untraced plus one traced cycle must exit 0,
check every answer correct, and print a last line with exactly the keys
correct, attempted, failed and metrics, with every metric BENCHMARK.json
names for that mode and nothing else.  A copy of the benchmark without the
program's sources must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} {report.get('failures')}")
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        errors.append(f"{where}: metrics {sorted(set(result['metrics']) ^ want)} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: metric {name} is {m}")
    for key in ("provenance", "host_noise_loop_s", "failures"):
        if key not in report:
            errors.append(f"{where}: report lacks {key}")
    if not trace and ("error_rate" not in report or "latency_tail" not in report):
        errors.append(f"{where}: report lacks error_rate or latency_tail")
    return errors


def check_bare_copy() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = _run(bare, "prescribe", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_copy()
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: done", file=sys.stderr)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
