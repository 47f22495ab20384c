"""One set-up of a workload in a fresh interpreter, for the setup_s metric.

Usage: python3 bench/probe.py WORKLOAD SEED WORKDIR

Imports the benchmark's modules and builds the set-up inputs (reported as
``gen_s``), imports arithsurf and does the workload's set-up, then prints
``READY <gen_s>``.
The caller times from spawning this process to reading that line and
subtracts ``gen_s``.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads

    w = workloads.WORKLOADS[name]
    inputs = w.setup_inputs(seed)
    gen_s = time.perf_counter() - start
    import arithsurf

    w.setup(arithsurf, inputs, workdir)
    print(f"READY {gen_s!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
