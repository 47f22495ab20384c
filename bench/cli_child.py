"""Run one arithsurf CLI command with the layer tracer installed.

Usage: python3 bench/cli_child.py SPANS_JSON ARGV...

Stands in for ``python -m arithsurf.cli ARGV...`` in the traced run of the
cli workload: same stdout and exit status, plus the import time and the
recorded spans written to SPANS_JSON.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import arithsurf.cli

    import_s = time.perf_counter() - start
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        code = arithsurf.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        t.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": t.spans.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
