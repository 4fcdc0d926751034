"""Run ``qspeed.cli.main(argv)`` with timings and spans, for traced cli runs.

Usage: python3 perfbench/cli_traced.py TRACE_FILE ARGV...

Stdout and the exit code are those of ``python -m qspeed.cli ARGV...``.
One JSON line is appended to TRACE_FILE: the import time of qspeed.cli,
the number of scipy modules it loaded, the time of main(argv) and the
span totals recorded inside it.
"""

import json
import sys
import time

import tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qspeed.cli
    import_s = time.perf_counter() - t0
    scipy = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    tracer = tracing.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = qspeed.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"import_s": import_s, "main_s": main_s,
                                 "scipy_modules": scipy,
                                 "spans": tracer.summary()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
