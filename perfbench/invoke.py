"""One user invocation of grwcert in a fresh interpreter.

    python3 perfbench/invoke.py --result R.json [--spans S.json] -- ARGS...

runs ``grwcert.cli.main(ARGS)`` in this process, the way the ``grwcert``
command does, and writes the run-level timings to R.json. ``setup_s``
runs from just before ``import grwcert`` to the entry of
``certify.certify_chart``, so it covers the import and the chart build
(``catalog_get``, or spec load and ``compile_chart``). numpy is imported
first, outside that span: its import is a fixed cost of the dependency
that varies with the machine's file and loader load far more than
grwcert's own set-up does; it still counts in the runner's ``wall_s``. The certification
wall and CPU times (all threads) cover that one call. With ``--spans`` the
layer tracer of spans.py is installed as well and its spans go to S.json.

Before the import and after ``main`` returns, the invocation times a
fixed pure-Python kernel (``calibration_s``) in this same process, so the
runner can scale its timings to the machine's reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

from spans import Tracer, resolve


def calibration_s() -> float:
    """Median time of a fixed pure-Python kernel: products of short float
    series in nested loops, like the jet arithmetic grwcert spends its time
    in. It measures the machine's current speed, never grwcert. The
    collector is off so that the heap grwcert leaves behind does not count."""
    times = []
    gc.disable()
    try:
        for _ in range(5):
            a = [1.0 + 0.01 * i for i in range(10)]
            b = [0.5 - 0.02 * i for i in range(10)]
            start = time.perf_counter()
            for _ in range(1000):
                c = [0.0] * 10
                for i in range(10):
                    ai = a[i]
                    for j in range(10 - i):
                        c[i + j] += ai * b[j]
                a = [x * 0.999 + y * 0.001 for x, y in zip(a, c)]
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    import numpy  # noqa: F401  (see the module docstring)

    calibration_start = time.perf_counter()
    calibration = [calibration_s()]
    start = time.perf_counter()
    import grwcert.cli

    timings = {}
    owner, attr = resolve("certify.certify_chart")
    certify_chart = getattr(owner, attr)

    def timed_certify_chart(*args, **kwargs):
        timings["setup_s"] = time.perf_counter() - start
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return certify_chart(*args, **kwargs)
        finally:
            timings["cert_s"] = time.perf_counter() - wall0
            timings["cert_cpu_s"] = time.process_time() - cpu0

    setattr(owner, attr, timed_certify_chart)
    tracer = None
    if opts.spans:
        tracer = Tracer()
        tracer.install()

    rc = grwcert.cli.main(cli_args)
    end = time.perf_counter()
    calibration.append(calibration_s())

    # ru_maxrss is in KiB on Linux.
    timings["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0)
    result = {"rc": rc, "module": grwcert.__file__, **timings,
              "calibration_s": calibration,
              "calibration_total_s": (start - calibration_start
                                      + time.perf_counter() - end)}
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(opts.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
