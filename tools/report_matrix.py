"""Write the JSON report of every catalog entry and of six dense
pull-back reports, and the compiled catalog itself, into one directory, so
that two trees or two worker counts can be compared with ``diff -r``.

    python tools/report_matrix.py OUT --workers W

The matrix is each catalog entry at (points, seed) = (1, 0), (2, 31),
(13, 5) and (25, 7), and ``perfbench/workloads.dense_spec`` at seeds 1,
31 and 101 with 20 points, with its velocity field and without it (then
weyl-electric reads the eigen-split's velocity). Reports are
byte-identical at any worker count (and any chunk size), so ``OUT``
depends only on the source tree it ran. ``catalog.json`` holds each
entry's expectation record and the ``repr`` of its compiled signature,
coordinates, metric trees, ranges, parameters, exclusions, basepoint,
velocity, warp and fiber metric, so the diff covers the catalog table
as well as the reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from grwcert.certify import RunConfig, certify_chart  # noqa: E402
from grwcert.chart import compile_chart  # noqa: E402
from grwcert.grw import catalog_get, catalog_names  # noqa: E402
from grwcert.report import render_json  # noqa: E402
from grwcert.schema import load_chart_input  # noqa: E402
from workloads import dense_spec  # noqa: E402

CATALOG_RUNS = ((1, 0), (2, 31), (13, 5), (25, 7))
DENSE_SEEDS = (1, 31, 101)
DENSE_POINTS = 20


def matrix():
    """(file name, chart, points, seed) of every report in the matrix."""
    for name in catalog_names():
        chart = catalog_get(name).chart
        for points, seed in CATALOG_RUNS:
            yield f"{name}-p{points}-s{seed}.json", chart, points, seed
    for seed in DENSE_SEEDS:
        spec = dense_spec(seed)
        chart = compile_chart(load_chart_input(spec))
        yield f"dense-s{seed}-p{DENSE_POINTS}.json", chart, DENSE_POINTS, seed
        del spec["velocity_field"]
        chart = compile_chart(load_chart_input(spec))
        yield (f"dense-novelocity-s{seed}-p{DENSE_POINTS}.json", chart,
               DENSE_POINTS, seed)


def catalog():
    """Each catalog entry's expectations and compiled chart, as text."""
    out = {}
    for name in catalog_names():
        entry = catalog_get(name)
        chart, grw = entry.chart, entry.chart.grw
        out[name] = {
            "expected": entry.expected,
            "chart": {key: repr(value) for key, value in (
                ("signature", chart.signature),
                ("coordinates", chart.coordinates),
                ("metric", chart.upper), ("ranges", chart.ranges),
                ("parameters", chart.params),
                ("exclusions", chart.exclusions),
                ("basepoint", chart.basepoint),
                ("velocity", chart.velocity),
                ("warp", grw and grw.warp),
                ("fiber", grw and grw.fiber.chart.upper))},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for the reports")
    parser.add_argument("--workers", type=int, required=True,
                        help="worker threads per run")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "catalog.json").write_text(
        json.dumps(catalog(), indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8")
    for filename, chart, points, seed in matrix():
        report = certify_chart(chart, RunConfig(points=points, seed=seed,
                                                workers=args.workers))
        (args.out / filename).write_text(render_json(report),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
