"""Write the JSON report of every catalog entry and of six dense
pull-back reports, and the compiled catalog itself, into one directory, so
that two trees or two worker counts can be compared with ``diff -r``; or
compare two such directories record by record.

    python tools/report_matrix.py OUT --workers W
    python tools/report_matrix.py --compare DIR_A DIR_B

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

``--compare`` reads the JSON files of two directories. It prints each
change that is not a float move (a verdict, status, ``ok``, string, int,
list length, missing key or file, or a NaN), grouped over the files it
occurs in, and for each record the largest float move
|a - b| / (1 + max(|a|, |b|)), the measure of the report contract's
1e-12 bar. It exits 1 when anything other than a float moved, or when a
float moved past that bar; each such record is named with its file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
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
# tests/test_report_contract.py's bar on a float move.
FLOAT_BAR = 1e-12


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
                ("fiber", grw and grw.fiber.upper))},
        }
    return out


_MISSING = "<missing>"


def _differences(a, b, record, path):
    """(record, path, a, b) at each leaf where two JSON trees differ. A
    list of named dicts (a report's checks) is matched by name, and each
    name is the record of what lies under it."""
    if isinstance(a, list) and isinstance(b, list) and all(
            isinstance(x, dict) and "name" in x for x in a + b):
        a, b = ({x["name"]: x for x in side} for side in (a, b))
        for name in sorted(a.keys() | b.keys(), key=str):
            yield from _differences(a.get(name, _MISSING),
                                    b.get(name, _MISSING), name,
                                    f"{path}[{name}]")
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _differences(a.get(key, _MISSING),
                                    b.get(key, _MISSING), record or key,
                                    f"{path}.{key}" if path else key)
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, record, f"{path}[{i}]")
    elif type(a) is not type(b) or (a != b and not (
            isinstance(a, float) and math.isnan(a) and math.isnan(b))):
        yield record, path, a, b


def _float_move(a, b):
    """The relative move of two finite floats, or None for any other
    pair."""
    if (type(a) is float and type(b) is float and math.isfinite(a)
            and math.isfinite(b)):
        return abs(a - b) / (1.0 + max(abs(a), abs(b)))
    return None


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print what moved from ``dir_a``'s JSON files to ``dir_b``'s; 1 when
    anything but a float moved, or a float moved past ``FLOAT_BAR``."""
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.json")})
    changes = defaultdict(list)     # (path, a, b) -> files
    moves = {}                      # record -> (move, file, path)
    for name in names:
        a, b = (json.loads((d / name).read_text(encoding="utf-8"))
                if (d / name).exists() else _MISSING
                for d in (dir_a, dir_b))
        if a is _MISSING or b is _MISSING:
            changes["<file>", *("missing" if side is _MISSING else "present"
                                for side in (a, b))].append(name)
            continue
        for record, path, x, y in _differences(a, b, None, ""):
            move = _float_move(x, y)
            if move is None:
                changes[path, repr(x), repr(y)].append(name)
            elif move > moves.get(record, (-1.0,))[0]:
                moves[record] = (move, name, path)
    for (path, x, y), files in sorted(changes.items()):
        print(f"changed {path}: {x} -> {y} in {len(files)} file(s), "
              f"first {files[0]}")
    if moves:
        print("largest float move per record, |a - b| / (1 + max(|a|, |b|)):")
    for record, (move, name, path) in sorted(moves.items()):
        print(f"  {record}: {move:.3e} at {path} in {name}")
    over = sorted(record for record, (move, _, _) in moves.items()
                  if move > FLOAT_BAR)
    for record in over:
        move, name, path = moves[record]
        print(f"float move past {FLOAT_BAR:g}: {record} by {move:.3e} at "
              f"{path} in {name}")
    print(f"{len(names)} files: {len(changes)} non-float change(s), "
          f"float moves in {len(moves)} record(s), {len(over)} past the bar")
    return 1 if changes or over else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, nargs="?",
                        help="directory for the reports")
    parser.add_argument("--workers", type=int,
                        help="worker threads per run")
    parser.add_argument("--compare", type=Path, nargs=2,
                        metavar=("DIR_A", "DIR_B"),
                        help="compare two report directories instead")
    args = parser.parse_args(argv)
    if args.compare:
        if args.out or args.workers is not None:
            parser.error("--compare takes no OUT or --workers")
        return compare(*args.compare)
    if args.out is None or args.workers is None:
        parser.error("OUT and --workers are required")
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
