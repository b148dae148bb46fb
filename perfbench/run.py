"""grwcert benchmark: one workload, closed loop, fresh interpreter per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/grwcert`` must exist). Each
invocation is ``perfbench/invoke.py`` in a new interpreter, which calls
``grwcert.cli.main([... , "--quiet", "--json", PATH])`` the way the
``grwcert`` command does. One reference invocation (1 worker, untimed)
comes first; then invocations run back to back until S seconds have
passed.

Every invocation is checked: exit code 0 (for ``catalog run``: the
expectations matched), a JSON report byte-identical to the reference's,
and the report's fluid A/B range equal to the closed form at the
recomputed sample points. A failed check counts the invocation as failed
and the run carries on.

The machine this was sized on changes speed by up to 2x over seconds to
minutes (other tenants). So each invocation times a fixed pure-Python
kernel just before its setup span and just after ``main`` returns
(invoke.py), and the runner scales the invocation's timings by reference /
measured calibration time: setup by the first calibration, the rest by
the mean of both. ``wall_s`` leaves the calibration time out. The scaled
times are the reported metrics; the raw medians are printed beside them.

``--trace 0`` prints the end-to-end metrics (medians over the timed
invocations). ``--trace 1`` alternates traced and untraced invocations
and prints the per-layer metrics of spans.py. A table with medians, tail
percentiles and sample counts comes first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
MIN_TIMED = 4
# Median calibration time at the machine's reference speed (2-CPU Xeon VM
# the benchmark was sized on); timings are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0080

# name -> unit; every value is a median over the timed invocations.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ms_per_point": "ms",
    "cpu_ms_per_point": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "expr.eval_jet3.calls_per_pt": "count/pt",
    "expr.eval_jet3.self_ms_per_pt": "ms/pt",
    "classify.quadrature.ms_per_pt": "ms/pt",
    "classify.quadrature.integrand_calls_per_pt": "count/pt",
    "classify.quadrature.share": "frac",
    "curvature.JetStack.calls_per_pt": "count/pt",
    "curvature.JetStack.self_ms_per_pt": "ms/pt",
    "curvature.to_point.self_ms_per_pt": "ms/pt",
    "classify.velocity_at.self_ms_per_pt": "ms/pt",
    "classify.fluid_decompose.self_ms_per_pt": "ms/pt",
    "classify.ladder.self_ms_per_pt": "ms/pt",
    "classify.chen_point.self_ms_per_pt": "ms/pt",
    "grw.converse.ms_per_pt": "ms/pt",
    "schema.load_chart_input.ms": "ms",
    "chart.compile_chart.ms": "ms",
    "chart.sample_points.ms": "ms",
    "physics.eos_check.ms": "ms",
    "physics.homothetic_check.ms": "ms",
    "certify.assemble.ms": "ms",
    "report.render_json.ms": "ms",
    "certify.point.p50_ms": "ms",
    "certify.point.p90_ms": "ms",
    "certify.fanout.busy_frac": "frac",
    "trace.overhead_frac": "frac",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (not a failed invocation)."""


@dataclass
class Invocation:
    traced: bool
    wall_s: float = 0.0
    speed: float = 1.0        # reference / mean of both calibration times
    setup_speed: float = 1.0  # reference / calibration time before setup
    result: dict = field(default_factory=dict)
    report: bytes | None = None
    spans: list | None = None
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs invocations of one workload and checks each one's output."""

    def __init__(self, work: Path, prepared, workers: int):
        self.work = work
        self.prepared = prepared
        self.workers = workers
        self.count = 0
        self.reference: bytes | None = None
        self._checked: dict[bytes, list[str]] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def invoke(self, *, traced: bool, workers: int | None = None) -> Invocation:
        self.count += 1
        inv = Invocation(traced=traced)
        result = self.work / f"result-{self.count}.json"
        report = self.work / f"report-{self.count}.json"
        spans_path = self.work / f"spans-{self.count}.json"
        argv = self.prepared.argv(workers or self.workers)
        cmd = [sys.executable, str(HERE / "invoke.py"), "--result", str(result)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd += ["--"] + argv + ["--quiet", "--json", str(report)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            inv.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
            return inv
        elapsed = time.perf_counter() - start
        try:
            if "TraceTargetMissing" in proc.stderr:
                raise BenchmarkError(proc.stderr.strip().splitlines()[-1])
            if proc.returncode != 0 or not result.exists():
                last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                inv.problems.append(f"crashed (exit {proc.returncode}): {last}")
                return inv
            inv.result = json.loads(result.read_text(encoding="utf-8"))
            inv.wall_s = elapsed - inv.result["calibration_total_s"]
            before, after = inv.result["calibration_s"]
            inv.speed = REFERENCE_CALIBRATION_S / (0.5 * (before + after))
            inv.setup_speed = REFERENCE_CALIBRATION_S / before
            if not Path(inv.result["module"]).resolve().is_relative_to(SRC):
                raise BenchmarkError(
                    f"grwcert imported from {inv.result['module']}, not {SRC}")
            if inv.result["rc"] != 0:
                inv.problems.append(f"grwcert exit code {inv.result['rc']}, "
                                    f"expected 0")
            inv.report = report.read_bytes() if report.exists() else None
            inv.problems += self._check(inv.report)
            if traced:
                inv.spans = spans.load(spans_path)
            return inv
        finally:
            for path in (result, report, spans_path):
                path.unlink(missing_ok=True)

    def _check(self, report: bytes | None) -> list[str]:
        if report is None:
            return ["no JSON report written"]
        problems = []
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            problems.append("JSON report differs from the reference run "
                            "(same seed, 1 worker)")
        if report not in self._checked:
            self._checked[report] = self.prepared.check(report)
        return problems + self._checked[report]


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that is below the median (n < 20)."""
    n = len(values)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def by_median(samples: dict) -> dict:
    """name -> (value, samples) with the value the median of the samples."""
    return {name: (statistics.median(values), values)
            for name, values in samples.items()}


def end_to_end_samples(invocations, points: int) -> dict:
    """Raw per-invocation samples of every end-to-end metric."""
    return {
        "wall_s": [i.wall_s for i in invocations],
        "setup_s": [i.result["setup_s"] for i in invocations],
        "ms_per_point": [1e3 * i.result["cert_s"] / points for i in invocations],
        "cpu_ms_per_point": [1e3 * i.result["cert_cpu_s"] / points
                             for i in invocations],
        "peak_rss_mb": [i.result["peak_rss_mb"] for i in invocations],
    }


def scaled(samples: dict, invocations) -> dict:
    """Timings scaled to the reference speed: setup by the calibration just
    before it, the rest by the mean of both. Memory stays as measured."""
    def factor(name, inv):
        return inv.setup_speed if name == "setup_s" else inv.speed
    return {name: (values if name == "peak_rss_mb" else
                   [v * factor(name, i) for v, i in zip(values, invocations)])
            for name, values in samples.items()}


def per_layer_rows(traced, untraced, points: int, workers: int) -> dict:
    """Medians over traced invocations; point latencies pooled over them."""
    per_inv = [spans.invocation_metrics(i.spans, points, workers)
               for i in traced]
    rows = by_median({key: [m[key] for m in per_inv] for key in per_inv[0]})
    latencies = [ms for i in traced for ms in spans.point_latencies_ms(i.spans)]
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
               if len(latencies) > 1 else latencies * 9)
    rows["certify.point.p50_ms"] = (statistics.median(latencies), latencies)
    rows["certify.point.p90_ms"] = (deciles[8], latencies)
    untraced_wall = statistics.median(i.wall_s * i.speed for i in untraced)
    rows.update(by_median({"trace.overhead_frac": [
        i.wall_s * i.speed / untraced_wall - 1.0 for i in traced]}))
    return rows


def print_table(units: dict, rows: dict, raw: dict | None = None) -> None:
    """One line per metric: value, raw median (end-to-end only), the tail
    percentile of its samples and the sample count."""
    print(f"{'metric':<44} {'unit':<9} {'value':>12} {'raw median':>12} "
          f"{'tail':>16} {'n':>4}")
    for name, unit in units.items():
        value, samples = rows[name]
        raw_text = "" if raw is None else f"{statistics.median(raw[name]):.6g}"
        t = tail(samples)
        tail_text = "n<20" if t is None else f"p{t[0]} {t[1]:.6g}"
        exact = ""
        if name.endswith("calls_per_pt"):
            exact = "  exact" if len(set(samples)) == 1 else "  VARIES"
        print(f"{name:<44} {unit:<9} {value:>12.6g} {raw_text:>12} "
              f"{tail_text:>16} {len(samples):>4}{exact}")


def measure(runner: Runner, seconds: float, trace: bool):
    reference = runner.invoke(traced=False, workers=1)
    done = [reference]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done) <= MIN_TIMED:
        done.append(runner.invoke(traced=trace and len(done) % 2 == 1))
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grwcert" / "__init__.py").is_file():
        print(f"error: no grwcert sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        runner = Runner(work, prepare(workload, args.seed, work),
                        workload.workers)
        done = measure(runner, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    failed = [i for i in done if i.problems]
    # Timings of every invocation that certified to the end, whether or not
    # its output checks passed.
    timed = [i for i in done[1:]
             if "cert_s" in i.result and (i.spans or not i.traced)]
    print(f"workload {workload.name}: seed={args.seed} "
          f"points={workload.points} workers={workload.workers} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(f"machine: nproc={os.cpu_count()} {platform.machine()} "
          f"python {platform.python_version()} numpy {numpy.__version__}")
    print(f"invocations: {len(done)} attempted (1 untimed reference), "
          f"{len(failed)} failed, failed_frac={len(failed) / len(done):.6g}")
    for inv in failed[:5]:
        print(f"  FAILED: {'; '.join(inv.problems)}", file=sys.stderr)

    if args.trace:
        traced = [i for i in timed if i.traced]
        untraced = [i for i in timed if not i.traced]
        if not traced or not untraced:
            print("error: no completed traced and untraced invocations",
                  file=sys.stderr)
            return 1
        units, raw = PER_LAYER, None
        rows = per_layer_rows(traced, untraced, workload.points,
                              workload.workers)
    else:
        if not timed:
            print("error: no completed timed invocation", file=sys.stderr)
            return 1
        units = END_TO_END
        raw = end_to_end_samples(timed, workload.points)
        rows = by_median(scaled(raw, timed))
    print(f"speed: median {statistics.median(i.speed for i in timed):.4g} "
          f"of reference (range {min(i.speed for i in timed):.4g}"
          f"..{max(i.speed for i in timed):.4g})")
    print_table(units, rows, raw)
    metrics = {name: {"value": rows[name][0], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": not failed, "attempted": len(done),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
