"""Workloads, the generated dense-nobase chart and the output checks.

Every workload is one ``grwcert`` command run in a closed loop: one
invocation at a time, from a single client. The seed reaches the program
only as ``--seed`` and, for dense-nobase, through the generated spec file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance for the report's A/B ranges against the closed forms.
AB_RTOL = 1e-8


def frw_dust_ab(t: float) -> tuple[float, float]:
    """Fluid scalars of q = t^(2/3) over a flat fiber: A = 2/(3t²), B = 4/(3t²)."""
    return 2.0 / (3.0 * t * t), 4.0 / (3.0 * t * t)


def grw5_sphere_ab(t: float) -> tuple[float, float]:
    """Converse formulas for q = t² over the unit S⁴ (R* = 12, n = 5):
    A = (3 + 14t²)/t⁴, B = A − 8/t² = (3 + 6t²)/t⁴."""
    t2 = t * t
    return (3.0 + 14.0 * t2) / (t2 * t2), (3.0 + 6.0 * t2) / (t2 * t2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str               # one line, naming the layer it bypasses; the
                           # same text is in BENCHMARK.json
    points: int
    workers: int
    catalog: str | None    # catalog entry, or None for the generated spec
    closed_form_ab: Callable[[float], tuple[float, float]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "frw-dust-full",
        "catalog run frw-dust, all groups, 1 worker: the staircase quadrature "
        "dominates (~9000 eval_jet3 calls per point); bypasses no layer",
        points=2, workers=1, catalog="frw-dust", closed_form_ab=frw_dust_ab),
    Workload(
        "grw5-full",
        "catalog run grw5-sphere, n=5: curvature cost grows with n and the "
        "converse builds a second JetStack per point on the S4 fiber; "
        "bypasses no layer",
        points=1, workers=1, catalog="grw5-sphere",
        closed_form_ab=grw5_sphere_ab),
    Workload(
        "dense-nobase",
        "certify a seeded pull-back x=Ay+b of frw-dust: 10 dense components, "
        "JetStack and parse/compile carry it; bypasses quadrature and converse",
        points=20, workers=1, catalog=None, closed_form_ab=frw_dust_ab),
    Workload(
        "frw-dust-w2",
        "frw-dust-full inputs with --workers 2 (= nproc): the only workload "
        "on the certify thread fan-out; its report must equal the 1-worker "
        "one; bypasses no layer",
        points=2, workers=2, catalog="frw-dust", closed_form_ab=frw_dust_ab),
)}


# ---------------------------------------------------------------------------
# dense-nobase: frw-dust pulled back through x = A y + b.
# ---------------------------------------------------------------------------

COORDS = ("t", "x", "y", "z")


def _signed(value: float) -> str:
    # Plain float reprs: numpy scalar reprs do not parse as expressions.
    return f" {'+' if value >= 0 else '-'} {abs(float(value))!r}"


def dense_affine(seed: int):
    """A = I plus a seeded perturbation in [-0.1, 0.1], b in [-0.1, 0.1]."""
    rng = random.Random(seed)
    a = [[(1.0 if i == j else 0.0) + rng.uniform(-0.1, 0.1) for j in range(4)]
         for i in range(4)]
    b = [rng.uniform(-0.1, 0.1) for _ in range(4)]
    return a, b


def dense_spec(seed: int) -> dict:
    """Spec of frw-dust (g = diag(-1, t^(4/3) x3), u = -dt) in coordinates y
    with x = A y + b: g'_kl = A_ik A_jl g_ij(Ay+b) and u'_k = -A_0k. Every
    metric component is non-zero; there is no basepoint."""
    a, b = dense_affine(seed)
    t_text = (f"({a[0][0]!r}*{COORDS[0]}"
              + "".join(f"{_signed(a[0][k])}*{COORDS[k]}" for k in range(1, 4))
              + f"{_signed(b[0])})")
    metric = {}
    for k in range(4):
        for l in range(k, 4):
            space = sum(a[i][k] * a[i][l] for i in range(1, 4))
            metric[f"{k + 1},{l + 1}"] = (f"{space!r}*{t_text}^(4/3)"
                                          f"{_signed(-a[0][k] * a[0][l])}")
    return {
        "schema": 1,
        "name": "frw-dust-dense",
        "dimension": 4,
        "signature": "lorentzian",
        "coordinates": list(COORDS),
        "parameters": {},
        "metric": metric,
        "velocity_field": [repr(-a[0][k]) for k in range(4)],
        "domain": {
            # t spans [0.5, 2.7] so that the mapped time covers [1, 2];
            # the exclusion keeps the mapped time inside [1, 2].
            "ranges": {"t": [0.5, 2.7], "x": [-1, 1], "y": [-1, 1],
                       "z": [-1, 1]},
            "exclusions": [{"expr": f"({t_text} - 1)*(2 - {t_text})",
                            "margin": 0}],
        },
    }


def dense_time(seed: int, coords) -> float:
    """The frw-dust time t = (A y + b)_0 at chart coordinates y."""
    a, b = dense_affine(seed)
    return sum(a[0][k] * float(coords[k]) for k in range(4)) + b[0]


# ---------------------------------------------------------------------------
# Prepared inputs and output checks.
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    argv: Callable[[int], list[str]]        # workers -> grwcert arguments
    check: Callable[[bytes], list[str]]     # report JSON -> problems


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    """Write the workload's inputs under ``work`` and build its checks.

    The checks recompute the sample points with ``sample_points`` and
    compare the report's fluid-decompose A/B range with the closed forms.
    """
    from grwcert.chart import compile_chart, sample_points
    from grwcert.grw import catalog_get
    from grwcert.schema import load_chart_input

    if workload.catalog is not None:
        chart = catalog_get(workload.catalog).chart
        head = ["catalog", "run", workload.catalog]

        def time_of(coords):
            return float(coords[0])
    else:
        path = work / "dense-nobase.json"
        path.write_text(json.dumps(dense_spec(seed), indent=2) + "\n",
                        encoding="utf-8")
        chart = compile_chart(load_chart_input(str(path)))
        head = ["certify", str(path)]

        def time_of(coords):
            return dense_time(seed, coords)

    times = [time_of(p.coords) for p in
             sample_points(chart, workload.points, seed)]
    pairs = [workload.closed_form_ab(t) for t in times]
    expected = {"A_min": min(a for a, _ in pairs), "A_max": max(a for a, _ in pairs),
                "B_min": min(b for _, b in pairs), "B_max": max(b for _, b in pairs)}

    def argv(workers: int) -> list[str]:
        return head + ["--points", str(workload.points), "--seed", str(seed),
                       "--workers", str(workers)]

    def check(report_bytes: bytes) -> list[str]:
        try:
            report = json.loads(report_bytes)
            env = report["environment"]
            fluid = next(c for c in report["checks"]
                         if c["name"] == "fluid-decompose")
        except (ValueError, KeyError, StopIteration) as err:
            return [f"report unreadable: {err!r}"]
        problems = []
        if env.get("points") != workload.points or env.get("seed") != seed:
            problems.append(f"report environment points={env.get('points')} "
                            f"seed={env.get('seed')}")
        for key, want in expected.items():
            got = fluid["detail"].get(key)
            if not isinstance(got, (int, float)) or \
                    abs(got - want) > AB_RTOL * abs(want):
                problems.append(f"fluid-decompose {key} = {got!r}, "
                                f"closed form {want!r}")
        return problems

    return Prepared(argv=argv, check=check)
