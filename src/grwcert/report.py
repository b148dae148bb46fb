"""Certification reports: records, verdict, text and JSON rendering."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

REPORT_SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"
INFORMATIONAL = "informational"
SKIPPED = "skipped"


@dataclass
class CheckRecord:
    """One named check: residual against tolerance, with its anchor formula."""

    name: str
    group: str
    anchor: str
    status: str = PASS
    required: bool = True
    max_residual: float | None = None
    tolerance: float | None = None
    ok: bool | None = None
    skipped_reason: str | None = None
    detail: dict = field(default_factory=dict)

    def finalize(self) -> "CheckRecord":
        if self.max_residual is not None:
            self.max_residual = float(self.max_residual)
        if self.status == SKIPPED:
            self.required = False
            self.ok = None
            return self
        if self.max_residual is not None and self.tolerance is not None \
                and self.ok is None:
            self.ok = bool(self.max_residual <= self.tolerance)
        if self.status == INFORMATIONAL:
            self.required = False
        elif self.status == DEGENERATE:
            pass
        elif self.ok is not None:
            self.status = PASS if self.ok else FAIL
        return self


@dataclass
class CertificationReport:
    metric_name: str
    environment: dict
    checks: list
    verdict: str = PASS
    schema: int = REPORT_SCHEMA_VERSION

    def settle_verdict(self) -> "CertificationReport":
        ok = True
        for rec in self.checks:
            if not rec.required or rec.status == SKIPPED:
                continue
            if rec.status == DEGENERATE or rec.ok is False:
                ok = False
        self.verdict = PASS if ok else FAIL
        return self

    def find(self, name: str) -> CheckRecord:
        for rec in self.checks:
            if rec.name == name:
                return rec
        raise KeyError(name)


def report_to_dict(report: CertificationReport) -> dict:
    """The report as JSON data: a NaN or infinite float becomes None."""
    return _finite_or_none({
        "schema": report.schema,
        "metric": report.metric_name,
        "environment": report.environment,
        "verdict": report.verdict,
        "checks": [asdict(r) for r in report.checks],
    })


def _finite_or_none(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def render_json(report: CertificationReport) -> str:
    """Stable-key-ordered JSON; byte-identical for identical runs. A
    non-finite float is written as null, never as a bare NaN token."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def render_text(report: CertificationReport) -> str:
    lines = [
        f"certification: {report.metric_name} -- verdict "
        f"{report.verdict.upper()}",
    ]
    env = report.environment
    tols = env.get("tolerances", {})
    lines.append(
        "environment: points={points} seed={seed} "
        "tol(hypothesis)={h} tol(conclusion)={c} tol(cluster)={cl}".format(
            points=env.get("points"), seed=env.get("seed"),
            h=tols.get("hypothesis"), c=tols.get("conclusion"),
            cl=tols.get("cluster")))
    lines.append("")
    width = max((len(r.name) for r in report.checks), default=10) + 2
    for rec in report.checks:
        if rec.status == SKIPPED:
            body = f"skipped ({rec.skipped_reason})"
        else:
            resid = ("-" if rec.max_residual is None
                     else f"{rec.max_residual:.3e}")
            tol = "-" if rec.tolerance is None else f"{rec.tolerance:.1e}"
            body = f"residual {resid}  tol {tol}"
        flag = {PASS: "PASS", FAIL: "FAIL", DEGENERATE: "DEGN",
                INFORMATIONAL: "info", SKIPPED: "skip"}[rec.status]
        lines.append(f"[{rec.group:>11}] {flag:<4} {rec.name:<{width}}"
                     f" {body}    {rec.anchor}")
        if rec.status != SKIPPED and rec.detail:
            interesting = {k: v for k, v in sorted(rec.detail.items())
                           if isinstance(v, (str, int, float, bool))}
            if interesting:
                pairs = "  ".join(f"{k}={_fmt(v)}" for k, v in interesting.items())
                lines.append(" " * 19 + pairs)
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
