"""Every grwcert attribute that perfbench's layer tracer wraps by name still
exists. The traced benchmark run exits 3 on a missing name; this fails
first, in the tier-1 suite, on a rename or a deletion. Two traced
invocations check that the metrics read what the sigma step does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grwcert.certify import CHUNK_POINTS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench/spans.py, through sys.path)
import workloads  # noqa: E402


@pytest.mark.parametrize("path", [path for path, _ in spans.TARGETS])
def test_target_resolves(path):
    owner, attribute = spans.resolve(path)
    assert callable(getattr(owner, attribute))


def traced_metrics(tmp_path, args, points):
    """The per-layer metrics of one traced CLI invocation, run as
    perfbench runs it: ``invoke.py --spans`` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    result, trace = tmp_path / "result.json", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, str(root / "perfbench" / "invoke.py"),
                    "--result", str(result), "--spans", str(trace), "--",
                    *args, "--points", str(points), "--seed", "1",
                    "--quiet"], cwd=root, env=env, check=True)
    assert json.loads(result.read_text(encoding="utf-8"))["rc"] == 0
    return spans.invocation_metrics(spans.load(trace), points, workers=1)


def test_sigma_is_one_integrand_call_per_chunk(tmp_path):
    # A chunk and 3 points more are two chunks, and every frw-dust point
    # converges on the quadrature's first rung: one integrand call per chunk.
    points = CHUNK_POINTS + 3
    metrics = traced_metrics(tmp_path, ["catalog", "run", "frw-dust"], points)
    assert metrics["classify.quadrature.integrand_calls_per_pt"] == 2 / points


def test_point_span_without_sigma(tmp_path):
    # Without a basepoint no sigma is integrated, but each chunk still
    # passes through the traced sigma step, whose span the metrics read.
    spec = tmp_path / "dense-nobase.json"
    spec.write_text(json.dumps(workloads.dense_spec(1)), encoding="utf-8")
    metrics = traced_metrics(tmp_path, ["certify", str(spec)], 13)
    assert metrics["classify.quadrature.integrand_calls_per_pt"] == 0
    assert metrics["classify.quadrature.share"] == 0
