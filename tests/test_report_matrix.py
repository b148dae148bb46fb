"""``tools/report_matrix.py --compare``: what moved between two report
directories, and its exit status."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_matrix.py"


@pytest.fixture(scope="module")
def report_matrix():
    spec = importlib.util.spec_from_file_location("report_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(chen=1e-16, status="pass", panels=4):
    return {"verdict": "pass",
            "environment": {"quadrature": {"order": 8, "panels": panels}},
            "checks": [
                {"name": "chen-vector", "status": status, "ok": True,
                 "max_residual": chen, "detail": {"worst": [1.0, chen]}},
                {"name": "signature", "status": "pass", "ok": True,
                 "max_residual": 0.0, "detail": {}}]}


def write(directory, files):
    directory.mkdir()
    for name, tree in files.items():
        (directory / name).write_text(json.dumps(tree), encoding="utf-8")
    return directory


def test_float_moves_only(report_matrix, tmp_path, capsys):
    a = write(tmp_path / "a", {"x.json": report(), "y.json": report()})
    b = write(tmp_path / "b", {"x.json": report(chen=3e-16),
                               "y.json": report(chen=2e-16)})
    assert report_matrix.compare(a, b) == 0
    out = capsys.readouterr().out
    # The largest move of the record over both files and both floats.
    move = 2e-16 / (1.0 + 3e-16)
    assert f"  chen-vector: {move:.3e} at checks[chen-vector]" in out
    assert "signature" not in out
    assert out.endswith("2 files: 0 non-float change(s), float moves in "
                        "1 record(s), 0 past the bar\n")


def test_float_move_past_the_bar_fails(report_matrix, tmp_path, capsys):
    # The report contract's bar: |a - b| <= 1e-12 (1 + max(|a|, |b|)).
    a = write(tmp_path / "a", {"x.json": report(chen=0.5),
                               "y.json": report(chen=0.5)})
    b = write(tmp_path / "b", {"x.json": report(chen=0.5 + 1e-12),
                               "y.json": report(chen=1.0)})
    assert report_matrix.compare(a, b) == 1
    out = capsys.readouterr().out
    move = 0.5 / 2.0
    # The record's largest move over its floats: worst[1] equals the
    # residual and comes first in key order.
    assert (f"float move past 1e-12: chen-vector by {move:.3e} at "
            "checks[chen-vector].detail.worst[1] in y.json") in out
    assert out.endswith("2 files: 0 non-float change(s), float moves in "
                        "1 record(s), 1 past the bar\n")
    # A move within the bar passes.
    c = write(tmp_path / "c", {"x.json": report(chen=0.5 + 1e-12),
                               "y.json": report(chen=0.5)})
    assert report_matrix.compare(a, c) == 0


def test_status_and_environment_changes_fail(report_matrix, tmp_path,
                                             capsys):
    a = write(tmp_path / "a", {"x.json": report(), "y.json": report()})
    b = write(tmp_path / "b", {"x.json": report(status="fail",
                                                panels=[1, 2, 4]),
                               "y.json": report(panels=[1, 2, 4])})
    assert report_matrix.compare(a, b) == 1
    out = capsys.readouterr().out
    assert ("changed checks[chen-vector].status: 'pass' -> 'fail' in "
            "1 file(s), first x.json") in out
    assert ("changed environment.quadrature.panels: 4 -> [1, 2, 4] in "
            "2 file(s), first x.json") in out


def test_missing_file_and_nan(report_matrix, tmp_path, capsys):
    a = write(tmp_path / "a", {"x.json": report(), "y.json": report()})
    b = write(tmp_path / "b", {"x.json": report(chen=float("nan"))})
    assert report_matrix.compare(a, b) == 1
    out = capsys.readouterr().out
    assert ("changed <file>: present -> missing in 1 file(s), first "
            "y.json") in out
    assert "changed checks[chen-vector].max_residual: 1e-16 -> nan" in out
    # NaN against NaN is no change.
    c = write(tmp_path / "c", {"x.json": report(chen=float("nan"))})
    assert report_matrix.compare(b, c) == 0


def test_compare_takes_no_output_directory(report_matrix, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        report_matrix.main([str(tmp_path), "--compare", str(tmp_path),
                            str(tmp_path)])
    assert exit_.value.code == 2
