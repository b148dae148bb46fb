"""Every grwcert attribute that perfbench's layer tracer wraps by name still
exists. The traced benchmark run exits 3 on a missing name; this fails
first, in the tier-1 suite, on a rename or a deletion."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench/spans.py, through sys.path)


@pytest.mark.parametrize("path", [path for path, _ in spans.TARGETS])
def test_target_resolves(path):
    owner, attribute = spans.resolve(path)
    assert callable(getattr(owner, attribute))
