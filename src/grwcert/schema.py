"""Versioned JSON chart descriptions: reading a spec file into a
``ChartInput``. ``compile_chart`` checks the values."""

from __future__ import annotations

import json
from pathlib import Path

from .chart import ChartError, ChartInput

SPEC_SCHEMA_VERSION = 1


class SpecFileError(ChartError):
    """A spec file that does not read as a chart description: not JSON, a
    wrong schema version, a missing field, or a container of the wrong
    type. ``path`` names the field."""


def _require(data: dict, key: str, kind, where: str = ""):
    path = f"{where}.{key}" if where else key
    if key not in data:
        raise SpecFileError.at(path, "missing required field")
    return _expect(path, data[key], kind)


def _known(prefix: str, data: dict, *keys):
    """Refuse the first field of ``data`` that is not one of ``keys``."""
    for key in data:
        if key not in keys:
            raise SpecFileError.at(f"{prefix}{key}", "unknown field")


def _expect(path: str, value, kind):
    if kind is not None and not isinstance(value, kind):
        raise SpecFileError.at(path, f"expected {kind.__name__}, "
                                     f"got {type(value).__name__}")
    return value


def load_chart_input(source) -> ChartInput:
    """Read a spec: a path, JSON text starting with ``{``, or a dict.

    Checks what reading needs: valid JSON, an object at the root, the
    schema version, the required fields, no unknown field (in the root,
    ``domain`` and each exclusion), and the objects and lists it looks
    into. Every other rule is ``compile_chart``'s.
    """
    where = "(input)"
    if isinstance(source, Path) or (isinstance(source, str)
                                    and not source.lstrip().startswith("{")):
        where, source = "(file)", Path(source).read_text(encoding="utf-8")
    try:
        data = json.loads(source) if isinstance(source, str) else source
    except json.JSONDecodeError as err:
        raise SpecFileError.at(where, f"not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise SpecFileError.at("(root)", "spec must be a JSON object")

    version = data.get("schema", SPEC_SCHEMA_VERSION)
    if version != SPEC_SCHEMA_VERSION:
        raise SpecFileError.at("schema", f"unsupported version {version!r}, "
                                         f"expected {SPEC_SCHEMA_VERSION}")
    _known("", data, "schema", "name", "dimension", "signature", "coordinates",
           "parameters", "metric", "velocity_field", "domain", "basepoint")
    for key in ("name", "dimension", "signature", "coordinates"):
        _require(data, key, None)
    parameters = _expect("parameters", data.get("parameters", {}), dict)
    metric = _require(data, "metric", dict)
    domain = _require(data, "domain", dict)
    _known("domain.", domain, "ranges", "exclusions")
    ranges = _require(domain, "ranges", dict, "domain")
    exclusions = _expect("domain.exclusions", domain.get("exclusions", []),
                         list)
    for k, entry in enumerate(exclusions):
        if not isinstance(entry, dict) or "expr" not in entry:
            raise SpecFileError.at(f"domain.exclusions[{k}]",
                                   "expected {'expr': ..., 'margin': ...}")
        _known(f"domain.exclusions[{k}].", entry, "expr", "margin")

    return ChartInput(
        name=data["name"], dimension=data["dimension"],
        signature=data["signature"], coordinates=data["coordinates"],
        metric=metric, ranges=ranges, parameters=parameters,
        exclusions=[(e["expr"], e.get("margin", 0.0)) for e in exclusions],
        velocity_field=data.get("velocity_field"),
        basepoint=data.get("basepoint"))
