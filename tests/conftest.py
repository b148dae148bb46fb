"""Shared fixtures: certification runs are expensive, so catalog reports at
the acceptance configuration (N=50, seed=0, default tolerances) are
computed once per session and shared."""

import pytest

from grwcert.certify import CHECKS, RunConfig, run_certify
from grwcert.grw import catalog_get

ACCEPTANCE_CONFIG = RunConfig(points=50, seed=0)
# The identity ladder's nine rungs, in report order.
LADDER_RUNGS = tuple(row.name for row in CHECKS if row.group == "ladder")


def certified(chart, count, seed, *groups):
    """The report of ``count`` sample points at ``seed``, on these groups."""
    return run_certify(chart, RunConfig(points=count, seed=seed,
                                        checks=groups))


@pytest.fixture(scope="session")
def catalog_report():
    cache = {}

    def get(name, config=ACCEPTANCE_CONFIG):
        key = (name, config)
        if key not in cache:
            cache[key] = run_certify(catalog_get(name).chart, config)
        return cache[key]

    return get
