"""Marks every test that uses the full default-scenario ``sweep`` fixture.

``pytest -m "not sweep"`` then skips the two full sweeps (the a09 fixture and
a11's rerun) for a fast inner loop; a plain ``pytest`` still runs them.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "sweep" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.sweep)
