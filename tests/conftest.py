"""Fixtures shared by the test modules."""

import pytest

from shearks import spectral


@pytest.fixture
def threads_on_small_grids(monkeypatch):
    """Run every 3D grid's work on two threads, as grids above 32^3 points
    run it, so that small test grids exercise spectral's work queue."""
    monkeypatch.setattr(spectral, "_SERIAL_UP_TO", 0)
