"""The package names the benchmark reaches for are there.

``benchmarks/layers.py`` wraps package functions by name, and a name it
cannot find only zeroes that layer's metrics; ``benchmarks/workloads.py``
imports package names directly.  These tests make a refactor that drops or
reshapes one of them fail here instead.
"""

import inspect
import sys
from pathlib import Path

import pytest

from shearks import shear, solver
from shearks.spectral import GridSpec

from oracles import run_params

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
# targets the package no longer has: the propagator closure that
# solver._step_operator returns is traced in their place
RETIRED = {"shearks.shear.propagate", "shearks.shear.remap"}


@pytest.fixture(scope="module")
def layers():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import layers
    import workloads  # noqa: F401  (its package imports must resolve)
    return layers


def missing_targets(layers) -> set[str]:
    """The names ``layers.install`` would report missing."""
    return {f"{owner.__name__}.{attr}" for owner, attr, _, _ in layers.targets()
            if getattr(owner, attr, None) is None}


def test_every_target_but_the_retired_exists(layers):
    assert missing_targets(layers) == RETIRED


def test_a_dropped_name_is_caught(layers, monkeypatch):
    monkeypatch.delattr(solver, "_row")
    assert missing_targets(layers) == RETIRED | {"shearks.solver._row"}


def test_step_operator_keeps_the_hooked_signature(layers):
    assert list(inspect.signature(solver._step_operator).parameters) == \
        ["params", "frame", "t", "dt"]
    # the hook unpacks (params, frame, t, dt) and counts a remap by the frame
    params = run_params(GridSpec((16, 16)), enable_shear=True, enable_chemotaxis=False)

    class Counting:
        counts = {"shear.remaps": 0}

        @staticmethod
        def wrap(fn, name):
            return fn

    for drift, remaps in ((0.2, 0), (0.9, 1)):
        args = (params, shear.ShearFrame(drift=drift), 0.0, 0.3)
        layers._step_operator(Counting, args, solver._step_operator(*args))
        assert Counting.counts["shear.remaps"] == remaps
