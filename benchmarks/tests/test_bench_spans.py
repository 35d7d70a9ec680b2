"""Span recording and the self-time arithmetic of the traced run."""

import types

import numpy as np

import layers
import spans
from shearks import solver, spectral


def _tracer(times):
    return spans.Tracer(clock=iter(times).__next__)


def test_self_times_exact_on_synthetic_trace():
    # root [0, 100]: a [10, 40] holding a1 [15, 25]; b [50, 95] holding b1 [60, 61]
    tr = _tracer([0, 10, 15, 25, 40, 50, 60, 61, 95, 100])
    root = tr.begin("root")
    a = tr.begin("a")
    tr.end(tr.begin("a1"))
    tr.end(a)
    b = tr.begin("b")
    tr.end(tr.begin("leaf"))
    tr.end(b)
    tr.end(root)
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0, 3]
    assert spans.self_times(tr.spans) == [100 - 30 - 45, 30 - 10, 10, 45 - 1, 1]
    assert sum(spans.self_times(tr.spans)) == 100


def test_totals_merge_spans_of_one_name():
    trace = [["root", 0, 50, -1], ["x", 5, 15, 0], ["x", 20, 22, 0], ["y", 30, 40, 0],
             ["x", 31, 33, 3]]
    totals = spans.totals_by_name(trace)
    assert totals == {"root": (50 - 10 - 2 - 10, 1), "x": (10 + 2 + 2, 3), "y": (8, 1)}
    assert sum(ns for ns, _ in totals.values()) == 50


def test_wrap_records_parent_and_survives_errors():
    tr = _tracer(range(100))
    fails = tr.wrap(lambda: 1 / 0, "boom")
    outer = tr.wrap(lambda: fails(), "outer")
    try:
        outer()
    except ZeroDivisionError:
        pass
    assert [s[0] for s in tr.spans] == ["outer", "boom"]
    assert tr.spans[1][3] == 0 and all(s[2] > s[1] for s in tr.spans)
    assert tr._stack == []


def test_patch_reaches_aliases_and_restores():
    original = spectral.hermitize
    assert solver.hermitize is original
    tr = spans.Tracer()
    assert tr.patch(spectral, "hermitize", "spectral.hermitize")
    assert solver.hermitize is spectral.hermitize is not original
    f = spectral.zeros(spectral.GridSpec((8, 8)))
    solver.hermitize(f)
    assert [s[0] for s in tr.spans] == ["spectral.hermitize"]
    tr.restore()
    assert solver.hermitize is original and spectral.hermitize is original


def test_patch_reports_missing_target():
    tr = spans.Tracer()
    assert not tr.patch(types.ModuleType("empty"), "gone", "x")


def test_fft_points_count_the_spectral_side():
    tr = spans.Tracer()
    for name in ("fftn", "rfftn", "irfftn"):
        tr.patch(np.fft, name, "spectral.fft", layers._fft_points)
    try:
        x = np.ones((8, 6))
        np.fft.fftn(x)                      # 48 complex values
        half = np.fft.rfftn(x)              # 8 x 4 = 32
        np.fft.irfftn(half, s=x.shape, axes=(0, 1))  # reads the same 32
    finally:
        tr.restore()
    assert tr.counts["spectral.fft_points"] == 48 + 32 + 32
    assert len(tr.spans) == 3


def test_layer_metrics_cover_every_layer():
    metrics = layers.layer_metrics({"solver.step": (2_000_000_000, 4)},
                                   {"shear.remaps": 3})
    assert metrics["solver.step_s"] == (2.0, "s") and metrics["solver.steps"] == (4, "count")
    assert metrics["shear.remaps"] == (3, "count")
    assert metrics["diagnostics.ledger_s"] == (0.0, "s")
    assert metrics["seriesio.checkpoint_bytes"] == (0, "bytes")
