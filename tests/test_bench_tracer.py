"""The benchmark's layer tracer still finds every library name it wraps.

bench/tracer.py replaces library functions at their import sites to time
each layer of a traced benchmark run.  A renamed or deleted function would
otherwise surface only there, so the tracer is installed and removed here.
The counts the tracer cannot see (continuations per pair, evaluator passes)
are taken with the call counters of conftest.py.
"""

import importlib.util
from pathlib import Path

import numpy as np

import maassforms.lseries as lseries
from helpers import oldform_pair
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.lseries import fe_residuals

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_one_continuation_per_pair(continuations, points):
    # fe_residuals continues each of its two pairs once, Lambda and Omega
    # together, and not through the public one-row readings
    assert [n for _, n in continuations] == [points, points]
    assert continuations[0][0] is not continuations[1][0]


def assert_one_shared_continuation(continuations, points):
    # a self-dual equation continues its one pair once, on the grid and its
    # reflection k - s together
    assert [n for _, n in continuations] == [2 * points]


def traced(call):
    """The tracer's summary of one call."""
    t = load_tracer().Tracer()
    t.install()
    try:
        call()
    finally:
        t.uninstall()
    return t.summary()


def test_tracer_installs_records_and_uninstalls(continuations):
    tracer = load_tracer()
    sites = [(owner, attr) for _, module, attr, importers, _ in tracer.FUNCTIONS
             for owner in (module, *importers)]
    sites += [(cls, attr) for _, cls, attr, _ in tracer.METHODS]
    originals = [getattr(owner, attr) for owner, attr in sites]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(sites, originals))
        fe_residuals(*oldform_pair(2, base=4), [0.5 + 1.0j])
    finally:
        t.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, originals))
    summary = t.summary()
    assert set(summary) == set(tracer.METRICS)
    assert summary["lseries.analytic_pair.calls"] == 2
    assert summary["lseries.lambda_continued.calls"] == 0
    assert summary["lseries.omega_continued.calls"] == 0
    assert_one_continuation_per_pair(continuations, 1)
    for layer in ("forms.extract_coefficients", "forms.to_terms"):
        assert summary[f"{layer}.self_s"] > 0, layer
    # the partners are read from the pairs' own evaluators; the chain-rule
    # partner stays out of the residual path
    assert summary["forms.slash_jet1.self_s"] == 0
    # a self-dual equation (the level-1 lift is its own partner) builds one
    # pair and continues it once
    continuations.clear()
    ref = harmonic_eisenstein_level_one(8)
    summary = traced(lambda: fe_residuals(ref, ref, [0.5 + 1.0j]))
    assert summary["lseries.analytic_pair.calls"] == 1
    assert summary["lseries.lambda_continued.calls"] == 0
    assert summary["lseries.omega_continued.calls"] == 0
    assert_one_shared_continuation(continuations, 1)


# the shape of the benchmark's verify grid (bench/workloads.py VERIFY_GRID)
VERIFY_GRID = [complex(re, im) for re in (-1.5, -1.0, -0.5, 0.5, 1.5) for im in (0.5, 1.5, 3.0)]


def test_residual_driver_makes_one_batch_per_side(continuations, passes):
    # fe_residuals continues each pair once for the whole grid, so the form
    # evaluations do not grow with the number of grid points: with f != g
    # one batch per side, and on a self-dual equation one batch on the grid
    # and its reflection.  Each grid gets fresh forms, since a form keeps its
    # series, partner constants and last pass (see test_form_memo.py)
    for forms, check in ((lambda: oldform_pair(2, base=4), assert_one_continuation_per_pair),
                         (lambda: (harmonic_eisenstein_level_one(8),) * 2,
                          assert_one_shared_continuation)):
        summaries, pass_counts = [], []
        for grid in (VERIFY_GRID[:1], VERIFY_GRID):
            continuations.clear()
            passes.clear()
            f, g = forms()
            summaries.append(traced(lambda: fe_residuals(f, g, grid)))
            pass_counts.append(len(passes))
            check(continuations, len(grid))
        for summary in summaries:
            assert summary["lseries.lambda_continued.calls"] == 0
            assert summary["lseries.omega_continued.calls"] == 0
        one, full = summaries
        assert one["forms.TermSeries.eval.calls"] == full["forms.TermSeries.eval.calls"]
        assert pass_counts[0] == pass_counts[1]


def test_pair_builds_evaluate_only_what_they_read(passes):
    # on the N = 11 golden pair each analytic_pair extracts c_g(0) from one
    # 64-point value-only pass (32 samples at each of two heights).  Each
    # pair's Lambda and Omega nodes on [1/T, T] take one order-1 pass (the
    # grid is one panel group of 14 panels x 16 nodes); the tail bound is
    # read from the terms, at no pass.  With separate Lambda and Omega
    # continuations this read 11 passes on 1,025 points.
    f, g = oldform_pair(11)
    fe_residuals(f, g, VERIFY_GRID)
    assert sorted(passes) == [(0, 64), (0, 64), (1, 224), (1, 224)]
    assert len(passes) == 4 and sum(n for _, n in passes) == 576


def test_a_continuation_batch_makes_one_pass_per_side(passes):
    # a lambda_continued batch evaluates the integrand once, in the order-1
    # pass that gives Lambda's and Omega's rows, on the nodes of all its
    # panel groups (2 n panels of 16 nodes for a group of count n), however
    # many groups it spans; an empty batch evaluates nothing
    pair = lseries.analytic_pair(harmonic_eisenstein_level_one(40))
    pts = 2.0 + 1j * np.linspace(-100.0, 100.0, 161)
    groups = set(lseries._mellin_panels(pts, pair.T).tolist())
    assert len(groups) >= 10
    passes.clear()
    lseries.lambda_continued(pair, pts)
    assert passes == [(1, 32 * sum(groups))]
    passes.clear()
    empty = lseries.lambda_continued(pair, np.array([], dtype=complex))
    assert passes == [] and empty.shape == (0,)
