"""The benchmark's layer tracer still finds every library name it wraps.

bench/tracer.py replaces library functions at their import sites to time
each layer of a traced benchmark run.  A renamed or deleted function would
otherwise surface only there, so the tracer is installed and removed here.
"""

import importlib.util
from pathlib import Path

from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.lseries import fe_residuals

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    tracer = load_tracer()
    sites = [(owner, attr) for _, module, attr, importers, _ in tracer.FUNCTIONS
             for owner in (module, *importers)]
    sites += [(cls, attr) for _, cls, attr, _ in tracer.METHODS]
    originals = [getattr(owner, attr) for owner, attr in sites]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(sites, originals))
        ref = harmonic_eisenstein_level_one(8)
        fe_residuals(ref, ref, [0.5 + 1.0j])
    finally:
        t.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, originals))
    summary = t.summary()
    assert set(summary) == set(tracer.METRICS)
    assert summary["lseries.analytic_pair.calls"] == 2
    assert summary["lseries.lambda_continued.calls"] == 2
    assert summary["lseries.omega_continued.calls"] == 2
    for layer in ("forms.extract_coefficients", "forms.slash_jet1", "forms.to_terms"):
        assert summary[f"{layer}.self_s"] > 0, layer


# the shape of the benchmark's verify grid (bench/workloads.py VERIFY_GRID)
VERIFY_GRID = [complex(re, im) for re in (-1.5, -1.0, -0.5, 0.5, 1.5) for im in (0.5, 1.5, 3.0)]


def test_residual_driver_makes_one_batch_per_side():
    # fe_residuals continues each side once for the whole grid, so the form
    # evaluations do not grow with the number of grid points
    ref = harmonic_eisenstein_level_one(8)
    summaries = []
    for grid in (VERIFY_GRID[:1], VERIFY_GRID):
        t = load_tracer().Tracer()
        t.install()
        try:
            fe_residuals(ref, ref, grid)
        finally:
            t.uninstall()
        summaries.append(t.summary())
    for summary in summaries:
        assert summary["lseries.lambda_continued.calls"] == 2
        assert summary["lseries.omega_continued.calls"] == 2
    one, full = summaries
    assert one["forms.TermSeries.eval.calls"] == full["forms.TermSeries.eval.calls"]
