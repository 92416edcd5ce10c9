import numpy as np
import pytest
from hypothesis import settings

import maassforms.lseries as lseries
from maassforms.forms import TermSeries

# property tests draw from a fixed seed with a bounded example count, so the
# suite stays deterministic and its run time bounded
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


# call counters: each records the calls of one library function, looked up
# through its module as the library and bench/tracer.py look it up


@pytest.fixture
def pair_builds(monkeypatch):
    """The form of every lseries.analytic_pair call."""
    seen, build = [], lseries.analytic_pair

    def counting(form):
        seen.append(form)
        return build(form)

    monkeypatch.setattr(lseries, "analytic_pair", counting)
    return seen


@pytest.fixture
def continuations(monkeypatch):
    """(pair, points) of every lseries._continued call: one continuation,
    Lambda and Omega together."""
    seen, body = [], lseries._continued

    def counting(pair, s):
        seen.append((pair, int(np.size(s))))
        return body(pair, s)

    monkeypatch.setattr(lseries, "_continued", counting)
    return seen


@pytest.fixture
def passes(monkeypatch):
    """(order, points) of every TermSeries._sums call: one evaluator pass."""
    seen, sums = [], TermSeries._sums

    def counting(self, tau, order):
        seen.append((order, int(np.size(tau))))
        return sums(self, tau, order)

    monkeypatch.setattr(TermSeries, "_sums", counting)
    return seen
