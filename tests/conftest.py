import numpy as np
import pytest
from hypothesis import settings

import maassforms.forms as forms
import maassforms.lseries as lseries

# property tests draw from a fixed seed with a bounded example count, so the
# suite stays deterministic and its run time bounded
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


class Work:
    """The work counted since the last clear():

    passes       (order, points) of each TermSeries._sums call, one evaluator pass;
    entries      terms x points summed over those passes;
    sums         (exponents, nodes) of each lseries._mellin_piece call, one
                 Mellin sum, nodes the points its evaluator calls were given;
    extractions  forms.extract_coefficients calls, one per Fricke pair built;
    forms        FormExpansion.__post_init__ runs, one per form built (a twist too).
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.passes, self.sums = [], []
        self.entries = self.extractions = self.forms = 0


@pytest.fixture
def work(monkeypatch):
    """A Work counting from now on.  As bench/tracer.py, it wraps the module
    attributes through which the library looks the four functions up, so
    what it counts is what a call does, whichever object keeps what."""
    seen = Work()
    sums, piece = forms.TermSeries._sums, lseries._mellin_piece
    extract, post_init = forms.extract_coefficients, forms.FormExpansion.__post_init__

    def passing(self, tau, order):
        seen.passes.append((order, int(np.size(tau))))
        seen.entries += self.F.size * int(np.size(tau))
        return sums(self, tau, order)

    def summing(eval_fn, consts, level, k, exps, T):
        nodes = []

        def evaluating(taus):
            nodes.append(taus.size)
            return eval_fn(taus)

        out = piece(evaluating, consts, level, k, exps, T)
        seen.sums.append((exps.size, sum(nodes)))
        return out

    def extracting(*args, **kwargs):
        seen.extractions += 1
        return extract(*args, **kwargs)

    def building(self):
        seen.forms += 1
        post_init(self)

    monkeypatch.setattr(forms.TermSeries, "_sums", passing)
    monkeypatch.setattr(lseries, "_mellin_piece", summing)
    monkeypatch.setattr(forms, "extract_coefficients", extracting)
    monkeypatch.setattr(forms.FormExpansion, "__post_init__", building)
    return seen
