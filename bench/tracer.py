"""Spans around the library's public functions, recorded from outside.

Tracer.install() replaces each traced function at every module attribute
through which the library and the benchmark reach it (its import sites),
and wraps methods on their class.  Every call appends one span
(name, start, end, parent) to an in-memory list; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from maassforms import characters, eisenstein, forms, lseries, modgroup, specfun


def _rows(args, kwargs, result):
    return len(result)


def _units(args, kwargs, result):
    """phi(q) for DirichletCharacter(q, ...): the size of its value table."""
    q = out = args[1] if len(args) > 1 else kwargs["modulus"]
    p = 2
    while p * p <= q:
        if q % p == 0:
            out -= out // p
            while q % p == 0:
                q //= p
        p += 1
    return out - out // q if q > 1 else out


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["tau"]))


# (span name, defining module, attribute, other modules importing it, counter)
FUNCTIONS = [
    ("modgroup.coset_reps", modgroup, "coset_reps", (eisenstein,), ("rows", _rows)),
    ("modgroup.cusps", modgroup, "cusps", (), None),
    ("characters.gauss_sum", characters, "gauss_sum", (), None),
    ("eisenstein.f_expansion", eisenstein, "f_expansion", (), None),
    ("forms.slash_jet1", forms, "slash_jet1", (), None),
    ("forms.to_terms", forms, "to_terms", (lseries,), None),
    ("forms.twist", forms, "twist", (lseries,), None),
    ("forms.extract_coefficients", forms, "extract_coefficients", (), None),
    ("lseries.analytic_pair", lseries, "analytic_pair", (), None),
    ("lseries.lambda_continued", lseries, "lambda_continued", (), None),
    ("lseries.omega_continued", lseries, "omega_continued", (), None),
    ("lseries.reconstruct_from_lambda", lseries, "reconstruct_from_lambda", (), None),
    ("specfun.gamma_complex", specfun, "gamma_complex", (lseries,), None),
    ("specfun.w_nu", specfun, "w_nu", (lseries,), None),
]
METHODS = [
    ("characters.DirichletCharacter", characters.DirichletCharacter, "__init__", ("units", _units)),
    ("forms.TermSeries.eval", forms.TermSeries, "eval", ("points", _points)),
]
NAMES = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
# the per-layer metrics a traced run reports (per round), as in BENCHMARK.json
METRICS = (
    "modgroup.coset_reps.self_s", "modgroup.coset_reps.calls", "modgroup.coset_reps.rows",
    "modgroup.cusps.self_s",
    "characters.DirichletCharacter.self_s", "characters.DirichletCharacter.calls",
    "characters.DirichletCharacter.units", "characters.gauss_sum.self_s",
    "eisenstein.f_expansion.self_s", "eisenstein.f_expansion.calls",
    "forms.TermSeries.eval.self_s", "forms.TermSeries.eval.calls", "forms.TermSeries.eval.points",
    "forms.slash_jet1.self_s", "forms.to_terms.self_s", "forms.twist.self_s",
    "forms.extract_coefficients.self_s",
    "lseries.analytic_pair.self_s", "lseries.analytic_pair.calls",
    "lseries.lambda_continued.self_s", "lseries.lambda_continued.calls",
    "lseries.omega_continued.self_s", "lseries.omega_continued.calls",
    "lseries.reconstruct_from_lambda.self_s",
    "specfun.gamma_complex.self_s", "specfun.gamma_complex.calls",
    "specfun.w_nu.self_s", "specfun.w_nu.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        ident = NAMES.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            slot = len(self.spans)
            self.spans.append((ident, 0.0, 0.0, parent))
            self._stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[slot] = (ident, start, end, parent)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, module, attr, importers, counter in FUNCTIONS:
            traced = self._wrap(name, getattr(module, attr), counter)
            for owner in (module, *importers):
                self._set(owner, attr, traced)
        for name, cls, attr, counter in METHODS:
            self._set(cls, attr, self._wrap(name, getattr(cls, attr), counter))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, float]:
        """The METRICS: self seconds, call counts and work counters."""
        dur = np.array([end - start for _, start, end, _ in self.spans])
        child = np.zeros(len(self.spans))
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, float] = defaultdict(float, self.counts)
        for i, (ident, _, _, _) in enumerate(self.spans):
            out[f"{NAMES[ident]}.self_s"] += dur[i] - child[i]
            out[f"{NAMES[ident]}.calls"] += 1
        return {k: out[k] for k in METRICS}

    def dump(self) -> dict:
        return {"names": NAMES, "spans": self.spans}
