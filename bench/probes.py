#!/usr/bin/env python3
"""Single-call probes of the library's layers, for the probe table in
bench/README.md.  Each probe is timed three times in this process and the
median printed, except the character table, whose first call is the only
one that builds its cached discrete-log table.

    python3 bench/probes.py
"""

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import refs  # noqa: E402
import workloads as W  # noqa: E402
from maassforms import characters, forms, lseries, modgroup  # noqa: E402


def timed(fn, repeats=3):
    walls = []
    for i in range(repeats):
        t0 = time.perf_counter()
        fn(i)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main():
    lift40 = W.as_form(refs.level_one_lift(40), 1)
    lift400 = W.as_form(refs.level_one_lift(400), 1)
    pair = lseries.analytic_pair(lift40)
    psi5 = characters.character_by_label(5, "quadratic")
    taus = np.linspace(0.0, 1.0, 256, endpoint=False) + 0.5j
    inf1, zero7 = modgroup.cusps(1)[0], modgroup.cusps(7)[1]
    probes = [
        ("fe_residuals, level-1 lift n_max 40, 15-point grid",
         lambda i: lseries.fe_residuals(lift40, lift40, W.VERIFY_GRID)),
        ("lambda_continued, one s", lambda i: lseries.lambda_continued(pair, 0.5 + 1j)),
    ]
    for n_max in (40, 400, 4000):
        ts = forms.to_terms(W.as_form(refs.level_one_lift(n_max), 1))
        probes.append((f"TermSeries.eval, 256 points, n_max {n_max}", lambda i, ts=ts: ts.eval(taus)))
    probes += [
        ("twisted_lambda, psi = 5, n_max 400, one s",
         lambda i: lseries.twisted_lambda(lift400, lift400, lift400.character, psi5, 1, -2, 0.5 + 1j)),
        ("coset_reps(1, inf, 60)", lambda i: modgroup.coset_reps(1, inf1, 60)),
        ("coset_reps(1, inf, 120)", lambda i: modgroup.coset_reps(1, inf1, 120)),
        ("coset_reps(7, 0/1, 60)", lambda i: modgroup.coset_reps(7, zero7, 60)),
    ]
    print("| probe | median of 3 |\n|---|---|")
    for name, fn in probes:
        print(f"| `{name}` | {1e3 * timed(fn):.1f} ms |", flush=True)
    # the unit-group discrete-log table is cached per modulus: time one cold call
    cold = timed(lambda i: characters.trivial_character(11 * 71**2), repeats=1)
    print(f"| `trivial_character(11 * 71^2)`, cold, one call | {1e3 * cold:.1f} ms |")


if __name__ == "__main__":
    main()
