#!/usr/bin/env python3
"""One sha256 per benchmark workload over every operation's output and
verdict, to show that a change keeps the outputs bit for bit.

    python3 tools/output_digest.py

It takes no flags.  It imports the library from this checkout's src/ and
bench/workloads.py and bench/run.py, which it only reads, and runs seeds
1 and 2, rounds 0 and 1 of each workload, each round's operations in
bench/run.py's seeded order.  It prints one line "<workload> <sha256>" per
workload, then a line "sides <sha256>" over the functional-equation
functions on inputs no workload runs (see sides_records), and a line
"line <sha256>" over the vertical-line rule on inputs no workload runs (see
line_records): two checkouts that print the same lines gave the same outputs
and verdicts.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  (first: it fixes one BLAS thread before numpy loads)
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from maassforms.characters import DirichletCharacter, character_by_label, trivial_character  # noqa: E402
from maassforms.eisenstein import harmonic_eisenstein_level_one  # noqa: E402
from maassforms.forms import FormExpansion  # noqa: E402
from maassforms.lseries import (  # noqa: E402
    analytic_pair,
    fe_residuals,
    lambda_continued,
    reconstruct_from_lambda,
    twisted_lambda,
    twisted_omega,
)
from maassforms.specfun import invert_on_line, w_nu  # noqa: E402

SEEDS, ROUNDS = (1, 2), (0, 1)


def canonical(x) -> str:
    """Text that changes with every bit of an output: floats in hex, arrays
    as their dtype, shape and bytes, forms and reports as their JSON."""
    if hasattr(x, "to_json"):
        return canonical(x.to_json())
    if dataclasses.is_dataclass(x):
        return canonical({f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    if isinstance(x, np.ndarray):
        return f"array{x.shape}{x.dtype.str}:{x.tobytes().hex()}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(canonical, x)) + "]"
    if isinstance(x, complex):
        return f"({x.real.hex()},{x.imag.hex()})"
    if isinstance(x, float):
        return x.hex()
    return repr(x)


def round_records(make_round, seed: int, index: int):
    """(name, output, verdict) per operation of one round, in op order: the
    operations run in bench/run.py's seeded order and through its run_op
    (an exception is its operation's output), and judge gives the verdicts."""
    rnd = make_round(seed, index)
    outputs = [None] * len(rnd.ops)
    for i in np.random.default_rng([seed, index, 7]).permutation(len(rnd.ops)):
        outputs[i] = run.run_op(rnd.ops[i], None)[0]
    return zip((op.name for op in rnd.ops), outputs, run.judge(rnd, outputs))


def level_seven_forms():
    """(f, g, padded): the level-1 lift at n_max 280 read at level 7, its
    Fricke partner 7^{k/2} F(7 tau) (c+-(7n) = 7^{k/2} c+-(n), c-(0) times
    7^{k/2} 7^{1-k}), and the lift at n_max 40 padded with zeros to n_max
    280 at level 7, whose cut-off is below g's."""
    level, base = 7, 40
    lift, short = harmonic_eisenstein_level_one(level * base), harmonic_eisenstein_level_one(base)
    k, n_max, chi = lift.weight, level * base, trivial_character(level)
    scale = float(level) ** (k / 2.0)
    cp, cm = np.zeros(n_max + 1, dtype=complex), np.zeros(n_max, dtype=complex)
    cp[::level], cm[level - 1 :: level] = scale * short.c_plus, scale * short.c_minus
    g = FormExpansion(k, level, chi, lift.alpha, n_max, cp,
                      scale * float(level) ** (1 - k) * short.c_minus_zero, cm)
    f = FormExpansion(k, level, chi, lift.alpha, n_max, lift.c_plus, lift.c_minus_zero,
                      lift.c_minus)
    cp, cm = np.zeros(n_max + 1, dtype=complex), np.zeros(n_max, dtype=complex)
    cp[: base + 1], cm[:base] = short.c_plus, short.c_minus
    padded = FormExpansion(k, level, chi, short.alpha, n_max, cp, short.c_minus_zero, cm)
    return f, g, padded


def sides_records():
    """(name, output) of fe_residuals, twisted_lambda and twisted_omega on
    the equations no workload runs: a zero-padded pair, whose sides have
    different cut-offs, plain and twisted; a complex psi on f = g, whose
    twisted sides differ; and twisted equations with f != g."""
    lift = harmonic_eisenstein_level_one(40)
    f, g, padded = level_seven_forms()
    quartic, quadratic = DirichletCharacter(5, (1,)), character_by_label(3, "quadratic")
    grid = [complex(re, im) for re in (-1.5, 0.5, 2.5) for im in (0.5, 2.0)]
    s = np.array([0.5 + 0.5j, 2.0 + 0.16j])
    equations = [("padded", padded, g, None), ("padded-psi3", padded, g, quadratic),
                 ("lift-psi5", lift, lift, quartic), ("level7-psi5", f, g, quartic),
                 ("level7-psi3", f, g, quadratic)]
    for name, a, b, psi in equations:
        yield name, fe_residuals(a, b, grid, psi=psi)
        if psi is not None:
            for call in (twisted_lambda, twisted_omega):
                yield name, call(a, b, a.character, psi, a.level, a.weight, s)


def line_records():
    """(name, (value, info)) of invert_on_line with full_output: W_nu for
    nu = 1-3 at x in {1e-3, 0.3, 1, 3, 20}, height 200, and
    reconstruct_from_lambda of the n_max 40 lift at t in {0.5, 0.8, 1, 1.5,
    2}, height 40."""
    for nu in (1, 2, 3):
        for x in (1e-3, 0.3, 1.0, 3.0, 20.0):
            yield f"w{nu}@{x}", invert_on_line(lambda s: w_nu(nu, s), x, 2.0, 200.0, True)
    lift = harmonic_eisenstein_level_one(40)
    pair = analytic_pair(lift)
    for t in (0.5, 0.8, 1.0, 1.5, 2.0):
        yield f"lift@{t}", reconstruct_from_lambda(
            lambda s: lambda_continued(pair, s), lift.level, lift.weight, t, 2.0, 40.0, True
        )


def main() -> int:
    for name, (make_round, _) in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        for seed in SEEDS:
            for index in ROUNDS:
                for record in round_records(make_round, seed, index):
                    digest.update(canonical(record).encode())
        print(name, digest.hexdigest())
    for name, records in (("sides", sides_records), ("line", line_records)):
        digest = hashlib.sha256()
        for record in records():
            digest.update(canonical(record).encode())
        print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
