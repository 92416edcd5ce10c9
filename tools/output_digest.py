#!/usr/bin/env python3
"""One sha256 per benchmark workload over every operation's output and
verdict, to show that a change keeps the outputs bit for bit.

    python3 tools/output_digest.py

It takes no flags.  It imports the library from this checkout's src/ and
bench/workloads.py and bench/run.py, which it only reads, and runs seeds
1 and 2, rounds 0 and 1 of each workload, each round's operations in
bench/run.py's seeded order.  It prints one line "<workload> <sha256>" per
workload: two checkouts that print the same lines gave the same outputs
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


def main() -> int:
    for name, (make_round, _) in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        for seed in SEEDS:
            for index in ROUNDS:
                for record in round_records(make_round, seed, index):
                    digest.update(canonical(record).encode())
        print(name, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
