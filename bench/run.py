#!/usr/bin/env python3
"""Benchmark of the maassforms library: one run of one workload.

    python3 bench/run.py --workload construct|verify|converse \
        --seed N --seconds S --trace 0|1

Run from the repository root.  A run imports the library from ./src and
times its set-up: a fresh interpreter importing it, and input generation
plus a warm-up operation in this process, each five times.  Then it
runs whole rounds of the workload's operations, in a seeded order, until S
seconds have passed, checking every output.  With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics; with --trace 1 the rounds run
under the tracer and the metrics are per layer, with the tracing overhead
taken against an untraced run of the same seed in a fresh process.
A record of the run is written under .bench_out/.
"""

import os
import sys
import time

T_START = time.perf_counter()  # bounds the untraced child's time limit
# one thread per process, fixed before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("construct", "verify", "converse")
END_TO_END = ("ops_per_s", "op_s_p50", "op_cpu_s_p50", "setup_s", "peak_rss_mb", "accuracy_digits")
TRACE_METRICS = ("trace.spans", "trace.traced_round_s", "trace.untraced_round_s", "trace.overhead_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import maassforms from this checkout's src/ and nowhere else."""
    if not (SRC / "maassforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import maassforms

    if Path(maassforms.__file__).resolve().parent != SRC / "maassforms":
        raise SystemExit(f"error: maassforms imported from {maassforms.__file__}, not {SRC}")


def import_seconds():
    """Median wall time of a fresh interpreter importing numpy and the
    library, over SETUP_REPEATS child processes."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, maassforms"
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_op(op, tracer):
    """Time one program call; an exception is its output."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = op.call()
    except Exception as exc:  # an operation that raises has failed
        out = exc
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    return out, wall, cpu


def judge(rnd, outputs):
    """The round's verdicts; when an operation raised or the check cannot
    run, every operation of the round fails."""
    from workloads import Verdict

    if not any(isinstance(o, Exception) for o in outputs):
        try:
            return rnd.check(outputs)
        except Exception as exc:  # a check that cannot run fails its round
            return [Verdict(False, None, f"check raised {exc!r}")] * len(outputs)
    return [Verdict(False, None, f"raised {o!r}" if isinstance(o, Exception) else "round incomplete")
            for o in outputs]


def untraced_round_seconds(args, ops_per_round):
    """Wall seconds per round of the same seed, untraced, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    left = max(10.0, 170.0 - (time.perf_counter() - T_START))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0:
        raise SystemExit(f"error: untraced reference run failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return ops_per_round / metrics["ops_per_s"]["value"]


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_library()
    import numpy as np

    import workloads

    import_s = import_seconds()
    make_round, warmup = workloads.WORKLOADS[args.workload]

    setup = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_round(args.seed, 0)
        warmup(args.seed, i)
        setup.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    records, correct, rounds = [], True, 0
    loop0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop0 < args.seconds:
        rnd = make_round(args.seed, rounds)
        # a seeded order spreads operations of similar size, which set the
        # median, over the round instead of running them back to back
        order = np.random.default_rng([args.seed, rounds, 7]).permutation(len(rnd.ops))
        outputs, recs = [None] * len(rnd.ops), [None] * len(rnd.ops)
        for position, i in enumerate(order):
            op = rnd.ops[i]
            outputs[i], wall, cpu = run_op(op, tracer)
            recs[i] = {"round": rounds, "position": position, "op": op.name, "wall_s": wall,
                       "cpu_s": cpu, "fault": op.fault}
        records += recs
        for rec, op, v in zip(recs, rnd.ops, judge(rnd, outputs)):
            rec.update(ok=v.ok, error=v.error, detail=v.detail)
            correct = correct and (v.ok or op.fault)
            print(f"{rec['op']:>22} {rec['wall_s']:7.3f}s {'ok' if v.ok else 'FAIL'} {v.detail}",
                  file=sys.stderr)
        rounds += 1

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    walls = [r["wall_s"] for r in records]
    if tracer is None:
        errors = [r["error"] for r in records if not r["fault"] and r["error"] is not None]
        worst = max(max(errors, default=0.0), np.finfo(float).eps)
        values = {
            "ops_per_s": (attempted / sum(walls), "1/s"),
            "op_s_p50": (statistics.median(walls), "s"),
            "op_cpu_s_p50": (statistics.median(r["cpu_s"] for r in records), "s"),
            "setup_s": (import_s + statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (-math.log10(worst), "digits"),
        }
    else:
        per_round = {k: v / rounds for k, v in tracer.summary().items()}
        traced = sum(walls) / rounds
        untraced = untraced_round_seconds(args, attempted // rounds)
        values = {k: (v, "s" if k.endswith("_s") else "count") for k, v in per_round.items()}
        values["trace.spans"] = (len(tracer.spans) / rounds, "count")
        values["trace.traced_round_s"] = (traced, "s")
        values["trace.untraced_round_s"] = (untraced, "s")
        values["trace.overhead_s"] = (traced - untraced, "s")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "env": {"cores": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "machine": platform.machine()},
        "rounds": rounds, "setup_repeats_s": setup, "import_s": import_s,
        "ops": records, "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
