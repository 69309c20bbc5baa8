"""Benchmark of the hgib CLI on seeded CSV inputs.

    python3 hgibbench/run.py --workload train-n240 --seed 1 --seconds 20 --trace 0
    python3 hgibbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process: its inputs are written from the seed,
its CLI calls run in-process on the package under `src/`, its outputs are
checked against the oracle, and the last line of stdout is a JSON object
with `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
with `--trace 0`, per-layer metrics of a traced round with `--trace 1`).
`--workload all` runs every workload in its own fresh process and prints
a table. `--smoke` shrinks every workload to a tiny input and a few epochs.
"""

from __future__ import annotations

import os

# Fixed before numpy loads OpenBLAS: a default two-thread pool made the
# n=240 training time vary by half again between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".hgibbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "attack_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MiB",
}


def _import_package():
    """The package from this checkout's `src/`, never an installed one."""
    if not (SRC / "hgib" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'hgib'}")
    sys.path[0:1] = [str(SRC), str(ROOT)]
    import hgib

    if Path(hgib.__file__).resolve().parent != (SRC / "hgib").resolve():
        sys.exit(f"error: imported hgib from {hgib.__file__}, not from {SRC}")


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    _import_package()
    from hgibbench import workloads as wl
    from hgibbench.checks import CheckError
    from hgibbench.inputs import write_inputs
    from hgibbench.spans import Tracer

    if name not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; one of {', '.join(wl.WORKLOADS)} or all")
    w = wl.WORKLOADS[name].smoke() if smoke else wl.WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    features, labels, clean = write_inputs(w.inputs, seed, work / "inputs")
    inputs = wl.Inputs(features, labels, clean)
    schemas = SRC / "hgib" / "schemas"
    print(f"{name}: n={w.inputs.n} seed={seed} blas_threads={BLAS_THREADS} trace={int(trace)}", file=sys.stderr)

    if trace:
        plain = wl.run_round(w, inputs, work / "plain")
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_round(w, inputs, work / "traced", tracer)
        finally:
            tracer.uninstall()
        rounds = [plain, traced]
        check_dir = work / "plain"
        main_op = next(i for i, t in enumerate(plain) if t.op.kind == w.main)
        overhead = traced[main_op].seconds - plain[main_op].seconds
        metrics = wl.per_layer_metrics(tracer, wl.isolated_backward(tracer), overhead)
        units = wl.PER_LAYER_UNITS
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
        print(f"{name}: tracing overhead {overhead:+.3f} s on {w.main}", file=sys.stderr)
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(wl.run_round(w, inputs, work / f"round{len(rounds)}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_dir = work / "round0"
        metrics = {
            "setup_s": statistics.median(wl.times_of(rounds, "setup")),
            "train_s": statistics.median(wl.times_of(rounds, "train")),
            "attack_s": statistics.median(wl.times_of(rounds, "attack")),
            "sweep_s": statistics.median(wl.times_of(rounds, "sweep")),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        print(f"{name}: {len(rounds)} rounds", file=sys.stderr)

    attempted = sum(t.attempted for r in rounds for t in r)
    failed_ops = sum(t.failed for r in rounds for t in r)
    correct = True
    try:
        failed_outs = {t.op.out for t in rounds[0] if t.failed}
        wl.check_round(w, inputs, check_dir, schemas, failed_outs)
        for i, r in enumerate(rounds[1:], 1):
            wl.same_outputs(check_dir, work / ("traced" if trace else f"round{i}"),
                            "traced round" if trace else f"round {i}")
    except CheckError as exc:
        correct = False
        print(f"{name}: CHECK FAILED: {exc} (outputs kept in {work})", file=sys.stderr)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Each workload in a fresh process; a table of what they print."""
    from hgibbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.workload == "all":
        sys.path[0:1] = [str(ROOT)]
        return run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
