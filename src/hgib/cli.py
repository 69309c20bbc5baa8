"""Command-line front end: synth / train / eval / attack / sweep.

Flags override values from an optional JSON config file; all randomness
derives from one root seed via named substreams. `--synth default` is the
fixed fixture `SynthConfig(seed=1)`, so `--seed` never changes the data.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import re
import signal
import sys
import time
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import model, perturb, trainer
from .autodiff import Tensor
from .data import CsvInputs, Dataset, SynthConfig, generate_synthetic, load_csv, write_text_atomic
from .errors import HgibError
from .hypergraph import Hypergraph
from .losses import LossConfig
from .metrics import MetricsReport
from .trainer import TrainConfig


def _write_json(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _given(args: argparse.Namespace, cls) -> dict:
    """The flags given for `cls`'s fields; each flag's dest is its field name."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _config(cls, values, **given):
    """`cls` from a JSON object's values, each overridden by `given`; a JSON
    list for a tuple field becomes a tuple. A value that is not an object,
    an unknown key or a value of the wrong type is an HgibError."""
    try:
        values = {**values, **given}
        for f in fields(cls):
            if f.name in values and f.type.startswith("tuple"):
                values[f.name] = tuple(values[f.name])
        return cls(**values)
    except TypeError as exc:
        raise HgibError(f"bad {cls.__name__}: {exc}") from exc


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """The --config file's values, each overridden by its flag if given."""
    file_cfg = _read_json(args.config) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise HgibError("--config must hold a JSON object")
    loss = _config(LossConfig, file_cfg.get("loss", {}), **_given(args, LossConfig))
    return _config(TrainConfig, file_cfg, **_given(args, TrainConfig), loss=loss)


def _load_dataset(args: argparse.Namespace, parse: bool = True) -> Dataset | CsvInputs:
    """The call's dataset: its --features/--labels files, parsed, or as
    `CsvInputs` not yet read if not `parse`; or its --synth dataset."""
    if args.features:
        if not args.labels:
            raise HgibError("--labels is required with --features")
        return load_csv(args.features, args.labels) if parse else CsvInputs(args.features, args.labels)
    if args.synth is None:
        raise HgibError("provide --synth or --features/--labels")
    if args.synth == "default":
        return generate_synthetic(SynthConfig(seed=1))   # the acceptance suite's fixture
    return generate_synthetic(_config(SynthConfig, _read_json(args.synth)))


def _evaluate(
    args: argparse.Namespace, cfg: TrainConfig, attack: perturb.AttackConfig
) -> MetricsReport:
    """The metrics of the --checkpoint's model on the structure its run
    record holds, or of a fresh training, on a copy under `attack`. The copy
    is drawn before any training, so an attack that cannot be drawn fails
    first. A --checkpoint call parses its CSV files only if their bytes are
    not the run's."""
    data = _load_dataset(args, parse=not args.checkpoint)
    state = None
    if args.checkpoint:
        state = model.load_checkpoint(args.checkpoint)   # fails before the record is read
        data = trainer.load_structure(args.checkpoint, data, cfg)
    prepared = trainer.prepare(data, cfg)
    attacked = perturb.attacked(prepared, attack)
    if state is None:
        state = trainer.train(prepared.structure, cfg).model_state
    return trainer.evaluate_state(attacked, state)


def _metrics_payload(report, cfg: TrainConfig, attack: dict | None = None) -> dict:
    payload = {"seed": cfg.seed, "config": cfg.to_dict(), "metrics": asdict(report)}
    if attack is not None:
        payload["attack"] = attack
    return payload


# ------------------------------------------------------------ subcommands

def cmd_synth(args: argparse.Namespace) -> int:
    file_cfg = _read_json(args.synth_config) if args.synth_config else {}
    cfg = _config(SynthConfig, file_cfg, **_given(args, SynthConfig))
    dataset = generate_synthetic(cfg)
    out = Path(args.out)
    ids = [f"v{i}" for i in range(dataset.n)]
    for i, X in enumerate(dataset.modalities):
        with open(out / f"modality_{i}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id"] + [f"f{j}" for j in range(X.shape[1])])
            for vid, row in zip(ids, X):
                w.writerow([vid] + [repr(float(v)) for v in row])
    with open(out / "labels.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        for vid, lab in zip(ids, dataset.labels):
            w.writerow([vid, dataset.class_names[lab]])
    _write_json(out / "synth.json", {**cfg.__dict__, "dims": list(cfg.dims)})
    print(f"wrote {dataset.n}-vertex dataset to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _train_config(args)
    record = trainer.train(_load_dataset(args), cfg)
    report = trainer.evaluate_state(record.prepared, record.model_state)
    out = Path(args.out)
    run_doc = {
        "config": cfg.to_dict(),
        "loss_trace": record.loss_trace,
        "metrics": asdict(report),
        "timing": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "duration_seconds": record.duration_seconds,
        },
    }
    _write_json(out / "run.json", run_doc)
    _write_json(out / "metrics.json", _metrics_payload(report, cfg))
    model.save_checkpoint(record.model_state, out / "checkpoint.json")
    trainer.save_record(record.prepared.structure, cfg, out / "checkpoint.json")
    print(f"macro AUC {report.auc_average:.4f} -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _train_config(args)
    report = _evaluate(args, cfg, perturb.AttackConfig())
    _write_json(Path(args.out) / "metrics.json", _metrics_payload(report, cfg))
    print(f"macro AUC {report.auc_average:.4f}")
    return 0


def _attack_config(args: argparse.Namespace, kind: str, seed: int) -> perturb.AttackConfig:
    return perturb.AttackConfig(
        kind=kind,
        drop_fraction=args.drop_fraction,
        rho=args.rho,
        seed=seed,
    )


def cmd_attack(args: argparse.Namespace) -> int:
    cfg = _train_config(args)
    attack_cfg = _attack_config(args, args.attack, cfg.seed)   # checked before any training
    report = _evaluate(args, cfg, attack_cfg)
    payload = _metrics_payload(report, cfg, attack=attack_cfg.__dict__)
    _write_json(Path(args.out) / "metrics.json", payload)
    print(f"{attack_cfg.kind}: macro AUC {report.auc_average:.4f}")
    return 0


def _plan(args: argparse.Namespace) -> list[tuple]:
    """The sweep's rows, each (setting, TrainConfig change, attack kind); a
    change is a tuple of (field, value) pairs, so rows can share its run."""
    if args.grid == "labels":
        return [(f, (("label_fraction", f),), "none") for f in args.fractions]
    return [(kind, (), kind) for kind in args.attacks]


def _trained(structure: trainer.Structure, cfg: TrainConfig) -> tuple:
    """The masks and parameter arrays of a training on `structure`. Its
    RunRecord, which holds the structure and so its P, is not kept."""
    record = trainer.train(structure, cfg)
    p, state = record.prepared, record.model_state
    return (p.labeled_mask, p.test_mask), [t.data for t in state.thetas], [t.data for t in state.projectors]


def _released(structure: trainer.Structure) -> trainer.Structure:
    """A copy of `structure` over its graph's member lists that holds
    neither P nor P·X: once the original is dropped, they are freed."""
    g = structure.graph
    return replace(structure, graph=Hypergraph.from_members(g.num_vertices, g.indptr, g.indices))


def _attempt(seed: int, step):
    """step()'s value, or its failure as the row message `seed <s>: <reason>`."""
    try:
        return step()
    except (HgibError, ValueError) as exc:
        return f"seed {seed}: {exc}"


# A sweep trains in forked processes only at this many epochs or more. A
# fork costs about 10 ms, which fewer epochs at n=240 do not repay: the
# break-even, measured in CHANGES.md, lies between 5 and 10 epochs.
_FORK_MIN_EPOCHS = 20


def _blas_threads(cpus: int) -> int:
    """The thread count OpenBLAS takes when it loads: the first positive
    value (read as C's atoi does) of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
    and OMP_NUM_THREADS, else `cpus`; never more than `cpus`."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""))
        if value and int(value.group()) > 0:
            return min(int(value.group()), cpus)
    return cpus


def _workers(jobs: int, epochs: int) -> int:
    """The processes that train a sweep's `jobs` runs of `epochs` epochs:
    as many as the usable CPUs hold at the BLAS thread count, which a forked
    child keeps, and at most one per run. One below `_FORK_MIN_EPOCHS`, and
    on a platform without `os.sched_getaffinity` (macOS, Windows), where a
    process that has loaded BLAS is not forked."""
    if epochs < _FORK_MIN_EPOCHS or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(jobs, cpus // _blas_threads(cpus)))


def _share(train, jobs: list) -> list:
    """train(change, seed) for each (change, seed) job, in order. A job
    after its change's failure here, a row message, is not run (None)."""
    values, failed = [], set()
    for change, seed in jobs:
        value = None if change in failed else train(change, seed)
        if isinstance(value, str):
            failed.add(change)
        values.append(value)
    return values


def _serve(share, jobs: list, fd: int, inherited: list):
    """In a forked child: write share(jobs) to `fd` as one pickle and leave
    through os._exit, so none of the parent's exit handlers, buffered
    output or exception handlers run here. Never returns. An exception is
    printed with its traceback to stderr, and the child exits 1. The
    `inherited` read ends are closed first: a child that held its own would
    block forever on a full pipe that the parent no longer reads."""
    status = 1
    try:
        for pipe in inherited:
            pipe.close()
        payload = pickle.dumps(share(jobs), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        status = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _fanned_out(share, jobs: list, w: int) -> list:
    """share(jobs[k::w]) for each k < w, merged in job order: k = 0 here,
    each other k in a forked child that keeps this process's BLAS thread
    count (OpenBLAS stops its thread pool at a fork, and a child starts its
    own); at w = 1 nothing is forked. A child that does not exit 0, which
    it does only once its whole payload is written, is a RuntimeError.
    Every child is reaped before this returns or raises."""
    live, pipes = [], []
    try:
        for k in range(1, w):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(share, jobs[k::w], write, pipes)
                live.append(pid)
            finally:
                os.close(write)
        values = [None] * len(jobs)
        values[0::w] = share(jobs[0::w])
        for k, (pid, pipe) in enumerate(zip(list(live), pipes), 1):
            payload = pipe.read()   # before the wait: a child blocks on a full pipe
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if status != 0:
                raise RuntimeError(f"sweep worker {pid} sent no runs (wait status {status})")
            values[k::w] = pickle.loads(payload)
        return values
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _train_config(args)
    if len(args.seeds) < 2:
        raise HgibError("sweep needs at least two --seeds values")
    repeated = sorted({s for s in args.seeds if args.seeds.count(s) > 1})
    if repeated:
        raise HgibError(f"--seeds repeats {', '.join(map(str, repeated))}; each seed runs once")
    # --drop-fraction and --rho are checked once, before the data is read;
    # each row's attack is this one with its kind and seed
    attack = _attack_config(args, "none", args.seeds[0])
    dataset = _load_dataset(args)
    plan = _plan(args)
    # one structure for every seed and row: it depends on neither. It is
    # prepared at the first seed, so a split that fails there fails every
    # change before the build, as a failed build does; at label fraction
    # 1.0 the split checks only the train fraction, which no row changes
    first = replace(cfg, seed=args.seeds[0], label_fraction=1.0)
    structure = _attempt(args.seeds[0], lambda: trainer.prepare(dataset, first).structure)
    built = not isinstance(structure, str)
    # each distinct change trains its seeds in order, to its first failure,
    # while the clean P exists; a run is (masks, parameter arrays) or its
    # row message. The runs are dealt round-robin over `w` processes, which
    # share the structure, P and P·X built here before the fork
    runs = {change: [] if built else [structure] for _, change, _ in plan}
    jobs = [(change, seed) for change in runs for seed in args.seeds] if built else []

    def train(change: tuple, seed: int):
        return _attempt(seed, lambda: _trained(structure, replace(cfg, seed=seed, **dict(change))))

    w = _workers(len(jobs), cfg.epochs)
    if w > 1:
        _ = structure.propagated_features   # built once, before the fork
    values = _fanned_out(lambda share: _share(train, share), jobs, w)
    # the runs the one-process order reaches: each change's, to its first failure
    for (change, _), value in zip(jobs, values):
        if not (runs[change] and isinstance(runs[change][-1], str)):
            runs[change].append(value)

    def row(change: tuple, kind: str):
        """The row's metrics over its seeds, or the message of its first
        failure, its run's or its own."""
        reports = []
        for seed, run in zip(args.seeds, runs[change]):
            if isinstance(run, str):
                return run
            masks, thetas, projectors = run
            state = model.ModelState([Tensor(t) for t in thetas], [Tensor(p) for p in projectors])
            report = _attempt(seed, lambda: perturb.attack_evaluate(
                trainer.Prepared(structure, *masks), state, replace(attack, kind=kind, seed=seed),
            ))
            if isinstance(report, str):
                return report
            reports.append(report)
        return trainer.aggregate_metrics(reports)

    # each row reads its seeds in order, to its first failure: first the rows
    # whose attack keeps the clean graph, on its P; then, after that P is
    # released, the drop rows, so that no dropped P is built beside it
    drops = built and perturb.drop_count(structure.graph, args.drop_fraction) > 0
    results = {}
    for released in (False, True):
        if released and drops:
            structure = _released(structure)
        for i, (_, change, kind) in enumerate(plan):
            if (drops and kind == "drop") == released:
                results[i] = row(change, kind)
    rows = [
        {"setting": setting, "status": "error", "error": results[i]}
        if isinstance(results[i], str)
        else {"setting": setting, "status": "ok", "metrics": results[i]}
        for i, (setting, _, _) in enumerate(plan)
    ]
    table = {"grid": args.grid, "seeds": list(args.seeds), "rows": rows}
    _write_json(Path(args.out) / "table.json", table)
    print(f"{len(rows)}-row table -> {args.out}")
    return 0


# ------------------------------------------------------------------ main

def _run_flags() -> argparse.ArgumentParser:
    """Dataset, training and output flags shared by train/eval/attack/sweep.
    A training or loss flag's dest is its TrainConfig/LossConfig field."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--synth", help="'default' or path to a synth config JSON")
    p.add_argument("--features", nargs="+", help="one CSV per modality")
    p.add_argument("--labels", help="labels CSV (id,label)")
    p.add_argument("--config", help="JSON config file with TrainConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="lr_initial", metavar="LR")
    p.add_argument("--k", type=int, dest="k_neighbors", metavar="K")
    p.add_argument("--label-fraction", type=float)
    p.add_argument("--train-fraction", type=float)
    for f in fields(LossConfig):
        p.add_argument(f"--{f.name}", type=float)
    p.add_argument("--out", required=True)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgib",
        description="Hypergraph information-bottleneck experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset as CSV files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--synth-config", help="JSON file with generator settings")
    p.set_defaults(func=cmd_synth)

    run = _run_flags()
    perturbation = argparse.ArgumentParser(add_help=False)
    perturbation.add_argument("--drop-fraction", type=float, default=0.2)
    perturbation.add_argument("--rho", type=float, default=0.01)

    p = sub.add_parser("train", parents=[run], help="train one seeded run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[run], help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "attack", parents=[run, perturbation],
        help="evaluate a trained model under perturbation",
    )
    p.add_argument("--attack", choices=["none", "drop", "noise"], default="none")
    p.add_argument("--checkpoint", help="skip training, use this checkpoint")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "sweep", parents=[run, perturbation],
        help="label-fraction or attack grid over seeds",
    )
    p.add_argument("--grid", choices=["labels", "attacks"], required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--fractions", type=float, nargs="+", default=[0.8, 0.6, 0.4])
    p.add_argument(
        "--attacks", nargs="+", default=["none", "drop", "noise"],
        choices=["none", "drop", "noise"],
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command writes under --out: one that cannot be made fails
        # here, before any data is read or model trained
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except (HgibError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
