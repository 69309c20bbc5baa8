"""The three workloads: what each round runs, how it is timed, and how its
outputs are checked.

Every workload runs the three CLI operations a user runs, `train`,
`attack --checkpoint` and `sweep --grid attacks`, so that every
end-to-end metric is measured on every workload; they differ in which
operation carries the weight. All flags the checks depend on are passed
explicitly, so a change of a program default cannot change what is run.
"""

from __future__ import annotations

import ctypes
import gc
import inspect
import json
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hgibbench import checks, oracle
from hgibbench.checks import require
from hgibbench.inputs import InputSpec

TRAIN_FRACTION = 0.8
LABEL_FRACTION = 1.0
DROP_FRACTION = 0.2
RHO = 0.01
BACKWARD_REPS = 10

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):   # not glibc
    _malloc_trim = None


def release_memory() -> None:
    """Collect garbage and hand free heap pages back to the OS, so each
    CLI call starts from a heap like a fresh process's. Without it the
    peak RSS of the same run varied by 45 MiB between processes, with what
    earlier calls left in the heap."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass(frozen=True)
class Op:
    kind: str                      # train | attack | sweep | setup
    out: str = ""                  # output directory inside the round's
    seed: int = 1
    attack: str = "none"           # attack ops: drop | noise
    checkpoint: str = ""           # attack ops: `out` of the train op whose checkpoint is read
    epochs: int | None = None      # overrides the workload's epochs
    settings: tuple[str, ...] = () # sweep ops: attack grid
    seeds: tuple[int, ...] = ()    # sweep ops


SETUP = Op("setup")   # one timed set-up, not a CLI call


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: InputSpec
    k: int
    epochs: int
    lr: float | None               # None: the program's default
    ops: tuple[Op, ...]            # one round; short calls are interleaved so their samples spread
    main: str                      # op kind whose traced-minus-untraced time is the tracing overhead

    def smoke(self) -> "Workload":
        """The same operations and checks on a tiny input: n of 60 to 90,
        no label noise, k=5, 30 epochs at lr 1e-2."""
        return replace(
            self,
            inputs=InputSpec(n=90 if self.inputs.n > 240 else 60, label_noise=0.0),
            k=5,
            epochs=30,
            lr=1e-2,
        )

    def epochs_of(self, op: Op) -> int:
        return op.epochs or self.epochs


def _attack(i: int, checkpoint: str, seed: int = 1) -> Op:
    kind = ("drop", "noise")[i % 2]
    return Op("attack", f"attack_{kind}{i}_{checkpoint}", seed=seed, attack=kind, checkpoint=checkpoint)


# A one-epoch sweep: its time is the sweep's preparation of every graph,
# two trainings and two attack evaluations.
def _small_sweep(i: int) -> Op:
    return Op("sweep", f"sweep{i}", epochs=1, settings=("drop",), seeds=(1, 2))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-n240",
            inputs=InputSpec(n=240),
            k=20,
            epochs=2000,
            lr=None,
            ops=(
                Op("train", "train"),
                *(
                    op
                    for i in range(16)
                    for op in (_attack(i, "train"), SETUP, *([_small_sweep(i // 4)] if i % 4 == 3 else []))
                ),
            ),
            main="train",
        ),
        Workload(
            name="train-n2000",
            inputs=InputSpec(n=2000),
            k=20,
            epochs=100,
            # at the default 1e-4, 100 epochs leave the model predicting one class
            lr=1e-3,
            ops=(
                Op("train", "train"),
                _attack(0, "train"),
                SETUP,
                _attack(1, "train"),
                _attack(2, "train"),
                SETUP,
                _attack(3, "train"),
                _small_sweep(0),
            ),
            main="train",
        ),
        Workload(
            name="attack-sweep",
            inputs=InputSpec(n=240),
            k=20,
            epochs=200,
            lr=1e-3,
            ops=(
                Op("sweep", "sweep", settings=("none", "drop", "noise"), seeds=(1, 2)),
                *(
                    op
                    for s in (1, 2)
                    for op in (
                        Op("train", f"train{s}", seed=s),
                        *(o for i in range(4) for o in (_attack(i, f"train{s}", s), SETUP)),
                    )
                ),
            ),
            main="sweep",
        ),
    )
}


@dataclass
class Inputs:
    features: list[Path]
    labels: Path
    clean: list[str]


def argv(w: Workload, op: Op, inputs: Inputs, round_dir: Path) -> list[str]:
    args = [
        op.kind,
        "--features", *map(str, inputs.features),
        "--labels", str(inputs.labels),
        "--k", str(w.k),
        "--epochs", str(w.epochs_of(op)),
        "--train-fraction", str(TRAIN_FRACTION),
        "--label-fraction", str(LABEL_FRACTION),
        "--out", str(round_dir / op.out),
    ]
    if w.lr is not None:
        args += ["--lr", repr(w.lr)]
    if op.kind == "sweep":
        args += ["--grid", "attacks", "--attacks", *op.settings, "--seeds", *map(str, op.seeds)]
    else:
        args += ["--seed", str(op.seed)]
    if op.kind == "attack":
        args += ["--attack", op.attack, "--checkpoint", str(round_dir / op.checkpoint / "checkpoint.json")]
    if op.kind in ("attack", "sweep"):
        args += ["--drop-fraction", str(DROP_FRACTION), "--rho", str(RHO)]
    return args


# ---------------------------------------------------------------- timing

@dataclass
class Timed:
    op: Op
    seconds: float
    attempted: int
    failed: int


def run_round(w: Workload, inputs: Inputs, round_dir: Path, tracer=None) -> list[Timed]:
    """Every op of the workload once; each CLI call is made in this process.
    A non-zero exit or an exception fails the op; a sweep row with status
    `error` fails that row. Set-ups are timed only without a tracer."""
    from hgib import cli

    timed = []
    for op in w.ops:
        if op.kind == "setup":
            if tracer is None:
                timed.append(Timed(op, setup_seconds(w, inputs), 0, 0))
            continue
        args = argv(w, op, inputs, round_dir)
        release_memory()
        with redirect_stdout(sys.stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = cli.main(args)
                else:
                    with tracer.span("cli"):
                        code = cli.main(args)
            except Exception:  # noqa: BLE001 - one op's failure is counted, the run goes on
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        attempted, failed = 1, int(code != 0)
        if op.kind == "sweep":
            rows = len(op.settings)
            table = round_dir / op.out / "table.json"
            if code == 0 and table.is_file():
                with open(table) as fh:
                    bad = sum(r.get("status") != "ok" for r in json.load(fh)["rows"])
            else:
                bad = rows
            attempted, failed = attempted + rows, failed + bad
        if code != 0:
            print(f"{w.name}: {op.kind} {op.out} exited {code}", file=sys.stderr)
        timed.append(Timed(op, seconds, attempted, failed))
    return timed


def setup_seconds(w: Workload, inputs: Inputs) -> float:
    """Seconds to turn the CSV files into a training-ready structure; what
    it builds is released before it returns."""
    from hgib import data, trainer

    release_memory()
    start = time.perf_counter()
    dataset = data.normalize(data.load_csv(inputs.features, inputs.labels))
    fused, graph = data.fuse_and_build(dataset, w.k)
    graph.propagation()
    trainer.split_and_mask(dataset, TRAIN_FRACTION, LABEL_FRACTION, 1)
    seconds = time.perf_counter() - start
    del dataset, fused, graph
    return seconds


def times_of(rounds: list[list[Timed]], kind: str) -> list[float]:
    return [t.seconds for r in rounds for t in r if t.op.kind == kind]


# ---------------------------------------------------------------- checks

def check_round(w: Workload, inputs: Inputs, round_dir: Path, schemas: Path, failed: set) -> None:
    """Check every output of a round's ops that did not fail."""
    seeds = sorted({op.seed for op in w.ops if op.kind in ("train", "attack")} | {s for op in w.ops for s in op.seeds})
    ref = checks.build_reference(
        inputs.features, inputs.labels, inputs.clean, w.k, seeds, (TRAIN_FRACTION, LABEL_FRACTION)
    )
    num_classes = int(ref.labels.max()) + 1
    evals = {}

    def probs(op_out: str, seed: int, kind: str) -> np.ndarray:
        """The oracle's probabilities from a train op's checkpoint under an attack."""
        key = (op_out, seed, kind)
        if key not in evals:
            path = round_dir / op_out / "checkpoint.json"
            checks.check_checkpoint(path, schemas, ref.X.shape[1], num_classes)
            params = oracle.read_checkpoint(path)
            P, X = checks.perturbed(ref, kind, seed, DROP_FRACTION, RHO)
            evals[key] = oracle.forward_probs(P, X, *params)
        return evals[key]

    def attacked(op_out: str, seed: int, kind: str) -> dict:
        return oracle.evaluate(probs(op_out, seed, kind), ref.labels, ref.test_masks[seed])

    clean_aucs = []
    for op in w.ops:
        if op.kind == "setup" or op.out in failed:
            continue
        out = round_dir / op.out
        if op.kind == "train":
            run = checks.validate(out / "run.json", schemas, "run.schema.json")
            doc = checks.validate(out / "metrics.json", schemas, "metrics.schema.json")
            checks.check_loss_trace(run["loss_trace"], w.epochs_of(op))
            checks.same_metrics(doc["metrics"], attacked(op.out, op.seed, "none"), f"{op.out}/metrics.json")
            clean = oracle.evaluate(probs(op.out, op.seed, "none"), ref.clean, ref.test_masks[op.seed])
            clean_aucs.append(clean["auc_average"])
            predicted = np.sum(doc["metrics"]["confusion"], axis=0)
            require((predicted > 0).all(), f"{op.out}: the model never predicts some class ({predicted.tolist()})")
        elif op.kind == "attack":
            doc = checks.validate(out / "metrics.json", schemas, "metrics.schema.json")
            require(doc.get("attack", {}).get("kind") == op.attack, f"{op.out}: attack kind not recorded")
            checks.same_metrics(
                doc["metrics"], attacked(op.checkpoint, op.seed, op.attack), f"{op.out}/metrics.json"
            )
        else:
            table = checks.validate(out / "table.json", schemas, "table.schema.json")
            require([r["setting"] for r in table["rows"]] == list(op.settings), f"{op.out}: rows differ from the grid")
            require(table["seeds"] == list(op.seeds), f"{op.out}: seeds differ")
            trains = {
                o.seed: o.out
                for o in w.ops
                if o.kind == "train" and o.out not in failed and w.epochs_of(o) == w.epochs_of(op)
            }
            for row in table["rows"]:
                flat = json.dumps(row["metrics"])
                require("NaN" not in flat and "Infinity" not in flat, f"{op.out}: non-finite metric")
                if not all(s in trains for s in op.seeds):
                    continue
                reports = [attacked(trains[s], s, row["setting"]) for s in op.seeds]
                checks.same_aggregate(row["metrics"], oracle.aggregate(reports), f"{op.out} row {row['setting']}")
                if row["setting"] == "none":
                    # the aggregate of the `hgib train` runs of the same seeds
                    docs = []
                    for s in op.seeds:
                        with open(round_dir / trains[s] / "metrics.json") as fh:
                            docs.append(json.load(fh)["metrics"])
                    checks.same_aggregate(row["metrics"], oracle.aggregate(docs), f"{op.out} row none")

    if clean_aucs:
        # The program's own AUC is against the noisy labels: at n=240 one
        # model's ranged 0.86-0.98 over input seeds and at n=2000 0.89-0.95,
        # with the ceiling set by how many test labels the draw flipped.
        mean = float(np.mean(clean_aucs))
        require(mean >= checks.AUC_FLOOR, f"mean test AUC against noise-free labels {mean:.4f} < {checks.AUC_FLOOR}")


OUTPUT_FILES = ("metrics.json", "table.json", "checkpoint.json")


def same_outputs(a: Path, b: Path, what: str) -> None:
    """Byte-identical result files in two round directories."""
    for path in sorted(p for name in OUTPUT_FILES for p in a.rglob(name)):
        other = b / path.relative_to(a)
        require(other.is_file(), f"{what}: {other} missing")
        require(path.read_bytes() == other.read_bytes(), f"{what}: {path.relative_to(a)} differs")


# ------------------------------------------------------------- per layer

def _leaf(t, requires_grad: bool):
    from hgib.autodiff import Tensor

    return Tensor(np.array(t.data, copy=True), requires_grad=requires_grad)


def _backward_ms(build) -> float:
    """Median ms of `backward()` on the scalar `build()` returns."""
    times = []
    for _ in range(BACKWARD_REPS):
        root = build()
        start = time.perf_counter()
        root.backward()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def isolated_backward(tracer) -> dict[str, float]:
    """Backward time of each conv layer and each loss term alone, on the
    tensors of the last epoch of the round's first training, with the
    program's original functions. The scalar is the sum of the output."""
    from hgib import autodiff as ad
    from hgib import losses, model
    from hgib.autodiff import Tensor

    def scalar(t):
        return t if t.shape == (1, 1) else ad.tsum(t)

    builds = {}
    for layer, (args, kwargs) in sorted(tracer.conv_args.items()):
        def conv(layer=layer, args=args, kwargs=kwargs):
            # the first layer's input is a constant, later ones need a gradient
            x = _leaf(args[0], layer > 0)
            rest = [_leaf(a, a.requires_grad) if isinstance(a, Tensor) else a for a in args[1:]]
            return scalar(model.hgnnp_layer_forward(x, *rest, **kwargs))

        builds[f"model.conv{layer}.backward.ms"] = conv
    try:
        a = inspect.signature(losses.total_loss).bind(*tracer.loss_args[0], **tracer.loss_args[1]).arguments
        logits, per_layer, labels, mask, cfg = (a[k] for k in ("logits_final", "per_layer", "labels", "mask", "cfg"))
    except (TypeError, KeyError) as exc:
        print(f"trace: loss terms not measured: {exc!r}", file=sys.stderr)
    else:
        builds["losses.ce.backward.ms"] = lambda: scalar(losses.cross_entropy(_leaf(logits, True), labels, mask))
        builds["losses.focal.backward.ms"] = lambda: scalar(
            losses.focal_loss(
                _leaf(losses.true_class_probs(Tensor(logits.data), labels), True), cfg.alpha, cfg.gamma, mask
            )
        )
        builds["losses.ib.backward.ms"] = lambda: scalar(
            losses.hgib_loss([(_leaf(z, True), _leaf(l, True)) for z, l in per_layer], labels, mask, cfg.beta)
        )
    out = {}
    for name, build in builds.items():
        try:
            out[name] = _backward_ms(build)
        except (TypeError, AttributeError, KeyError) as exc:
            print(f"trace: {name} not measured: {exc!r}", file=sys.stderr)
    return out


PER_LAYER_UNITS = {
    "data.load_csv.ms": "ms",
    "data.normalize.ms": "ms",
    "data.normalize.calls": "count",
    "hypergraph.build_knn.ms": "ms",
    "hypergraph.build_knn.calls": "count",
    "hypergraph.concat.ms": "ms",
    "hypergraph.propagation.ms": "ms",
    "hypergraph.incidence_mb": "MiB",
    "hypergraph.propagation_mb": "MiB",
    "trainer.train.calls": "count",
    "trainer.train.self_ms": "ms",
    "trainer.split_and_mask.ms": "ms",
    "model.forward.ms": "ms",
    "model.conv0.forward.ms": "ms",
    "model.conv1.forward.ms": "ms",
    "model.conv0.backward.ms": "ms",
    "model.conv1.backward.ms": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "losses.total_loss.ms": "ms",
    "losses.ce.forward.ms": "ms",
    "losses.ce.backward.ms": "ms",
    "losses.focal.forward.ms": "ms",
    "losses.focal.backward.ms": "ms",
    "losses.ib.forward.ms": "ms",
    "losses.ib.backward.ms": "ms",
    "autodiff.ops_per_epoch": "count",
    "autodiff.matmul_per_epoch": "count",
    "autodiff.matmul.ms": "ms",
    "autodiff.backward.ms": "ms",
    "autodiff.adam_step.ms": "ms",
    "metrics.evaluate.ms": "ms",
    "metrics.evaluate.calls": "count",
    "perturb.attack_evaluate.ms": "ms",
    "perturb.attack_evaluate.calls": "count",
    "perturb.drop_hyperedges.ms": "ms",
    "perturb.inject_feature_noise.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}

# metric name -> span name, for the mean-ms metrics read straight off spans
_SPAN_MS = {
    "data.load_csv.ms": "data.load_csv",
    "data.normalize.ms": "data.normalize",
    "hypergraph.build_knn.ms": "hypergraph.build_knn",
    "hypergraph.concat.ms": "hypergraph.concat",
    "hypergraph.propagation.ms": "hypergraph.propagation",
    "trainer.split_and_mask.ms": "trainer.split_and_mask",
    "model.forward.ms": "model.forward",
    "model.conv0.forward.ms": "model.conv0",
    "model.conv1.forward.ms": "model.conv1",
    "model.save_checkpoint.ms": "model.save_checkpoint",
    "model.load_checkpoint.ms": "model.load_checkpoint",
    "losses.total_loss.ms": "losses.total_loss",
    "losses.ce.forward.ms": "losses.ce",
    "losses.focal.forward.ms": "losses.focal",
    "losses.ib.forward.ms": "losses.ib",
    "autodiff.backward.ms": "autodiff.backward",
    "autodiff.adam_step.ms": "autodiff.adam_step",
    "metrics.evaluate.ms": "metrics.evaluate",
    "perturb.attack_evaluate.ms": "perturb.attack_evaluate",
    "perturb.drop_hyperedges.ms": "perturb.drop_hyperedges",
    "perturb.inject_feature_noise.ms": "perturb.inject_feature_noise",
}
_SPAN_CALLS = {
    "data.normalize.calls": "data.normalize",
    "hypergraph.build_knn.calls": "hypergraph.build_knn",
    "trainer.train.calls": "trainer.train",
    "metrics.evaluate.calls": "metrics.evaluate",
    "perturb.attack_evaluate.calls": "perturb.attack_evaluate",
}


def _mean_ms(seconds: list[float]) -> float:
    return statistics.fmean(seconds) * 1e3 if seconds else 0.0


def per_layer_metrics(tracer, backward_ms: dict, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced round. Counts are per round;
    a metric whose layer did not run reads 0."""
    values = {name: _mean_ms(tracer.durations(span)) for name, span in _SPAN_MS.items()}
    values.update({name: float(len(tracer.durations(span))) for name, span in _SPAN_CALLS.items()})
    values["hypergraph.incidence_mb"] = tracer.incidence_bytes / 2**20
    values["hypergraph.propagation_mb"] = tracer.propagation_bytes / 2**20
    values["trainer.train.self_ms"] = _mean_ms(tracer.self_seconds("trainer.train"))
    values["cli.self_ms"] = _mean_ms(tracer.self_seconds("cli"))
    marks = tracer.epoch_marks
    if len(marks) > 1:
        values["autodiff.ops_per_epoch"] = float(statistics.median(b[0] - a[0] for a, b in zip(marks, marks[1:])))
        values["autodiff.matmul_per_epoch"] = float(statistics.median(b[1] - a[1] for a, b in zip(marks, marks[1:])))
    calls = tracer.op_calls.get("matmul", 0)
    values["autodiff.matmul.ms"] = tracer.op_seconds["matmul"] / calls * 1e3 if calls else 0.0
    values.update(backward_ms)
    values["trace.overhead_s"] = overhead_s
    for name in tracer.missing:
        print(f"trace: {name} not found in the package", file=sys.stderr)
    return {name: values.get(name, 0.0) for name in PER_LAYER_UNITS}
