import base64
import ctypes
import errno
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from functools import cached_property
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hgib
import hgib.autodiff
import hgib.cli
import hgib.data
import hgib.errors
import hgib.losses
import hgib.metrics
import hgib.model
import hgib.perturb
import hgib.trainer
from hgib import (
    AttackConfig,
    LossConfig,
    SynthConfig,
    TrainConfig,
    attack_evaluate,
    generate_synthetic,
)
from hgib.cli import build_parser, main
from hgib.hypergraph import Hypergraph
from hgib.trainer import aggregate_metrics

SCHEMAS = Path(__file__).parent.parent / "src" / "hgib" / "schemas"


def load_schema(name):
    with open(SCHEMAS / name) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def synth_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "synth.json"
    path.write_text(
        json.dumps(
            {
                "n": 45,
                "dims": [4, 3],
                "num_classes": 3,
                "separation": 3.0,
                "label_noise": 0.0,
                "seed": 11,
            }
        )
    )
    return str(path)


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def count_builds(monkeypatch, calls, owner, name):
    """Count the builds of the cached property `owner.name` in calls[name]."""
    prop = cached_property(counted(calls, name, getattr(owner, name).func))
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)


def count_knn_and_epochs(monkeypatch):
    """Counts of kNN builds and of forward passes, one per epoch trained."""
    calls = {"knn": 0, "forward": 0}
    monkeypatch.setattr(
        hgib.data, "build_knn_hyperedges", counted(calls, "knn", hgib.data.build_knn_hyperedges)
    )
    monkeypatch.setattr(hgib.model, "forward", counted(calls, "forward", hgib.model.forward))
    return calls


def synth_csv_args(tmp_path, synth_cfg):
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--out", str(ds_dir), "--synth-config", synth_cfg]) == 0
    features = [str(ds_dir / f"modality_{i}.csv") for i in range(2)]
    return ["--features", *features, "--labels", str(ds_dir / "labels.csv")]


def train_args(synth_cfg, out, *extra):
    return [
        "train",
        "--synth",
        synth_cfg,
        "--epochs",
        "8",
        "--k",
        "5",
        "--seed",
        "1",
        "--out",
        str(out),
        *extra,
    ]


class TestSynth:
    def test_writes_dataset_files(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--seed", "3"]) == 0
        assert (out / "modality_0.csv").exists()
        assert (out / "modality_2.csv").exists()
        assert (out / "labels.csv").exists()
        assert (out / "synth.json").exists()

    # configs of the right types that no dataset can be generated from
    UNGENERABLE = [{"dims": []}, {"dims": [0]}, {"dims": [-1]}, {"num_classes": 1}]

    @pytest.mark.parametrize("config", [{"nope": 1}, {"n": "x"}, {"n": 60.5}, {"dims": 5}, [1, 2], *UNGENERABLE])
    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_bad_synth_config_exit_2(self, tmp_path, capsys, config, command):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(config))
        flag = "--synth" if command == "train" else "--synth-config"
        assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if config in self.UNGENERABLE:
            assert err.startswith(f"error: {next(iter(config))} "), err   # names the field

    def test_roundtrip_into_train(self, tmp_path, synth_cfg):
        out = tmp_path / "run"
        code = main(
            [
                "train",
                *synth_csv_args(tmp_path, synth_cfg),
                "--epochs",
                "5",
                "--k",
                "5",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "metrics.json").exists()


class TestTrain:
    def test_outputs_and_schemas(self, tmp_path, synth_cfg):
        out = tmp_path / "run"
        assert main(train_args(synth_cfg, out)) == 0
        run_doc = json.loads((out / "run.json").read_text())
        jsonschema.validate(run_doc, load_schema("run.schema.json"))
        metrics_doc = json.loads((out / "metrics.json").read_text())
        jsonschema.validate(metrics_doc, load_schema("metrics.schema.json"))
        assert len(run_doc["loss_trace"]) == 8
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        jsonschema.validate(checkpoint, load_schema("checkpoint.schema.json"))
        record = json.loads((out / "checkpoint.meta.json").read_text())
        jsonschema.validate(record, load_schema("checkpoint.meta.schema.json"))
        assert record["config"] == run_doc["config"]
        # the widths sum to the first layer's input width, which JSON Schema cannot state
        assert checkpoint[0]["rows"] == sum(record["dataset"]["widths"])
        assert record["inputs_sha256"] is None

    def test_class_absent_from_test_split_exit_2_before_the_build(self, tmp_path, monkeypatch, capsys):
        calls = count_knn_and_epochs(monkeypatch)
        argv = ["train", "--synth", "default", "--train-fraction", "1.0", "--epochs", "2", "--k", "5"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: a class is absent from the test split\n"
        assert calls == {"knn": 0, "forward": 0}
        assert not (tmp_path / "run.json").exists()

    def test_missing_label_file_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--features",
                "nope.csv",
                "--labels",
                "missing_labels.csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "nope.csv" in err or "missing_labels.csv" in err

    @pytest.mark.parametrize("case", ["features", "config", "checkpoint", "out"])
    def test_unreadable_path_exit_2(self, tmp_path, synth_cfg, capsys, monkeypatch, case):
        # a directory where a file is read, or a file where a directory is made;
        # each fails before any training, --out's included
        def no_train(*args):
            raise AssertionError("trained before the path was checked")

        monkeypatch.setattr(hgib.trainer, "train", no_train)
        directory, blocker, out = str(tmp_path), tmp_path / "file", tmp_path / "out"
        blocker.write_text("")
        argv, path, errno_ = {
            "features": (
                ["train", "--features", directory, "--labels", directory, "--out", str(out)],
                directory, errno.EISDIR,
            ),
            "config": (train_args(synth_cfg, out, "--config", directory), directory, errno.EISDIR),
            "checkpoint": (
                ["eval", *train_args(synth_cfg, out, "--checkpoint", directory)[1:]],
                directory, errno.EISDIR,
            ),
            "out": (train_args(synth_cfg, blocker / "run"), str(blocker / "run"), errno.ENOTDIR),
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: {os.strerror(errno_)}: {path}\n")

    def test_row_without_label_exit_2(self, tmp_path, synth_cfg, capsys):
        csv_args = synth_csv_args(tmp_path, synth_cfg)
        labels = Path(csv_args[-1])
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join([*lines[:-1], lines[-1].split(",")[0]]) + "\n")
        code = main(["train", *csv_args, "--epochs", "1", "--k", "5", "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {labels}: no label for id v44")

    def test_label_fraction_labeling_none_exit_2(self, tmp_path, capsys, monkeypatch):
        # round(0.001 * 192) = 0: a typed error, not the loss's "empty mask",
        # raised by the split before any kNN graph is built
        calls = {"knn": 0}
        knn = counted(calls, "knn", hgib.data.build_knn_hyperedges)
        monkeypatch.setattr(hgib.data, "build_knn_hyperedges", knn)
        argv = ["train", "--synth", "default", "--label-fraction", "0.001", "--epochs", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: label fraction 0.001 of 192 training vertices labels none\n"
        assert calls == {"knn": 0}

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--lr", "nan", "lr_initial must be finite, got nan"),
            ("--lr", "inf", "lr_initial must be finite, got inf"),
            ("--lr", "-1", "lr_initial must be >= 0, got -1.0"),
            ("--beta", "nan", "beta must be finite, got nan"),
            ("--xi", "inf", "xi must be finite, got inf"),
        ],
    )
    def test_non_finite_or_negative_rate_exit_2(
        self, tmp_path, synth_cfg, capsys, monkeypatch, flag, value, error
    ):
        def no_train(*args):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(hgib.trainer, "train", no_train)
        assert main(train_args(synth_cfg, tmp_path / "run", flag, value)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("hidden_dims", [[], [0]])
    def test_hidden_dims_without_a_width_exit_2(self, tmp_path, capsys, hidden_dims):
        cfg = tmp_path / "hd.json"
        cfg.write_text(json.dumps({"hidden_dims": hidden_dims}))
        argv = ["train", "--synth", "default", "--epochs", "1", "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: hidden_dims needs at least one width")

    def test_label_fraction_flag(self, tmp_path, synth_cfg):
        out = tmp_path / "run"
        main(train_args(synth_cfg, out, "--label-fraction", "0.4"))
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["config"]["label_fraction"] == 0.4

    def test_byte_identical_reruns(self, tmp_path, synth_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(train_args(synth_cfg, out1))
        main(train_args(synth_cfg, out2))
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, synth_cfg):
        cfg = tmp_path / "train.json"
        cfg.write_text(
            json.dumps({"epochs": 4, "k_neighbors": 5, "loss": {"xi": 2.0}})
        )
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--synth",
                synth_cfg,
                "--config",
                str(cfg),
                "--xi",
                "3.0",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["config"]["epochs"] == 4
        assert run_doc["config"]["loss"]["xi"] == 3.0  # flag beats file

    def test_every_config_field_has_a_flag_that_beats_the_file(self, tmp_path, synth_cfg):
        parsed = vars(build_parser().parse_args(["train", "--out", str(tmp_path)]))
        train_fields = {f.name for f in fields(TrainConfig)} - {"hidden_dims", "loss"}
        loss_fields = {f.name for f in fields(LossConfig)}
        assert train_fields | loss_fields <= set(parsed)

        file_loss = {"mu": 2.0, "xi": 3.0, "beta": 4.0, "alpha": 5.0, "gamma": 6.0}
        file_cfg = {
            "epochs": 3, "lr_initial": 0.01, "seed": 5, "train_fraction": 0.6,
            "label_fraction": 0.5, "k_neighbors": 3, "hidden_dims": [4, 4],
            "loss": file_loss,
        }
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(file_cfg))
        flags = {
            "--epochs": 2, "--lr": 0.002, "--seed": 1, "--train-fraction": 0.8,
            "--label-fraction": 0.9, "--k": 5, "--mu": 0.5, "--xi": 1.5,
            "--beta": 0.25, "--alpha": 1.0, "--gamma": 2.0,
        }
        out = tmp_path / "run"
        argv = ["train", "--synth", synth_cfg, "--config", str(cfg), "--out", str(out)]
        assert main(argv + [str(x) for item in flags.items() for x in item]) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config == {
            "epochs": 2, "lr_initial": 0.002, "seed": 1, "train_fraction": 0.8,
            "label_fraction": 0.9, "k_neighbors": 5, "hidden_dims": [4, 4],
            "loss": {"mu": 0.5, "xi": 1.5, "beta": 0.25, "alpha": 1.0, "gamma": 2.0},
        }

    def test_synth_default_ignores_the_seed(self, tmp_path, monkeypatch):
        fused = {}

        def recording(dataset, cfg):
            prepared = prepare(dataset, cfg)
            fused[cfg.seed] = prepared.structure.features.data
            return prepared

        prepare = hgib.trainer.prepare
        monkeypatch.setattr(hgib.trainer, "prepare", recording)
        for seed in ("1", "3"):
            argv = ["train", "--synth", "default", "--epochs", "1", "--seed", seed]
            assert main([*argv, "--out", str(tmp_path / seed)]) == 0
        np.testing.assert_array_equal(fused[1], fused[3])

    def test_synth_default_normalizes_once(self, tmp_path, monkeypatch):
        calls = {"normalize": 0}
        wrapped = counted(calls, "normalize", hgib.data.normalize)
        monkeypatch.setattr(hgib.data, "normalize", wrapped)
        monkeypatch.setattr(hgib.trainer, "normalize", wrapped)
        argv = ["train", "--synth", "default", "--epochs", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == {"normalize": 1}

    def test_unknown_config_key_rejected(self, tmp_path, synth_cfg):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rate": 1.0}))
        code = main(
            ["train", "--synth", synth_cfg, "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "config",
        [
            {"loss": {"lambda": 1.0}}, {"epochs": "ten"}, {"hidden_dims": 64}, {"loss": 5}, [1, 2],
            {"epochs": 2.5}, {"lr_initial": "x", "epochs": 2}, {"epochs": True}, {"hidden_dims": [64.5]},
        ],
    )
    def test_bad_config_value_exit_2(self, tmp_path, synth_cfg, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = main(
            ["train", "--synth", synth_cfg, "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_artifacts_written_atomically(self, tmp_path, synth_cfg, replaced):
        out = tmp_path / "run"
        assert main(train_args(synth_cfg, out)) == 0
        names = sorted(os.path.basename(dst) for _, dst in replaced)
        assert names == ["checkpoint.json", "checkpoint.meta.json", "metrics.json", "run.json"]
        assert all(os.path.dirname(src) == str(out) for src, _ in replaced)
        assert sorted(os.listdir(out)) == names


def _public_callables(module):
    """(owner, attribute, qualified name, descriptor) for each public function
    of `module` and each public method, property or constructor of its
    classes. Dataclass-generated methods are not source, so they are left out."""
    def source(fn):
        return inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__

    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__ or name.startswith("_"):
            continue
        if source(value):
            yield module, name, f"{module.__name__}.{name}", value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                fn = getattr(member, "fget", None) or getattr(member, "func", None)
                fn = fn or getattr(member, "__func__", member)
                if source(fn) and (attr == "__init__" or not attr.startswith("_")):
                    yield value, attr, f"{module.__name__}.{name}.{attr}", member


def _counting(owner, attr, member, calls, name):
    """`owner.attr`, which is `member`, with each call of its function
    counted in calls[name]."""
    if isinstance(member, property):
        return property(counted(calls, name, member.fget), member.fset, member.fdel)
    if isinstance(member, cached_property):
        prop = cached_property(counted(calls, name, member.func))
        prop.__set_name__(owner, attr)
        return prop
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(counted(calls, name, member.__func__))
    return counted(calls, name, member)


class TestLibraryHoldsOnlyWhatRuns:
    """Every public function, method, property and constructor of the
    package runs on some command's path, apart from the three that only the
    benchmark calls."""

    EXEMPT = {
        # hgibbench/checks.py, perturbed: the drop oracle's graph, from its dense H
        "hgib.hypergraph.Hypergraph.__init__",
        # hgibbench/checks.py, build_reference and perturbed: graphs against dense oracles
        "hgib.hypergraph.Hypergraph.incidence",
        # hgibbench/workloads.py, isolated_backward: a conv output reduced to a scalar
        "hgib.autodiff.tsum",
    }

    def test_the_commands_call_every_public_name(self, tmp_path, monkeypatch):
        modules = [
            importlib.import_module(f"hgib.{info.name}")
            for info in pkgutil.iter_modules(hgib.__path__)
        ]
        calls = Counter()
        names = set()
        functions = {}   # id(function) -> (function, qualified name)
        for module in modules:
            for owner, attr, name, member in _public_callables(module):
                names.add(name)
                if owner is module:
                    functions[id(member)] = (member, name)
                else:
                    monkeypatch.setattr(owner, attr, _counting(owner, attr, member, calls, name))
        # a function runs under each name a module imported it by
        for modname, module in list(sys.modules.items()):
            if modname == "hgib" or modname.startswith("hgib."):
                for attr, value in list(vars(module).items()):
                    hit = functions.get(id(value))
                    if hit is not None and hit[0] is value:
                        monkeypatch.setattr(module, attr, counted(calls, hit[1], value))

        def run(command, out, *flags):
            argv = [command, *flags, "--epochs", "1", "--k", "5", "--out", str(tmp_path / out)]
            assert hgib.cli.main(argv) == 0, argv   # the patched main

        data = ["--synth", "default"]
        run("train", "train", *data)
        checkpoint = ["--checkpoint", str(tmp_path / "train" / "checkpoint.json")]
        run("eval", "eval", *data, *checkpoint)
        for kind in ("none", "drop", "noise"):
            run("attack", f"attack-{kind}", *data, "--attack", kind)
            run("attack", f"attack-{kind}-checkpoint", *data, "--attack", kind, *checkpoint)
        seeds = ["--seeds", "1", "2"]
        run("sweep", "labels", *data, "--grid", "labels", "--fractions", "1.0", "0.5", *seeds)
        run("sweep", "attacks", *data, "--grid", "attacks", *seeds)
        assert hgib.cli.main(["synth", "--out", str(tmp_path / "csv")]) == 0
        csv = [str(tmp_path / "csv" / f"modality_{i}.csv") for i in range(3)]
        run("train", "csv-train", "--features", *csv, "--labels", str(tmp_path / "csv" / "labels.csv"))

        assert self.EXEMPT <= names
        assert self.EXEMPT & set(calls) == set()
        assert names - self.EXEMPT - set(calls) == set()


class TestDenseIncidenceNeverBuilt:
    """Training, checkpoint attacks and the attack sweep run on the member
    lists alone: a dense n x |E| incidence is never materialized."""

    @pytest.fixture(autouse=True)
    def forbid_incidence(self, monkeypatch):
        def incidence(self):
            raise AssertionError("dense incidence built on the run path")

        monkeypatch.setattr(Hypergraph, "incidence", property(incidence))

    def test_train_attack_sweep(self, tmp_path):
        run = ["--synth", "default", "--epochs", "3", "--seed", "1"]
        assert main(["train", *run, "--out", str(tmp_path / "train")]) == 0
        checkpoint = str(tmp_path / "train" / "checkpoint.json")
        assert main(
            ["attack", *run, "--attack", "drop", "--checkpoint", checkpoint,
             "--out", str(tmp_path / "attack")]
        ) == 0
        assert main(
            ["sweep", *run, "--grid", "attacks", "--attacks", "none", "drop", "noise",
             "--seeds", "1", "2", "--out", str(tmp_path / "sweep")]
        ) == 0
        rows = json.loads((tmp_path / "sweep" / "table.json").read_text())["rows"]
        assert [row["status"] for row in rows] == ["ok"] * 3


class TestNumpyMaNeverImported:
    """Under numpy 2.x, `np.unique` without return flags imports `numpy.ma`
    on its first call: 18 ms and 1.6 MiB resident that no command needs.
    Each command runs in a fresh interpreter, since the test process may
    have imported it already."""

    SCRIPT = (
        "import sys\n"
        "from hgib.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ma-run")
        assert main(["train", "--synth", "default", "--epochs", "2", "--k", "5", "--out", str(out)]) == 0
        return str(out / "checkpoint.json")

    @pytest.mark.parametrize(
        "command",
        [
            ["train"],
            ["eval", "--checkpoint"],
            ["attack", "--attack", "none", "--checkpoint"],
            ["attack", "--attack", "drop", "--checkpoint"],
            ["attack", "--attack", "noise"],
            ["sweep", "--grid", "attacks", "--attacks", "none", "drop", "noise", "--seeds", "1", "2"],
        ],
        ids=["train", "eval", "attack-none", "attack-drop", "attack-noise", "sweep"],
    )
    def test_command_never_imports_numpy_ma(self, tmp_path, checkpoint, command):
        argv = command + [checkpoint] if command[-1] == "--checkpoint" else list(command)
        if command[0] != "eval":
            argv += ["--epochs", "2"]
        argv += ["--synth", "default", "--k", "5", "--out", str(tmp_path)]
        src = str(Path(hgib.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


class TestEvalAndAttack:
    @pytest.fixture(scope="class")
    def trained_dir(self, tmp_path_factory, synth_cfg):
        out = tmp_path_factory.mktemp("trained")
        main(train_args(synth_cfg, out))
        return out

    def test_eval_checkpoint(self, tmp_path, synth_cfg, trained_dir):
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--synth",
                synth_cfg,
                "--checkpoint",
                str(trained_dir / "checkpoint.json"),
                "--k",
                "5",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        eval_doc = json.loads((out / "metrics.json").read_text())
        trained_doc = json.loads((trained_dir / "metrics.json").read_text())
        assert eval_doc["metrics"] == trained_doc["metrics"]

    @pytest.mark.parametrize("kind", ["none", "drop", "noise"])
    def test_attack_subcommand(self, tmp_path, synth_cfg, trained_dir, kind):
        out = tmp_path / kind
        code = main(
            [
                "attack",
                "--synth",
                synth_cfg,
                "--checkpoint",
                str(trained_dir / "checkpoint.json"),
                "--attack",
                kind,
                "--k",
                "5",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        jsonschema.validate(doc, load_schema("metrics.schema.json"))
        assert doc["attack"]["kind"] == kind

    @pytest.mark.parametrize(
        "content", [b"not json", b"\xff\xfe", b"{}", b"[]"], ids=["not-json", "not-utf8", "object", "empty-list"]
    )
    def test_malformed_checkpoint_named_exit_2(self, tmp_path, synth_cfg, trained_dir, capsys, content):
        # beside the run's own record, so that the checkpoint is the one fault
        checkpoint = tmp_path / "run" / "checkpoint.json"
        checkpoint.parent.mkdir()
        checkpoint.with_suffix(".meta.json").write_bytes((trained_dir / "checkpoint.meta.json").read_bytes())
        checkpoint.write_bytes(content)
        argv = ["eval", "--checkpoint", str(checkpoint), *train_args(synth_cfg, tmp_path / "eval")[1:]]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed checkpoint {checkpoint}: ")

    def test_one_evaluation_path(self, tmp_path, synth_cfg, trained_dir):
        """eval, attack none on the checkpoint and attack none with its own
        training all report the metrics `train` wrote."""
        checkpoint = ["--checkpoint", str(trained_dir / "checkpoint.json")]
        runs = {
            "eval": ["eval", *checkpoint],
            "attack_checkpoint": ["attack", "--attack", "none", *checkpoint],
            "attack_trained": ["attack", "--attack", "none"],
        }
        expected = json.loads((trained_dir / "metrics.json").read_text())["metrics"]
        for name, head in runs.items():
            out = tmp_path / name
            args = train_args(synth_cfg, out)[1:]
            assert main([*head, *args]) == 0
            assert json.loads((out / "metrics.json").read_text())["metrics"] == expected, name


class TestOneEvaluationPerReport:
    """Each written report costs one evaluation of one trained run:
    training itself evaluates nothing."""

    @pytest.mark.parametrize(
        "head, evaluations",
        [
            (["train"], 1),
            (["attack", "--attack", "drop"], 1),
            (["sweep", "--grid", "attacks", "--seeds", "1", "2"], 6),
            (["sweep", "--grid", "labels", "--fractions", "1.0", "0.5", "--seeds", "1", "2"], 4),
        ],
        ids=["train", "attack", "sweep-attacks", "sweep-labels"],
    )
    def test_evaluations_per_command(self, tmp_path, synth_cfg, monkeypatch, head, evaluations):
        calls = {"evaluate": 0}
        monkeypatch.setattr(
            hgib.metrics, "evaluate", counted(calls, "evaluate", hgib.metrics.evaluate)
        )
        argv = ["--synth", synth_cfg, "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main([*head, *argv]) == 0
        assert calls == {"evaluate": evaluations}


@pytest.fixture
def one_process(monkeypatch):
    """A sweep's trainings in this process, whatever the BLAS thread count:
    a count of calls sees only this process's."""
    monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 1)


@pytest.mark.usefixtures("one_process")
class TestSweep:
    def test_label_grid_table(self, tmp_path, synth_cfg):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--synth",
                synth_cfg,
                "--grid",
                "labels",
                "--fractions",
                "1.0",
                "0.5",
                "--seeds",
                "1",
                "2",
                "--epochs",
                "5",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = json.loads((out / "table.json").read_text())
        jsonschema.validate(table, load_schema("table.schema.json"))
        assert len(table["rows"]) == 2
        assert all(row["status"] == "ok" for row in table["rows"])

    def test_attack_grid_table(self, tmp_path, synth_cfg):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--synth",
                synth_cfg,
                "--grid",
                "attacks",
                "--attacks",
                "none",
                "drop",
                "--seeds",
                "1",
                "2",
                "--epochs",
                "5",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = json.loads((out / "table.json").read_text())
        jsonschema.validate(table, load_schema("table.schema.json"))
        settings = [row["setting"] for row in table["rows"]]
        assert settings == ["none", "drop"]

    def test_empty_grid_usage_error(self, tmp_path, synth_cfg, capsys):
        # argparse rejects an empty --fractions list as a usage error
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--synth",
                    synth_cfg,
                    "--grid",
                    "labels",
                    "--fractions",
                    "--seeds",
                    "1",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert exc.value.code == 2

    def test_failing_setting_errors_alone(self, tmp_path, synth_cfg):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--synth",
                synth_cfg,
                "--grid",
                "labels",
                "--fractions",
                "1.5",
                "0.5",
                "--seeds",
                "1",
                "2",
                "--epochs",
                "2",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        bad, good = json.loads((out / "table.json").read_text())["rows"]
        assert bad == {"setting": 1.5, "status": "error", "error": "seed 1: label_fraction in (0, 1]"}
        assert good["status"] == "ok"

    def test_fraction_labeling_none_errors_alone(self, tmp_path, synth_cfg):
        # 36 training vertices: round(0.01 * 36) = 0 labels none
        argv = ["sweep", "--synth", synth_cfg, "--grid", "labels", "--fractions", "0.01", "0.5"]
        argv += ["--seeds", "1", "2", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        bad, good = json.loads((tmp_path / "table.json").read_text())["rows"]
        error = "seed 1: label fraction 0.01 of 36 training vertices labels none"
        assert bad == {"setting": 0.01, "status": "error", "error": error}
        assert good["status"] == "ok"

    def test_requires_two_seeds(self, tmp_path, synth_cfg, capsys):
        code = main(
            [
                "sweep",
                "--synth",
                synth_cfg,
                "--grid",
                "labels",
                "--seeds",
                "1",
                "--epochs",
                "2",
                "--k",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "at least two --seeds" in capsys.readouterr().err
        assert not (tmp_path / "table.json").exists()

    def test_repeated_seed_rejected(self, tmp_path, synth_cfg, capsys):
        # a repeated seed trains the same run twice and makes every std 0
        argv = ["sweep", "--synth", synth_cfg, "--grid", "attacks", "--seeds", "1", "2", "1"]
        assert main([*argv, "--epochs", "2", "--k", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --seeds repeats 1; each seed runs once\n"
        assert not (tmp_path / "table.json").exists()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        argv = ["sweep", "--features", "nope.csv", "--labels", "missing_labels.csv"]
        argv += ["--grid", "labels", "--seeds", "1", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "error: file not found: nope.csv" in capsys.readouterr().err
        assert not (tmp_path / "table.json").exists()

    def test_csv_read_once(self, tmp_path, synth_cfg, monkeypatch):
        csv_args = synth_csv_args(tmp_path, synth_cfg)
        calls = {"load_csv": 0}
        monkeypatch.setattr(hgib.cli, "load_csv", counted(calls, "load_csv", hgib.cli.load_csv))
        out = tmp_path / "sweep"
        argv = ["sweep", *csv_args, "--grid", "labels", "--fractions", "1.0"]
        argv += ["--seeds", "1", "2", "--epochs", "2", "--k", "5", "--out", str(out)]
        assert main(argv) == 0
        assert calls == {"load_csv": 1}
        rows = json.loads((out / "table.json").read_text())["rows"]
        assert [row["status"] for row in rows] == ["ok"]

    def test_attack_grid_trains_each_seed_once(self, tmp_path, synth_cfg, monkeypatch):
        calls = {"train": 0, "knn": 0, "_propagation": 0}
        monkeypatch.setattr(
            hgib.trainer, "train", counted(calls, "train", hgib.trainer.train)
        )
        monkeypatch.setattr(
            hgib.data,
            "build_knn_hyperedges",
            counted(calls, "knn", hgib.data.build_knn_hyperedges),
        )
        count_builds(monkeypatch, calls, Hypergraph, "_propagation")
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--synth",
                synth_cfg,
                "--grid",
                "attacks",
                "--attacks",
                "none",
                "drop",
                "noise",
                "--seeds",
                "1",
                "2",
                "--epochs",
                "5",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        # two modalities: one kNN graph each, shared by both seeds; the clean
        # P once, and one P per (drop row, seed), none of them the clean P again
        assert calls == {"train": 2, "knn": 2, "_propagation": 3}

        monkeypatch.undo()
        dataset = generate_synthetic(SynthConfig(**json.loads(Path(synth_cfg).read_text())))
        runs = [
            hgib.trainer.train(dataset, TrainConfig(epochs=5, k_neighbors=5, seed=s))
            for s in (1, 2)
        ]
        table = json.loads((out / "table.json").read_text())
        for row in table["rows"]:
            reports = [
                attack_evaluate(
                    run.prepared, run.model_state, AttackConfig(kind=row["setting"], seed=s)
                )
                for s, run in zip((1, 2), runs)
            ]
            assert row["status"] == "ok"
            assert row["metrics"] == aggregate_metrics(reports), row["setting"]

    def test_label_grid_rows_equal_explicit_runs(self, tmp_path, synth_cfg):
        argv = ["sweep", "--synth", synth_cfg, "--grid", "labels", "--fractions", "1.0", "0.5"]
        argv += ["--seeds", "1", "2", "--epochs", "5", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        dataset = generate_synthetic(SynthConfig(**json.loads(Path(synth_cfg).read_text())))
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert [row["setting"] for row in rows] == [1.0, 0.5]
        for row in rows:
            runs = [
                hgib.trainer.train(
                    dataset,
                    TrainConfig(epochs=5, k_neighbors=5, label_fraction=row["setting"], seed=s),
                )
                for s in (1, 2)
            ]
            reports = [hgib.trainer.evaluate_state(r.prepared, r.model_state) for r in runs]
            assert row["status"] == "ok"
            assert row["metrics"] == aggregate_metrics(reports), row["setting"]

    def test_failed_training_fails_its_rows_once(self, tmp_path, synth_cfg, monkeypatch):
        # the attack rows share one training per seed; when it fails, every
        # row fails with it, and no later seed trains again
        calls = {"train": 0}
        monkeypatch.setattr(hgib.trainer, "train", counted(calls, "train", hgib.trainer.train))
        argv = ["sweep", "--synth", synth_cfg, "--grid", "attacks", "--label-fraction", "0.01"]
        argv += ["--seeds", "1", "2", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == {"train": 1}
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        error = "seed 1: label fraction 0.01 of 36 training vertices labels none"
        assert rows == [
            {"setting": s, "status": "error", "error": error} for s in ("none", "drop", "noise")
        ]

    def test_failed_change_evaluates_none_of_its_rows(self, tmp_path, synth_cfg, monkeypatch):
        # 0.01 fails after 0.5 has trained: only 0.5's row is evaluated,
        # once per seed, and the failed fraction is not trained for seed 2
        calls = {"train": 0, "evaluate": 0}
        monkeypatch.setattr(hgib.trainer, "train", counted(calls, "train", hgib.trainer.train))
        evaluate = counted(calls, "evaluate", hgib.perturb.attack_evaluate)
        monkeypatch.setattr(hgib.perturb, "attack_evaluate", evaluate)
        argv = ["sweep", "--synth", synth_cfg, "--grid", "labels", "--fractions", "0.5", "0.01"]
        argv += ["--seeds", "1", "2", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == {"train": 3, "evaluate": 2}
        good, bad = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert good["status"] == "ok" and bad["status"] == "error"

    @pytest.mark.parametrize("train_fails_at", [2, 3])
    def test_each_row_reports_its_first_failure(self, tmp_path, synth_cfg, monkeypatch, train_fails_at):
        # the drop row fails at seed 1 and is not evaluated again; the none
        # row fails when its training does. A drop row's failure at seed 1
        # wins over a training that fails at a later seed.
        calls = {"train": [], "drop": []}
        train, drop = hgib.trainer.train, hgib.perturb.drop_hyperedges

        def failing_train(data, cfg):
            calls["train"].append(cfg.seed)
            if cfg.seed == train_fails_at:
                raise hgib.errors.DataError(f"training refused at seed {cfg.seed}")
            return train(data, cfg)

        def failing_drop(g, fraction, seed):
            calls["drop"].append(seed)
            if seed == 1:
                raise hgib.errors.StructureError("drop refused at seed 1")
            return drop(g, fraction, seed)

        monkeypatch.setattr(hgib.trainer, "train", failing_train)
        monkeypatch.setattr(hgib.perturb, "drop_hyperedges", failing_drop)
        argv = ["sweep", "--synth", synth_cfg, "--grid", "attacks", "--attacks", "none", "drop"]
        argv += ["--seeds", "1", "2", "3", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert rows == [
            {
                "setting": "none",
                "status": "error",
                "error": f"seed {train_fails_at}: training refused at seed {train_fails_at}",
            },
            {"setting": "drop", "status": "error", "error": "seed 1: drop refused at seed 1"},
        ]
        assert calls == {"train": list(range(1, train_fails_at + 1)), "drop": [1]}

    def test_change_stops_at_its_first_failed_seed(self, tmp_path, synth_cfg, monkeypatch):
        # the second change fails at seed 2 and does not train at seed 3;
        # the first trains at every seed and its row is unaffected
        trained = []
        train = hgib.trainer.train

        def failing_train(data, cfg):
            trained.append((cfg.label_fraction, cfg.seed))
            if (cfg.label_fraction, cfg.seed) == (0.5, 2):
                raise hgib.errors.DataError("training refused")
            return train(data, cfg)

        monkeypatch.setattr(hgib.trainer, "train", failing_train)
        argv = ["sweep", "--synth", synth_cfg, "--grid", "labels", "--fractions", "1.0", "0.5"]
        argv += ["--seeds", "1", "2", "3", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert Counter(trained) == Counter([(1.0, 1), (1.0, 2), (1.0, 3), (0.5, 1), (0.5, 2)])
        good, bad = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert good["status"] == "ok"
        assert bad == {"setting": 0.5, "status": "error", "error": "seed 2: training refused"}

    @pytest.mark.parametrize("drop_fraction", ["0", "0.001"])
    def test_drop_of_no_edge_reads_the_clean_p(self, tmp_path, monkeypatch, drop_fraction):
        # --synth default has 720 hyperedges, so both fractions drop none: the
        # drop row reads the clean graph's P, which is built once
        calls = Counter()
        count_builds(monkeypatch, calls, Hypergraph, "_propagation")
        argv = ["sweep", "--synth", "default", "--grid", "attacks", "--attacks", "none", "drop"]
        argv += ["--drop-fraction", drop_fraction, "--seeds", "1", "2", "3", "--epochs", "1"]
        assert main([*argv, "--k", "5", "--out", str(tmp_path)]) == 0
        assert calls == {"_propagation": 1}
        none, drop = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert drop["status"] == "ok" and drop["metrics"] == none["metrics"]

    @pytest.mark.parametrize(
        "grid", [["labels", "--fractions", "1.0", "0.5"], ["attacks", "--attacks", "none", "drop"]]
    )
    def test_class_absent_from_test_split_fails_every_row_before_the_build(
        self, tmp_path, monkeypatch, grid
    ):
        calls = count_knn_and_epochs(monkeypatch)
        argv = ["sweep", "--synth", "default", "--grid", *grid, "--train-fraction", "1.0"]
        argv += ["--seeds", "1", "2", "--epochs", "2", "--k", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == {"knn": 0, "forward": 0}
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert [row["status"] for row in rows] == ["error", "error"]
        assert {row["error"] for row in rows} == {"seed 1: a class is absent from the test split"}

    @pytest.mark.parametrize(
        "grid", [["labels", "--fractions", "1.0", "0.5"], ["attacks", "--attacks", "none", "drop"]]
    )
    def test_failed_build_is_attempted_once(self, tmp_path, synth_cfg, monkeypatch, grid):
        calls = {"build": 0, "train": 0}
        monkeypatch.setattr(hgib.trainer, "build", counted(calls, "build", hgib.trainer.build))
        monkeypatch.setattr(hgib.trainer, "train", counted(calls, "train", hgib.trainer.train))
        argv = ["sweep", "--synth", synth_cfg, "--grid", *grid, "--seeds", "3", "4"]
        assert main([*argv, "--epochs", "2", "--k", "45", "--out", str(tmp_path)]) == 0
        assert calls == {"build": 1, "train": 0}
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        error = "seed 3: k must satisfy 0 <= k < n, got k=45, n=45"
        assert {row["error"] for row in rows} == {error}

    @pytest.mark.parametrize(
        "grid, counts",
        [
            (["labels", "--fractions", "1.0", "0.8", "0.5"], {"train": 6, "P @ X": 1}),
            # the noise attack propagates its own features, once per seed
            (["attacks", "--attacks", "none", "noise"], {"train": 2, "P @ X": 3}),
        ],
    )
    def test_one_structure_per_call(self, tmp_path, synth_cfg, monkeypatch, grid, counts):
        calls = Counter()

        def count_calls(module, attr, name):
            monkeypatch.setattr(module, attr, counted(calls, name, getattr(module, attr)))

        count_calls(hgib.trainer, "train", "train")
        count_calls(hgib.trainer, "normalize", "normalize")
        count_calls(hgib.data, "build_knn_hyperedges", "knn")
        count_builds(monkeypatch, calls, Hypergraph, "_propagation")
        count_builds(monkeypatch, calls, hgib.trainer.Structure, "propagated_features")
        argv = ["sweep", "--synth", synth_cfg, "--grid", *grid, "--seeds", "1", "2"]
        assert main([*argv, "--epochs", "2", "--k", "5", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        assert all(row["status"] == "ok" for row in rows)
        # two modalities: one kNN graph each, one P and one normalization per call
        assert calls == {
            "normalize": 1, "knn": 2, "_propagation": 1, "train": counts["train"],
            "propagated_features": counts["P @ X"],
        }

    @pytest.mark.parametrize(
        "grid, settings",
        [
            (["labels", "--fractions", "1.0", "0.5"], [1.0, 0.5]),
            (["attacks", "--attacks", "none", "drop"], ["none", "drop"]),
        ],
    )
    def test_failed_build_fails_every_row(self, tmp_path, synth_cfg, grid, settings):
        # k = n: the one shared build fails, and each row reports it for the
        # first seed, as when every seed built its own graph
        argv = ["sweep", "--synth", synth_cfg, "--grid", *grid, "--seeds", "3", "4"]
        assert main([*argv, "--epochs", "2", "--k", "45", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "table.json").read_text())["rows"]
        error = "seed 3: k must satisfy 0 <= k < n, got k=45, n=45"
        assert rows == [{"setting": s, "status": "error", "error": error} for s in settings]


@pytest.mark.usefixtures("one_process")
class TestSweepMemory:
    """At n = 1500 one n x n float64 array is 17 MiB, more than anything
    else a sweep holds. The drop rows are evaluated after the clean graph's
    P is released, so each dropped graph's P is built beside no other n x n
    array. No garbage is collected first: the release is by reference count."""

    n = 1500

    def test_dropped_p_built_beside_no_other_n_by_n_array(self, tmp_path, monkeypatch):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps({"n": self.n, "dims": [8, 8], "seed": 3}))
        build = Hypergraph._propagation.func
        peaks = []

        def traced_build(g):
            tracemalloc.reset_peak()
            P = build(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return P

        prop = cached_property(traced_build)
        prop.__set_name__(Hypergraph, "_propagation")
        monkeypatch.setattr(Hypergraph, "_propagation", prop)
        argv = ["sweep", "--synth", str(synth), "--grid", "attacks", "--attacks", "none", "drop"]
        argv += ["--seeds", "1", "2", "--epochs", "1", "--k", "10", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        # the clean P, then one dropped P per seed. While each dropped P is
        # built, the sweep holds that P, the dataset, the member lists, the
        # model states and one block's buffers: well under half an n x n array
        p_bytes = self.n * self.n * 8
        assert len(peaks) == 3
        assert max(peaks[1:]) < p_bytes + p_bytes // 2, [peak / 2**20 for peak in peaks]


class TwoArgumentError(Exception):
    """An exception that pickles but cannot be rebuilt: a pickle holds its
    one message, and its __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}: {b}")


def _fail_at(monkeypatch, at, exc):
    """trainer.train raising `exc` for the (label fraction, seed) pairs in `at`."""
    train = hgib.trainer.train

    def failing_train(data, cfg):
        if (cfg.label_fraction, cfg.seed) in at:
            raise exc
        return train(data, cfg)

    monkeypatch.setattr(hgib.trainer, "train", failing_train)


class TestSweepFanOut:
    """A sweep deals its runs round-robin over forked processes when the
    BLAS threads leave cores idle; the table is the one-process table, and
    no child outlives the call."""

    LABELS = ["--grid", "labels", "--fractions", "1.0", "0.5", "--seeds", "1", "2", "3"]

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def two_processes(self, monkeypatch):
        monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 2)

    def sweep(self, tmp_path, synth_cfg, out, *grid):
        argv = ["sweep", "--synth", synth_cfg, *grid, "--epochs", "2", "--k", "5"]
        return main([*argv, "--out", str(tmp_path / out)])

    def test_table_byte_identical_to_one_process(self, tmp_path, monkeypatch):
        # at n = 240 the bits do not depend on the BLAS thread count, so a
        # one-thread run that fans out must write the default-thread table
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        if hgib.cli._workers(2, hgib.cli._FORK_MIN_EPOCHS) < 2:
            pytest.skip("one usable CPU: the sweep cannot fan out")
        argv = ["sweep", "--synth", "default", "--grid", "attacks", "--seeds", "1", "2"]
        argv += ["--epochs", str(hgib.cli._FORK_MIN_EPOCHS), "--k", "5", "--lr", "1e-3"]
        src = str(Path(hgib.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "hgib.cli", *argv, "--out", str(tmp_path / "forked")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 1)
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        forked = (tmp_path / "forked" / "table.json").read_bytes()
        assert forked == (tmp_path / "one" / "table.json").read_bytes()
        rows = json.loads(forked)["rows"]
        assert [row["status"] for row in rows] == ["ok"] * 3

    @pytest.mark.parametrize(
        "at",
        [{(1.0, 2)}, {(1.0, 1)}, {(0.5, 3)}, {(1.0, 2), (0.5, 1)}],
        ids=["child", "parent-first-seed", "parent-last-seed", "both"],
    )
    def test_failed_run_gives_the_one_process_row(self, tmp_path, synth_cfg, monkeypatch, at):
        # three seeds over two processes: the parent trains jobs 0, 2 and 4
        # of (1.0, 1), (1.0, 2), (1.0, 3), (0.5, 1), (0.5, 2), (0.5, 3)
        _fail_at(monkeypatch, at, hgib.errors.DataError("training refused"))
        monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 1)
        assert self.sweep(tmp_path, synth_cfg, "one", *self.LABELS) == 0
        monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 2)
        assert self.sweep(tmp_path, synth_cfg, "two", *self.LABELS) == 0
        table = (tmp_path / "two" / "table.json").read_bytes()
        assert table == (tmp_path / "one" / "table.json").read_bytes()
        assert "error" in [row["status"] for row in json.loads(table)["rows"]]

    @pytest.mark.usefixtures("two_processes")
    def test_exception_in_a_child_is_raised(self, tmp_path, synth_cfg, monkeypatch, capfd):
        _fail_at(monkeypatch, {(1.0, 2)}, RuntimeError("bug at seed 2"))
        with pytest.raises(RuntimeError, match=r"sweep worker \d+ sent no runs \(wait status 256\)"):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)
        # the child printed its own traceback before it exited 1
        err = capfd.readouterr().err
        assert "in failing_train" in err and "RuntimeError: bug at seed 2" in err
        assert not (tmp_path / "out" / "table.json").exists()

    @pytest.mark.usefixtures("two_processes")
    @pytest.mark.parametrize(
        "exc",
        [RuntimeError("bug at seed 2", lambda: None), TwoArgumentError("bug at seed 2", "b")],
        ids=["not-picklable", "not-rebuilt"],
    )
    def test_worker_bug_that_pickling_loses(self, tmp_path, synth_cfg, monkeypatch, capfd, exc):
        # neither exception could come back whole: one cannot be pickled,
        # the other cannot be rebuilt from its pickle
        _fail_at(monkeypatch, {(1.0, 2)}, exc)
        with pytest.raises(RuntimeError, match=r"sweep worker \d+ sent no runs"):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)
        err = capfd.readouterr().err
        assert "in failing_train" in err and "bug at seed 2" in err

    def test_exception_in_one_process_is_raised_at_once(self, tmp_path, synth_cfg, monkeypatch):
        # at one worker the first run's exception stops the sweep: no other
        # change's run is trained before it is raised
        _fail_at(monkeypatch, {(1.0, 1)}, RuntimeError("bug at seed 1"))
        calls = {"train": 0}
        monkeypatch.setattr(hgib.trainer, "train", counted(calls, "train", hgib.trainer.train))
        monkeypatch.setattr(hgib.cli, "_workers", lambda jobs, epochs: 1)
        with pytest.raises(RuntimeError, match="bug at seed 1"):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)
        assert calls == {"train": 1}

    @pytest.mark.usefixtures("two_processes")
    def test_child_that_sends_nothing_is_an_error(self, tmp_path, synth_cfg, monkeypatch):
        parent = os.getpid()
        train = hgib.trainer.train

        def dying_train(data, cfg):
            if os.getpid() != parent:
                os._exit(3)
            return train(data, cfg)

        monkeypatch.setattr(hgib.trainer, "train", dying_train)
        with pytest.raises(RuntimeError, match="sent no runs"):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)

    @pytest.mark.usefixtures("two_processes")
    def test_child_killed_while_writing_is_an_error(self, tmp_path, synth_cfg, monkeypatch):
        # as under the OOM killer: the child writes half its payload, then dies
        parent, fdopen = os.getpid(), os.fdopen

        class HalfWriter:
            def __init__(self, fd):
                self.fd = fd

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, payload):
                os.write(self.fd, payload[: len(payload) // 2])
                os._exit(9)

        def half_in_the_child(fd, mode="r", *args, **kwargs):
            if os.getpid() != parent and mode == "wb":
                return HalfWriter(fd)
            return fdopen(fd, mode, *args, **kwargs)

        monkeypatch.setattr(os, "fdopen", half_in_the_child)
        with pytest.raises(RuntimeError, match=r"sweep worker \d+ sent no runs \(wait status 2304\)"):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)

    @pytest.mark.usefixtures("two_processes")
    def test_children_reaped_when_the_parent_share_raises(self, tmp_path, synth_cfg, monkeypatch):
        class Interrupted(BaseException):
            pass

        _fail_at(monkeypatch, {(1.0, 1)}, Interrupted())
        with pytest.raises(Interrupted):
            self.sweep(tmp_path, synth_cfg, "out", *self.LABELS)


class TestBlasThreads:
    """`_workers` divides the usable CPUs by the thread count OpenBLAS took
    when it loaded, read from the environment by OpenBLAS's own rule."""

    VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.mark.parametrize(
        "values, threads",
        [
            ((None, None, None), 4),
            (("1", "3", "2"), 1),
            (("0", "3", "2"), 3),
            (("-1", None, "2"), 2),
            (("x", "", " 2 "), 2),
            (("8", None, None), 4),
        ],
        ids=["unset", "openblas-first", "zero-skipped", "negative-skipped", "read-as-atoi", "capped"],
    )
    def test_environment_rule(self, monkeypatch, values, threads):
        for var, value in zip(self.VARS, values):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert hgib.cli._blas_threads(4) == threads

    def test_rule_matches_the_loaded_openblas(self):
        get_num_threads = None
        for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
            get_num_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
            if get_num_threads is not None:
                break
        if get_num_threads is None:
            pytest.skip("numpy's bundled OpenBLAS does not export scipy_openblas_get_num_threads64_")
        get_num_threads.restype = ctypes.c_int
        cpus = len(os.sched_getaffinity(0))
        assert hgib.cli._blas_threads(cpus) == get_num_threads()

    def test_no_fork_below_the_cut_off(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert hgib.cli._workers(8, hgib.cli._FORK_MIN_EPOCHS - 1) == 1
        cpus = len(os.sched_getaffinity(0))
        assert hgib.cli._workers(8, hgib.cli._FORK_MIN_EPOCHS) == min(8, cpus)
        assert hgib.cli._workers(1, hgib.cli._FORK_MIN_EPOCHS) == 1


class TestAttackSettingsCheckedFirst:
    @pytest.mark.parametrize("command", ["attack", "sweep"])
    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--rho", "-1", "rho >= 0 required"),
            ("--rho", "inf", "rho must be finite, got inf"),
            ("--drop-fraction", "1.5", "drop_fraction in [0, 1)"),
        ],
    )
    def test_bad_setting_exit_2_before_any_work(
        self, tmp_path, synth_cfg, capsys, monkeypatch, command, flag, value, error
    ):
        # the attack settings are checked before the dataset is read: no
        # training spent on a usage error, and no table of failed rows
        calls = Counter()
        for module, name in [
            (hgib.cli, "generate_synthetic"), (hgib.data, "build_knn_hyperedges"), (hgib.trainer, "train"),
        ]:
            monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
        argv = [command, "--synth", synth_cfg, "--epochs", "2", "--k", "5", flag, value]
        extra = ["--attack", "noise"] if command == "attack" else ["--grid", "attacks", "--seeds", "1", "2"]
        assert main([*argv, *extra, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert calls == Counter()
        assert os.listdir(tmp_path) == []

    def test_impossible_drop_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        # modality 0 alone at k=5: some vertices are in no edge but their own,
        # so every draw of 20 % of the edges uncovers one of them
        def no_train(*args):
            raise AssertionError("trained before the attack was drawn")

        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data)]) == 0
        monkeypatch.setattr(hgib.trainer, "train", no_train)
        argv = ["attack", "--features", str(data / "modality_0.csv"), "--labels", str(data / "labels.csv")]
        assert main([*argv, "--k", "5", "--attack", "drop", "--out", str(tmp_path / "attack")]) == 2
        assert capsys.readouterr().err == "error: could not drop hyperedges without uncovering a vertex\n"
        assert not (tmp_path / "attack" / "metrics.json").exists()


def _members(record, name):
    """A run record's member list, decoded from its base64 `<i4` bytes."""
    return np.frombuffer(base64.b64decode(record["graph"][name], validate=True), "<i4")


def _vertex_count(record):
    """A run record's vertex count: the number of its labels."""
    return len(base64.b64decode(record["dataset"]["labels"], validate=True)) // 4


def _edit_features(record, edit):
    """Replace the bytes of a run record's features blob by edit(bytes)."""
    data = base64.b64decode(record["dataset"]["features"], validate=True)
    record["dataset"]["features"] = base64.b64encode(edit(data)).decode()


def _one_value_changed(data):
    values = np.frombuffer(data, "<f8").copy()
    values[7] += 0.25
    return values.tobytes()



class TestCheckpointKnowsItsRun:
    """`train` writes a run record beside its checkpoint. `eval` and
    `attack --checkpoint` take the graph from it, so they build no kNN
    graph, and refuse a call whose graph or test split would differ."""

    @pytest.fixture(scope="class")
    def csv_run(self, tmp_path_factory, synth_cfg):
        """A run trained from CSV files at k=5, seed 1, and its data flags."""
        tmp_path = tmp_path_factory.mktemp("csv_run")
        data = synth_csv_args(tmp_path, synth_cfg)
        assert main(["train", *data, "--epochs", "2", "--k", "5", "--seed", "1", "--out", str(tmp_path / "run")]) == 0
        return tmp_path / "run", data

    @pytest.fixture
    def knn_calls(self, monkeypatch):
        calls = {"knn": 0}
        monkeypatch.setattr(
            hgib.data, "build_knn_hyperedges", counted(calls, "knn", hgib.data.build_knn_hyperedges)
        )
        return calls

    @staticmethod
    def checkpoint_args(run, data, *extra):
        return [*data, "--k", "5", "--seed", "1", "--checkpoint", str(run / "checkpoint.json"), *extra]

    @pytest.mark.parametrize("source", ["synth", "csv"])
    def test_stored_graph_equals_a_fresh_build(self, tmp_path, synth_cfg, source):
        if source == "synth":
            data, dataset = ["--synth", "default"], generate_synthetic(SynthConfig(seed=1))
        else:
            data = synth_csv_args(tmp_path, synth_cfg)
            dataset = hgib.data.load_csv(data[1:-2], data[-1])
        out = tmp_path / "run"
        assert main(["train", *data, "--epochs", "1", "--k", "5", "--out", str(out)]) == 0
        record = json.loads((out / "checkpoint.meta.json").read_text())
        _, fresh = hgib.data.fuse_and_build(hgib.data.normalize(dataset), 5)
        assert _vertex_count(record) == fresh.num_vertices
        assert np.array_equal(_members(record, "indptr"), fresh.indptr)
        assert np.array_equal(_members(record, "indices"), fresh.indices)

    def test_record_is_reproducible(self, tmp_path, csv_run):
        run, data = csv_run
        out = tmp_path / "again"
        assert main(["train", *data, "--epochs", "2", "--k", "5", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "checkpoint.meta.json").read_bytes() == (run / "checkpoint.meta.json").read_bytes()

    @pytest.mark.parametrize(
        "head", [["eval"], ["attack", "--attack", "none"], ["attack", "--attack", "drop"], ["attack", "--attack", "noise"]],
        ids=["eval", "attack-none", "attack-drop", "attack-noise"],
    )
    def test_no_knn_graph_built(self, tmp_path, csv_run, knn_calls, head):
        run, data = csv_run
        assert main([*head, *self.checkpoint_args(run, data, "--out", str(tmp_path))]) == 0
        assert knn_calls == {"knn": 0}
        if head[-1] in ("eval", "none"):
            got = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
            assert got == json.loads((run / "metrics.json").read_text())["metrics"]

    @staticmethod
    def lf_copies(tmp_path, data):
        """The data flags of copies of the CSV files, which `hgib synth`
        writes with CRLF line ends, with LF ones: the same values in other
        bytes."""
        copies = []
        for name in data[1:-2] + data[-1:]:
            content = Path(name).read_bytes()
            assert b"\r\n" in content
            copies.append(tmp_path / f"lf-{Path(name).name}")
            copies[-1].write_bytes(content.replace(b"\r\n", b"\n"))
        return ["--features", *map(str, copies[:-1]), "--labels", str(copies[-1])]

    @pytest.mark.parametrize(
        "head", [["eval"], ["attack", "--attack", "none"], ["attack", "--attack", "drop"], ["attack", "--attack", "noise"]],
        ids=["eval", "attack-none", "attack-drop", "attack-noise"],
    )
    def test_run_inputs_are_not_parsed(self, tmp_path, csv_run, monkeypatch, head):
        # the run's own files hash to the record's inputs_sha256, so they are
        # never parsed; LF copies hash otherwise, are parsed once and pass
        # the fingerprint; both write the same bytes
        run, data = csv_run
        parses = {"parse": 0}
        parse = hgib.data.CsvInputs.dataset

        def refused(self):
            raise AssertionError("a CSV file was parsed")

        monkeypatch.setattr(hgib.data.CsvInputs, "dataset", refused)
        assert main([*head, *self.checkpoint_args(run, data, "--out", str(tmp_path / "hit"))]) == 0
        monkeypatch.setattr(hgib.data.CsvInputs, "dataset", counted(parses, "parse", parse))
        lf = self.lf_copies(tmp_path, data)
        assert main([*head, *self.checkpoint_args(run, lf, "--out", str(tmp_path / "miss"))]) == 0
        assert parses == {"parse": 1}
        hit, miss = ((tmp_path / out / "metrics.json").read_bytes() for out in ("hit", "miss"))
        assert hit == miss

    def test_synthetic_run_records_no_inputs_sha256(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--synth", "default", "--epochs", "1", "--k", "5", "--out", str(out)]) == 0
        assert json.loads((out / "checkpoint.meta.json").read_text())["inputs_sha256"] is None
        argv = ["eval", "--synth", "default", "--epochs", "1", "--k", "5"]
        assert main([*argv, "--checkpoint", str(out / "checkpoint.json"), "--out", str(tmp_path / "eval")]) == 0
        assert (tmp_path / "eval" / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    @pytest.mark.parametrize("layout", ["with-copies", "without-copies"])
    def test_record_layouts_load(self, tmp_path, csv_run, knn_calls, layout):
        # records written before the vertex count and input width were left
        # to the labels and widths hold them as `graph.num_vertices` and
        # `in_dim`: such a record still loads, and so does one without them
        run, data = csv_run
        record = json.loads((run / "checkpoint.meta.json").read_text())
        record.pop("in_dim", None)
        record["graph"].pop("num_vertices", None)
        if layout == "with-copies":
            record["in_dim"] = sum(record["dataset"]["widths"])
            record["graph"]["num_vertices"] = _vertex_count(record)
        edited = tmp_path / "edited"
        edited.mkdir()
        (edited / "checkpoint.json").write_bytes((run / "checkpoint.json").read_bytes())
        (edited / "checkpoint.meta.json").write_text(json.dumps(record))
        argv = ["eval", *self.checkpoint_args(edited, data, "--epochs", "2", "--out", str(tmp_path / "out"))]
        assert main(argv) == 0
        assert (tmp_path / "out" / "metrics.json").read_bytes() == (run / "metrics.json").read_bytes()
        assert knn_calls == {"knn": 0}

    @pytest.mark.parametrize("command", [["eval"], ["attack", "--attack", "drop"]], ids=["eval", "attack"])
    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--k", "4"], "checkpoint's run has k_neighbors=5, this call k_neighbors=4"),
            (["--seed", "2"], "checkpoint's run has seed=1, this call seed=2"),
            (["--train-fraction", "0.7"], "checkpoint's run has train_fraction=0.8, this call train_fraction=0.7"),
        ],
        ids=["k", "seed", "train_fraction"],
    )
    def test_other_graph_or_split_exit_2(self, tmp_path, csv_run, knn_calls, capsys, command, flags, error):
        run, data = csv_run
        assert main([*command, *self.checkpoint_args(run, data, *flags, "--out", str(tmp_path))]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert knn_calls == {"knn": 0}
        assert not (tmp_path / "metrics.json").exists()

    def test_fields_that_change_neither_are_not_compared(self, tmp_path, csv_run, knn_calls):
        run, data = csv_run
        flags = ["--label-fraction", "0.5", "--epochs", "7", "--lr", "0.1", "--mu", "0", "--xi", "0"]
        assert main(["eval", *self.checkpoint_args(run, data, *flags, "--out", str(tmp_path))]) == 0
        got = json.loads((tmp_path / "metrics.json").read_text())["metrics"]
        assert got == json.loads((run / "metrics.json").read_text())["metrics"]
        assert knn_calls == {"knn": 0}

    @pytest.mark.parametrize("change", ["value", "merged_modalities"])
    @pytest.mark.parametrize("command", [["eval"], ["attack", "--attack", "noise"]], ids=["eval", "attack"])
    def test_other_input_exit_2(self, tmp_path, csv_run, knn_calls, capsys, command, change):
        run, data = csv_run
        modalities = [Path(f).read_text().splitlines() for f in data[1:-2]]
        if change == "value":
            # one feature value of one vertex, in a file that is otherwise the same
            first, *rest = modalities[0][1].split(",")
            modalities[0][1] = ",".join([first, repr(float(rest[0]) + 0.5), *rest[1:]])
        else:
            # the same columns as one modality: the same fused features, another graph
            modalities = [[a + "," + b.split(",", 1)[1] for a, b in zip(*modalities)]]
        features = []
        for i, lines in enumerate(modalities):
            features.append(tmp_path / f"m{i}.csv")
            features[-1].write_text("\n".join(lines) + "\n")
        changed = ["--features", *map(str, features), "--labels", data[-1]]
        assert main([*command, *self.checkpoint_args(run, changed, "--out", str(tmp_path / "out"))]) == 2
        assert capsys.readouterr().err == "error: checkpoint's run had other input data: its fingerprint differs\n"
        assert knn_calls == {"knn": 0}

    @pytest.mark.parametrize("command", [["eval"], ["attack", "--attack", "drop"]], ids=["eval", "attack"])
    def test_missing_record_exit_2(self, tmp_path, csv_run, knn_calls, capsys, command):
        run, data = csv_run
        old = tmp_path / "old"
        old.mkdir()
        (old / "checkpoint.json").write_bytes((run / "checkpoint.json").read_bytes())
        assert main([*command, *self.checkpoint_args(old, data, "--out", str(tmp_path / "out"))]) == 2
        record = old / "checkpoint.meta.json"
        assert capsys.readouterr().err == (
            f"error: no run record at {record}; a checkpoint written without one must be retrained\n"
        )
        assert knn_calls == {"knn": 0}

    @pytest.mark.parametrize("command", [["eval"], ["attack", "--attack", "drop"]], ids=["eval", "attack"])
    def test_other_runs_checkpoint_exit_2(self, tmp_path, csv_run, knn_calls, capsys, command):
        # run B's checkpoint beside run A's record would score B's model on
        # A's test split, which overlaps B's training vertices
        run, data = csv_run
        other, mixed = tmp_path / "other", tmp_path / "mixed"
        argv = ["train", *data, "--epochs", "2", "--k", "5", "--seed", "2", "--out", str(other)]
        assert main(argv) == 0
        mixed.mkdir()
        (mixed / "checkpoint.json").write_bytes((other / "checkpoint.json").read_bytes())
        (mixed / "checkpoint.meta.json").write_bytes((run / "checkpoint.meta.json").read_bytes())
        capsys.readouterr()
        knn_calls["knn"] = 0
        assert main([*command, *self.checkpoint_args(mixed, data, "--out", str(tmp_path / "out"))]) == 2
        assert capsys.readouterr().err == (
            f"error: {mixed / 'checkpoint.json'} is not the checkpoint its run record was "
            "written with: its sha256 differs\n"
        )
        assert knn_calls == {"knn": 0}
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_malformed_record_refused_before_the_checkpoint_hash(self, tmp_path, csv_run, capsys):
        # the record is read before it is compared with the call: a record
        # whose graph leaves a vertex in no hyperedge, beside the run's
        # checkpoint written in other bytes, is malformed first
        run, data = csv_run
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        checkpoint = json.loads((run / "checkpoint.json").read_text())
        (mixed / "checkpoint.json").write_text(json.dumps(checkpoint, indent=1))
        record = json.loads((run / "checkpoint.meta.json").read_text())
        n = _vertex_count(record)
        record["graph"].update({
            name: base64.b64encode(members.astype("<i4")).decode()
            for name, members in (("indptr", np.arange(n + 1)), ("indices", np.zeros(n)))
        })
        (mixed / "checkpoint.meta.json").write_text(json.dumps(record))
        assert main(["eval", *self.checkpoint_args(mixed, data, "--out", str(tmp_path / "out"))]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed run record {mixed / 'checkpoint.meta.json'}: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("checkpoint_sha256"),
            lambda r: r.pop("graph"),
            lambda r: r["config"].pop("seed"),
            lambda r: r["graph"].update(indices=[0.5] * len(r["graph"]["indices"])),
            # the member lists as JSON ints, as records were written before base64
            lambda r: r["graph"].update(
                {name: _members(r, name).tolist() for name in ("indptr", "indices")}
            ),
            lambda r: r["graph"].update(indices="not base64!"),
            lambda r: r["graph"].update(indices=base64.b64encode(b"\0" * 6).decode()),
            # the last edge's largest member becomes n
            lambda r: r["graph"].update(indices=base64.b64encode(
                np.append(_members(r, "indices")[:-1], _vertex_count(r)).astype("<i4")
            ).decode()),
            # n one-member edges, each holding vertex 0: vertex 1 is in none
            lambda r: r["graph"].update({
                name: base64.b64encode(members.astype("<i4")).decode()
                for name, members in (
                    ("indptr", np.arange(_vertex_count(r) + 1)),
                    ("indices", np.zeros(_vertex_count(r))),
                )
            }),
            # records written before they held the normalized input
            lambda r: r.pop("dataset"),
            lambda r: r.pop("inputs_sha256"),
            # input arrays that do not reproduce the record's fingerprint
            lambda r: _edit_features(r, _one_value_changed),
            lambda r: _edit_features(r, lambda data: data[:-1]),
            lambda r: r["dataset"].update(widths=r["dataset"]["widths"][::-1]),
            lambda r: r["dataset"].update(labels=base64.b64encode(
                np.roll(np.frombuffer(base64.b64decode(r["dataset"]["labels"]), "<i4"), 1)
            ).decode()),
        ],
        ids=[
            "no-checkpoint-sha256", "no-graph", "no-seed", "float-members", "int-lists",
            "not-base64", "not-int32-bytes", "member-index-n", "uncovered-vertex",
            "no-dataset", "no-inputs-sha256", "feature-value", "features-byte-short",
            "widths-reordered", "labels-rolled",
        ],
    )
    def test_malformed_record_exit_2(self, tmp_path, csv_run, knn_calls, capsys, monkeypatch, edit):
        # eval and a drop attack both refuse the record, naming it, before
        # any drop is drawn
        drops = {"drop": 0}
        monkeypatch.setattr(
            hgib.perturb, "drop_hyperedges", counted(drops, "drop", hgib.perturb.drop_hyperedges)
        )
        run, data = csv_run
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "checkpoint.json").write_bytes((run / "checkpoint.json").read_bytes())
        record = json.loads((run / "checkpoint.meta.json").read_text())
        edit(record)
        (bad / "checkpoint.meta.json").write_text(json.dumps(record))
        path = bad / "checkpoint.meta.json"
        for command in (["eval"], ["attack", "--attack", "drop"]):
            argv = [*command, *self.checkpoint_args(bad, data, "--out", str(tmp_path / "out"))]
            assert main(argv) == 2, command
            assert capsys.readouterr().err.startswith(f"error: malformed run record {path}: ")
        assert knn_calls == {"knn": 0}
        assert drops == {"drop": 0}
        assert not (tmp_path / "out" / "metrics.json").exists()
