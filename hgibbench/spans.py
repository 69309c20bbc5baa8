"""Span tracing of the package from outside it.

`Tracer.install` replaces the package's public functions by timing
wrappers at every module attribute that holds them, because several
modules import by name (`trainer.fuse_and_build`, `perturb.normalize`,
`cli.fuse_and_build`, `data.build_knn_hyperedges`, `trainer.adam_step`).
`uninstall` puts the originals back. The program itself carries no hooks.

Layer functions become spans (name, start, end, parent) kept in memory.
Autodiff ops are too many for spans, so they are counted and timed per
name; only an op's outermost call counts, so an op built from other ops
counts once.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) of the function it wraps
FUNCTIONS = {
    "data.load_csv": ("hgib.data", "load_csv"),
    "data.normalize": ("hgib.data", "normalize"),
    "data.fuse_and_build": ("hgib.data", "fuse_and_build"),
    "hypergraph.build_knn": ("hgib.hypergraph", "build_knn_hyperedges"),
    "hypergraph.concat": ("hgib.hypergraph", "concat_hypergraphs"),
    "trainer.train": ("hgib.trainer", "train"),
    "trainer.split_and_mask": ("hgib.trainer", "split_and_mask"),
    "model.forward": ("hgib.model", "forward"),
    "model.conv": ("hgib.model", "hgnnp_layer_forward"),
    "model.save_checkpoint": ("hgib.model", "save_checkpoint"),
    "model.load_checkpoint": ("hgib.model", "load_checkpoint"),
    "losses.total_loss": ("hgib.losses", "total_loss"),
    "losses.ce": ("hgib.losses", "cross_entropy"),
    "losses.focal": ("hgib.losses", "focal_loss"),
    "losses.ib": ("hgib.losses", "hgib_loss"),
    "autodiff.adam_step": ("hgib.autodiff", "adam_step"),
    "metrics.evaluate": ("hgib.metrics", "evaluate"),
    "perturb.attack_evaluate": ("hgib.perturb", "attack_evaluate"),
    "perturb.drop_hyperedges": ("hgib.perturb", "drop_hyperedges"),
    "perturb.inject_feature_noise": ("hgib.perturb", "inject_feature_noise"),
}
# span name -> (module, class, method)
METHODS = {
    "autodiff.backward": ("hgib.autodiff", "Tensor", "backward"),
    "hypergraph.propagation": ("hgib.hypergraph", "Hypergraph", "propagation"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_seconds: dict[str, float] = defaultdict(float)
        self._op_depth = 0
        self._ops_total = 0
        # filled during the first training of a traced round only
        self._trainings = 0
        self._capturing = False
        self.epoch_marks: list[tuple[int, int]] = []   # (ops, matmuls) at each Adam step
        self.conv_args: dict[int, tuple] = {}          # layer -> (args, kwargs)
        self.loss_args: tuple | None = None
        self._conv_seen: dict[int, int] = defaultdict(int)
        self._graphs_built = weakref.WeakSet()
        self.incidence_bytes = 0
        self.propagation_bytes = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_op(self, name, fn):
        def op(*args, **kwargs):
            if self._op_depth:
                return fn(*args, **kwargs)
            self._op_depth = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_seconds[name] += time.perf_counter() - start
                self.op_calls[name] += 1
                self._ops_total += 1
                self._op_depth = 0

        return op

    def _wrap_train(self, fn):
        def train(*args, **kwargs):
            self._capturing = self._trainings == 0
            self._trainings += 1
            try:
                with self.span("trainer.train"):
                    return fn(*args, **kwargs)
            finally:
                self._capturing = False

        return train

    def _wrap_conv(self, fn):
        def conv(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            layer = self._conv_seen[parent]
            self._conv_seen[parent] += 1
            if self._capturing:
                self.conv_args[layer] = (args, kwargs)
            with self.span(f"model.conv{layer}"):
                return fn(*args, **kwargs)

        return conv

    def _wrap_loss(self, fn):
        def total_loss(*args, **kwargs):
            if self._capturing:
                self.loss_args = (args, kwargs)
            with self.span("losses.total_loss"):
                return fn(*args, **kwargs)

        return total_loss

    def _wrap_adam(self, fn):
        def adam_step(*args, **kwargs):
            if self._capturing:
                self.epoch_marks.append((self._ops_total, self.op_calls["matmul"]))
            with self.span("autodiff.adam_step"):
                return fn(*args, **kwargs)

        return adam_step

    def _wrap_concat(self, fn):
        def concat(*args, **kwargs):
            with self.span("hypergraph.concat"):
                out = fn(*args, **kwargs)
            incidence = getattr(out, "incidence", None)
            self.incidence_bytes = max(self.incidence_bytes, getattr(incidence, "nbytes", 0))
            return out

        return concat

    def _wrap_propagation(self, fn):
        # Only the first call on a graph builds the matrix; later calls
        # return the cached one and are not spans.
        def propagation(graph, *args, **kwargs):
            if graph in self._graphs_built:
                return fn(graph, *args, **kwargs)
            self._graphs_built.add(graph)
            with self.span("hypergraph.propagation"):
                out = fn(graph, *args, **kwargs)
            self.propagation_bytes = max(self.propagation_bytes, getattr(out, "nbytes", 0))
            return out

        return propagation

    # ------------------------------------------------------ (un)install

    def install(self) -> None:
        special = {
            "trainer.train": self._wrap_train,
            "model.conv": self._wrap_conv,
            "losses.total_loss": self._wrap_loss,
            "autodiff.adam_step": self._wrap_adam,
            "hypergraph.concat": self._wrap_concat,
        }
        wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrap = special.get(name)
            wrappers[id(fn)] = (fn, wrap(fn) if wrap else self._wrap(name, fn))
        autodiff = importlib.import_module("hgib.autodiff")
        for attr, fn in vars(autodiff).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == autodiff.__name__
                and not attr.startswith("_")
                and id(fn) not in wrappers
            ):
                wrappers[id(fn)] = (fn, self._wrap_op(attr, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "hgib" and not modname.startswith("hgib."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, (module, cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__.get(meth)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = (
                self._wrap_propagation(fn)
                if name == "hypergraph.propagation"
                else self._wrap(name, fn)
            )
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- results

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self, name: str) -> list[float]:
        """Per span of this name: its duration minus its children's."""
        children = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        return [
            s[2] - s[1] - children[i] for i, s in enumerate(self.spans) if s[0] == name
        ]

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
                    )
                    + "\n"
                )
