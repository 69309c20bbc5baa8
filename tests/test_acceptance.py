"""Acceptance gate: every criterion asserted at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The expensive full-protocol runs are shared session fixtures.
"""

import json
import time

import numpy as np
import pytest

from hgib import (
    AttackConfig,
    LossConfig,
    SynthConfig,
    TrainConfig,
    attack_evaluate,
    generate_synthetic,
    train,
)
from hgib import autodiff as ad
from hgib import losses, model
from hgib.autodiff import AdamState, Tensor, adam_step
from hgib.cli import main as cli_main
from hgib.data import fuse_and_build, normalize
from hgib.hypergraph import Hypergraph
from hgib.metrics import auc_binary
from hgib.seeding import substream
from hgib.trainer import aggregate_metrics, evaluate_state

from conftest import ACCEPTANCE_SEEDS, random_hypergraph
from oracles import (
    auc_trapezoid,
    finite_difference_grads,
    matrix_conv_oracle,
    spatial_conv_oracle,
)


def report(num, text):
    print(f"\n[criterion {num}] PASS - {text}")


def test_criterion_1_gradient_correctness():
    """Analytic vs central finite-difference gradients on 20 seeded graphs
    covering every op, rel. error <= 1e-4, under 10 s."""
    started = time.perf_counter()
    labels = np.array([0, 1, 2, 0, 1, 2])
    mask = np.ones(6, dtype=bool)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        graph = Hypergraph(random_hypergraph(rng, 6))
        fused = Tensor(rng.uniform(0.1, 1.0, size=(6, 3)))
        state = model.init_params(3, [4, 4], 3, substream(seed, "init"))
        a = Tensor(rng.uniform(0.2, 2.0, size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)) + 0.1, requires_grad=True)
        leaves = state.params + [a, b]

        def build():
            logits, per_layer = model.forward(fused, graph, state)
            loss = losses.total_loss(
                logits, per_layer, labels, mask, LossConfig()
            )
            # the op the objective does not reach: tsum
            extras = ad.tsum(ad.matmul(ad.matmul(a, b), ad.matmul(b, a)))
            return ad.weighted_sum([loss, extras], [1.0, 0.5])

        loss = build()
        loss.backward()
        numeric = finite_difference_grads(lambda: build().data[0, 0], leaves)
        for leaf, fd in zip(leaves, numeric):
            err = np.abs(leaf.grad - fd) / (1.0 + np.abs(fd))
            worst = max(worst, err.max())
            assert (err <= 1e-4).all(), f"seed {seed}: rel err {err.max():.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"20 graphs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_convolution_oracle():
    """Layer forward equals sigma(Dv^-1 H De^-1 H^T X Theta) on 50 random
    instances within 1e-10 absolute, under 5 s."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 31))
        H = random_hypergraph(rng, n)
        X = rng.normal(size=(n, int(rng.integers(1, 8))))
        theta = rng.normal(size=(X.shape[1], int(rng.integers(1, 6))))
        ours = model.hgnnp_layer_forward(
            Tensor(X), Hypergraph(H), Tensor(theta)
        ).data
        for oracle in (matrix_conv_oracle, spatial_conv_oracle):
            err = np.abs(ours - oracle(H, X, theta)).max()
            worst = max(worst, err)
            assert err <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"50 instances, worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_loss_closed_forms():
    kl_half = float(losses.kl_sigmoid_half(Tensor([[0.0]])).data[0, 0])
    assert kl_half == pytest.approx(0.0, abs=1e-12)
    kl_09 = float(losses.kl_sigmoid_half(Tensor([[np.log(9.0)]])).data[0, 0])   # sigmoid = 0.9
    assert kl_09 == pytest.approx(0.36806, abs=1e-5)
    # p(label 0) = 1 / (1 + 3) = 0.25; the focal term is the mu = 1 excess
    quarter = Tensor([[0.0, np.log(3.0)]])
    focal = float(
        losses.ce_focal_loss(quarter, [0], [True], 1.0, 2.0, 0.5).data[0, 0]
        - losses.ce_focal_loss(quarter, [0], [True], 0.0, 2.0, 0.5).data[0, 0]
    )
    assert focal == pytest.approx(2.4012, abs=1e-4)
    ce = float(
        losses.cross_entropy(
            Tensor(np.zeros((4, 3))), [0, 1, 2, 1], np.ones(4, dtype=bool)
        ).data[0, 0]
    )
    assert ce == pytest.approx(np.log(3.0), abs=1e-10)
    report(3, "KL(0.5)=0, KL(0.9)=0.36806, focal(0.25)=2.4012, uniform CE=ln 3")


def test_criterion_4_auc_oracle():
    assert auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 60))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        err = abs(auc_binary(scores, labels) - auc_trapezoid(scores, labels))
        worst = max(worst, err)
        assert err <= 1e-10
    report(4, f"fixture exact 0.75; 100 instances, worst err {worst:.2e}")


def test_criterion_5_ablation_equivalence(small_dataset):
    """With mu=xi=0 the trainer's loss trace equals an independently coded
    plain-CE loop over the same primitives, <= 1e-12 per epoch."""
    epochs, k, hidden, seed = 60, 5, (8, 8), 3
    cfg = TrainConfig(
        epochs=epochs,
        k_neighbors=k,
        hidden_dims=hidden,
        seed=seed,
        loss=LossConfig(mu=0.0, xi=0.0),
    )
    record = train(small_dataset, cfg)

    # independent plain-CE loop (no focal, no bottleneck terms)
    ds = normalize(small_dataset)
    fused, graph = fuse_and_build(ds, k)
    from hgib.trainer import split_and_mask

    _, labeled_mask, _ = split_and_mask(ds, cfg.train_fraction, cfg.label_fraction, seed)
    state = model.init_params(fused.shape[1], list(hidden), ds.num_classes,
                              substream(seed, "init"))
    opt = AdamState.for_params(state.params)
    trace = []
    for epoch in range(epochs):
        lr = cfg.lr_initial * (1.0 - epoch / epochs)
        logits, _ = model.forward(fused, graph, state)
        loss = losses.cross_entropy(logits, ds.labels, labeled_mask)
        trace.append(float(loss.data[0, 0]))
        for p in state.params:
            p.zero_grad()
        loss.backward()
        adam_step(state.params, [p.grad for p in state.params], opt, lr)

    deltas = np.abs(np.array(record.loss_trace) - np.array(trace))
    assert deltas.max() <= 1e-12, f"max per-epoch delta {deltas.max():.2e}"
    report(5, f"{epochs} epochs, max trace delta {deltas.max():.2e}")


def test_criterion_6_end_to_end_learning(trained_default_runs):
    aucs = [
        evaluate_state(r.prepared, r.model_state).auc_average
        for r in trained_default_runs.values()
    ]
    mean_auc = float(np.mean(aucs))
    assert mean_auc >= 0.90, f"mean macro AUC {mean_auc:.4f}"
    slowest = max(r.duration_seconds for r in trained_default_runs.values())
    assert slowest < 120.0

    control = generate_synthetic(SynthConfig(seed=1, separation=0.0))
    control_runs = [train(control, TrainConfig(seed=s)) for s in ACCEPTANCE_SEEDS]
    control_aucs = [
        evaluate_state(r.prepared, r.model_state).auc_average for r in control_runs
    ]
    mean_control = float(np.mean(control_aucs))
    assert 0.4 <= mean_control <= 0.6, f"control AUC {mean_control:.4f}"
    report(
        6,
        f"mean AUC {mean_auc:.4f} >= 0.90, control {mean_control:.4f} in [0.4, 0.6], "
        f"slowest run {slowest:.1f}s",
    )


def test_criterion_7_label_efficiency(default_dataset):
    """Three-row label-fraction table; each step down in labels loses at
    most 0.05 mean macro AUC."""
    fractions = [0.8, 0.6, 0.4]
    rows = []
    for fraction in fractions:
        runs = [
            train(default_dataset, TrainConfig(seed=s, label_fraction=fraction))
            for s in ACCEPTANCE_SEEDS
        ]
        reports = [evaluate_state(r.prepared, r.model_state) for r in runs]
        rows.append(
            {"label_fraction": fraction, "metrics": aggregate_metrics(reports)}
        )
    assert len(rows) == 3
    means = [row["metrics"]["auc_average"]["mean"] for row in rows]
    for higher, lower in zip(means, means[1:]):
        assert lower >= higher - 0.05, f"degradation {higher - lower:.3f} > 0.05"
    report(7, "mean AUC by fraction " + ", ".join(
        f"{f}: {m:.4f}" for f, m in zip(fractions, means)
    ))


def test_criterion_8_robustness_protocol(trained_default_runs):
    clean, dropped, noisy = [], [], []
    for seed, record in trained_default_runs.items():
        clean.append(evaluate_state(record.prepared, record.model_state).auc_average)
        drop_cfg = AttackConfig(kind="drop", drop_fraction=0.2, seed=seed)
        noise_cfg = AttackConfig(kind="noise", rho=0.01, seed=seed)
        dropped.append(
            attack_evaluate(record.prepared, record.model_state, drop_cfg).auc_average
        )
        noisy.append(
            attack_evaluate(record.prepared, record.model_state, noise_cfg).auc_average
        )

    # seed determinism of the attack evaluation itself
    seed, record = next(iter(trained_default_runs.items()))
    cfg = AttackConfig(kind="drop", drop_fraction=0.2, seed=seed)
    first = attack_evaluate(record.prepared, record.model_state, cfg)
    second = attack_evaluate(record.prepared, record.model_state, cfg)
    assert abs(first.auc_average - second.auc_average) <= 1e-12
    assert first.per_class_auc == second.per_class_auc

    mean_clean = float(np.mean(clean))
    mean_drop = float(np.mean(dropped))
    mean_noise = float(np.mean(noisy))
    assert abs(mean_drop - mean_clean) <= 0.10
    assert abs(mean_noise - mean_clean) <= 0.10
    report(
        8,
        f"clean {mean_clean:.4f}, drop {mean_drop:.4f}, noise {mean_noise:.4f}, "
        "repeat delta <= 1e-12",
    )


def test_criterion_9_cli_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "n": 60,
                "dims": [6, 4],
                "num_classes": 3,
                "separation": 3.0,
                "label_noise": 0.0,
                "seed": 11,
            }
        )
    )
    args = lambda out: [
        "train",
        "--synth",
        str(synth_cfg),
        "--epochs",
        "100",
        "--k",
        "5",
        "--seed",
        "2",
        "--out",
        str(out),
    ]
    assert cli_main(args(tmp_path / "a")) == 0
    assert cli_main(args(tmp_path / "b")) == 0
    bytes_a = (tmp_path / "a" / "metrics.json").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.json").read_bytes()
    assert bytes_a == bytes_b
    report(9, "repeated CLI run reproduces metrics.json byte-identically")
