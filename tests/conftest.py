import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hgib import SynthConfig, TrainConfig, generate_synthetic, train

ACCEPTANCE_SEEDS = [1, 2, 3, 4, 5]


@pytest.fixture(scope="session")
def default_dataset():
    return generate_synthetic(SynthConfig(seed=1))


@pytest.fixture(scope="session")
def small_dataset():
    return generate_synthetic(
        SynthConfig(n=60, dims=(6, 4), separation=3.0, label_noise=0.0, seed=7)
    )


@pytest.fixture(scope="session")
def trained_default_runs(default_dataset):
    """Full-protocol runs on the default fixture, one per acceptance seed."""
    return {
        seed: train(default_dataset, TrainConfig(seed=seed))
        for seed in ACCEPTANCE_SEEDS
    }


@pytest.fixture
def replaced(monkeypatch):
    """(source, target) of every `os.replace` call; each call still runs."""
    calls = []
    real_replace = os.replace

    def replace(src, dst):
        calls.append((os.fspath(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def random_hypergraph(rng, n, max_edges=None):
    """Random binary incidence with guaranteed vertex coverage and
    non-empty edges (self-edge per vertex plus random memberships)."""
    num_edges = max_edges or n
    H = np.zeros((n, num_edges))
    H[np.arange(n), np.arange(n) % num_edges] = 1.0
    extra = rng.random((n, num_edges)) < 0.3
    H = np.maximum(H, extra)
    return H
