"""Hypergraph information-bottleneck learning on tabular multi-modal features."""

from .autodiff import AdamState, Tensor, adam_step
from .data import Dataset, SynthConfig, generate_synthetic, load_csv, normalize
from .hypergraph import Hypergraph, build_knn_hyperedges, concat_hypergraphs
from .losses import LossConfig
from .metrics import MetricsReport, auc_binary, evaluate
from .model import ModelState, forward, init_params
from .perturb import AttackConfig, attack_evaluate, drop_hyperedges, inject_feature_noise
from .trainer import RunRecord, TrainConfig, split_and_mask, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AttackConfig",
    "Dataset",
    "Hypergraph",
    "LossConfig",
    "MetricsReport",
    "ModelState",
    "RunRecord",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "attack_evaluate",
    "auc_binary",
    "build_knn_hyperedges",
    "concat_hypergraphs",
    "drop_hyperedges",
    "evaluate",
    "forward",
    "generate_synthetic",
    "init_params",
    "inject_feature_noise",
    "load_csv",
    "normalize",
    "split_and_mask",
    "train",
]
