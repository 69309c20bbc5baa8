import numpy as np
import pytest
from hypothesis import given, strategies as st

from hgib.errors import MetricError
from hgib.metrics import auc_binary, evaluate

from oracles import auc_pair_counting, auc_trapezoid


class TestAucBinary:
    def test_fixture(self):
        assert auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_binary([0.5] * 6, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc_binary([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_both_oracles(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(4, 40)
        scores = np.round(rng.random(n), 2)  # rounding forces some ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ours = auc_binary(scores, labels)
        assert ours == pytest.approx(auc_pair_counting(scores, labels), abs=1e-10)
        assert ours == pytest.approx(auc_trapezoid(scores, labels), abs=1e-10)

    def test_complement_without_ties(self):
        rng = np.random.default_rng(3)
        scores = rng.permutation(20) / 20.0  # all distinct
        labels = rng.integers(0, 2, 20)
        labels[:2] = [0, 1]
        assert auc_binary(scores, labels) + auc_binary(-scores, labels) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(st.integers(0, 1000), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    def test_invariant_under_increasing_transform(self, seed, a, b):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=12)
        labels = rng.integers(0, 2, 12)
        labels[:2] = [0, 1]
        base = auc_binary(scores, labels)
        assert auc_binary(a * scores + b, labels) == pytest.approx(base, abs=1e-12)
        assert auc_binary(np.tanh(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_random_labels_concentrate_near_half(self):
        rng = np.random.default_rng(4)
        scores = rng.random(200)
        aucs = []
        for _ in range(20):
            labels = rng.integers(0, 2, 200)
            aucs.append(auc_binary(scores, labels))
        assert abs(np.mean(aucs) - 0.5) < 0.15


class TestEvaluate:
    def test_perfect_probabilities(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels]
        report = evaluate(probs, labels)
        assert report.per_class_auc == [1.0, 1.0, 1.0]
        assert report.ppv_average == 100.0
        assert report.npv_average == 100.0

    def test_uniform_probabilities_auc_half(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = evaluate(np.full((6, 3), 1 / 3), labels)
        assert report.per_class_auc == [0.5, 0.5, 0.5]

    def test_hand_confusion_fixture(self):
        # six samples, one vertex of class 0 predicted as class 1
        labels = np.array([0, 0, 1, 1, 2, 2])
        probs = np.eye(3)[[0, 1, 1, 1, 2, 2]]
        report = evaluate(probs, labels)
        assert report.confusion == [[1, 1, 0], [0, 2, 0], [0, 0, 2]]
        # PPV: class0 1/1, class1 2/3, class2 2/2 -> mean 88.89%
        assert report.ppv_average == pytest.approx(100 * (1 + 2 / 3 + 1) / 3, abs=1e-9)
        # NPV: class0 4/5, class1 3/3, class2 4/4
        assert report.npv_average == pytest.approx(100 * (4 / 5 + 1 + 1) / 3, abs=1e-9)

    def test_mask_restricts_evaluation(self):
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels].astype(float)
        probs[6:] = 1 / 3  # bad tail excluded by the mask
        mask = np.zeros(9, dtype=bool)
        mask[:6] = True
        report = evaluate(probs[mask], labels[mask])
        assert report.auc_average == 1.0
        assert int(np.sum(report.confusion)) == 6

    def test_absent_class_rejected(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.full((4, 3), 1 / 3)
        with pytest.raises(MetricError, match="absent from the evaluation mask"):
            evaluate(probs, labels)
        # present in the labels, but not among the rows evaluated
        labels = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(MetricError, match="absent from the evaluation mask"):
            evaluate(np.full((4, 3), 1 / 3), labels[labels != 2])

    def test_zero_denominator_excluded_with_warning(self):
        labels = np.array([0, 1, 2])
        probs = np.eye(3)[[0, 0, 0]].astype(float)  # everything predicted class 0
        with pytest.warns(UserWarning):
            report = evaluate(probs, labels)
        # classes 1 and 2 have no positive predictions -> PPV from class 0 only
        assert report.ppv_average == pytest.approx(100.0 / 3.0, abs=1e-9)
