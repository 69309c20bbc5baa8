"""Independent reference implementations used to check the library:
finite differences for gradients, textbook Adam, closed forms of the loss
terms, loop-based spatial convolution, brute-force kNN incidence and dense
propagation, trapezoidal ROC integration. None of these share code with
hgib."""

from __future__ import annotations

import numpy as np


def finite_difference_grads(f, leaves, h=1e-5):
    """Central finite differences of the scalar f() w.r.t. every leaf tensor.

    f must rebuild its computation from the leaves' current .data on each
    call. Returns one gradient array per leaf.
    """
    grads = []
    for leaf in leaves:
        g = np.zeros_like(leaf.data)
        it = np.nditer(leaf.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = leaf.data[idx]
            leaf.data[idx] = orig + h
            up = f()
            leaf.data[idx] = orig - h
            down = f()
            leaf.data[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def assert_close_gradients(analytic, numeric, rel=1e-4):
    """Relative-error check with an absolute floor for near-zero entries."""
    for a, f in zip(analytic, numeric):
        err = np.abs(a - f)
        bound = rel * (1.0 + np.abs(f))
        assert (err <= bound).all(), f"max grad error {err.max():.3e}"


def adam_oracle(params, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam (Kingma & Ba, Algorithm 1), one
    parameter at a time: `grads[t][i]` is parameter i's gradient at step
    t + 1 and `lrs[t]` that step's learning rate. Returns the parameters."""
    params = [np.array(p, dtype=float) for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (step_grads, lr) in enumerate(zip(grads, lrs), start=1):
        for i, g in enumerate(step_grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v[i] / (1 - beta2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def ce_focal_oracle(logits, labels, mask, mu, alpha, gamma):
    """Mean over masked rows of -log p + mu alpha (1 - p)^gamma (-log p),
    p the softmax probability of the row's label."""
    x = np.asarray(logits, dtype=float)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = (e / e.sum(axis=1, keepdims=True))[np.arange(x.shape[0]), labels]
    p = p[np.asarray(mask, dtype=bool)]
    return np.mean(-np.log(p) * (1.0 + mu * alpha * (1.0 - p) ** gamma))


def kl_half_oracle(z):
    """Mean over entries of KL(Bernoulli(p) || Bernoulli(1/2)) =
    p log 2p + q log 2q, with p = 1 / (1 + e^-z) and q = 1 - p."""
    p = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))
    q = 1.0 - p
    return np.mean(p * np.log(2.0 * p) + q * np.log(2.0 * q))


def spatial_conv_oracle(H, X, theta):
    """Eq-by-eq two-step aggregation with explicit loops over the
    inter-neighbor sets, then linear map and ReLU."""
    H = np.asarray(H, dtype=float)
    n, num_edges = H.shape
    edge_feats = np.zeros((num_edges, X.shape[1]))
    for e in range(num_edges):
        members = np.flatnonzero(H[:, e])
        edge_feats[e] = X[members].sum(axis=0) / members.size
    out = np.zeros((n, theta.shape[1]))
    for v in range(n):
        edges = np.flatnonzero(H[v, :])
        agg = edge_feats[edges].sum(axis=0) / edges.size
        out[v] = np.maximum(agg @ theta, 0.0)
    return out


def matrix_conv_oracle(H, X, theta):
    """sigma(Dv^-1 H De^-1 H^T X Theta) as one dense expression."""
    return np.maximum(propagation_oracle(H) @ X @ theta, 0.0)


def knn_incidence_oracle(X, k):
    """Dense n x n incidence of the kNN hypergraph by brute force: column v
    holds v and the first k other vertices in (squared distance, index)
    order."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    index = np.arange(n)
    H = np.zeros((n, n))
    for v in range(n):
        d = ((X - X[v]) ** 2).sum(axis=1)
        d[v] = np.inf
        H[np.lexsort((index, d))[:k], v] = 1.0
        H[v, v] = 1.0
    return H


def propagation_oracle(H):
    """Dv^-1 H De^-1 H^T with explicit diagonal matrices."""
    H = np.asarray(H, dtype=float)
    dv = np.diag(1.0 / H.sum(axis=1))
    de = np.diag(1.0 / H.sum(axis=0))
    return dv @ H @ de @ H.T


def propagation_by_size_oracle(H):
    """Dv^-1 H De^-1 H^T in the library's operation order: for each edge
    size in ascending order, the co-membership counts of that size's edges
    (H_s H_s^T, exact integers) over the size, then over dv, summed."""
    H = np.asarray(H, dtype=float)
    sizes = H.sum(axis=0)
    dv = H.sum(axis=1)[:, None]
    P = np.zeros((H.shape[0], H.shape[0]))
    for size in np.unique(sizes):
        H_s = H[:, sizes == size]
        P += ((H_s @ H_s.T) / size) / dv
    return P


def propagation_per_entry_oracle(H):
    """P[u, w] = (c / |e|) / dv[u] for a hypergraph whose edges all have
    one size |e|, one entry at a time: c counts the edges holding both u
    and w, dv[u] those holding u."""
    H = np.asarray(H, dtype=float)
    sizes = {int(s) for s in H.sum(axis=0)}
    assert len(sizes) == 1, f"edges of several sizes: {sorted(sizes)}"
    (size,) = sizes
    edges_of = [set(np.flatnonzero(row)) for row in H]
    n = H.shape[0]
    P = np.empty((n, n))
    for u in range(n):
        for w in range(n):
            P[u, w] = (len(edges_of[u] & edges_of[w]) / size) / len(edges_of[u])
    return P


def auc_trapezoid(scores, labels):
    """Area under the ROC curve by trapezoidal integration over all
    score thresholds (ties grouped)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    thresholds = np.unique(scores)[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        predicted = scores >= t
        tpr = (predicted & labels).sum() / n_pos
        fpr = (predicted & ~labels).sum() / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def auc_pair_counting(scores, labels):
    """Mann-Whitney by explicit pair enumeration, ties worth 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)
