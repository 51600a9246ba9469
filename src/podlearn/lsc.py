"""Multi-proxy cosine classification head and its training losses.

Each class owns K weight vectors ("proxies"). A sample's score for a class
is a softmax-weighted average of its cosine similarities to that class's
proxies, so multi-modal classes stay well represented as the embedding
drifts across tasks. Training minimizes a hinged, margin-shifted NCA loss;
new classes are initialized by imprinting k-means centroids of their
embeddings.

The scores and both losses are one autodiff primitive each: a numpy forward
and a hand-written vjp into the embedding and proxies (scores), or into the
scores and the learned scale eta (losses). NCA and cross-entropy share one
max-shifted logsumexp, so no scale overflows.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tensor, _make, unit_vectors, unit_vectors_vjp


class ProxyBank:
    """Classifier state: per-class proxy vectors plus the learned scale.

    Class ids are dense: class c's proxies are ``theta.data[c]``, where
    ``theta`` is one (C, K, D) tensor. ``add_class`` replaces it with a grown
    copy, so optimizers must be built after imprinting (the runner builds
    them per task) to see the current tensor. ``eta`` is a learned positive
    scalar; ``delta`` is the fixed score margin used by the NCA loss.
    """

    def __init__(self, dim: int, proxies_per_class: int, delta: float = 0.6,
                 eta_init: float = 1.0):
        if dim < 1 or proxies_per_class < 1:
            raise ContractError(f"ProxyBank: bad dim={dim} or K={proxies_per_class}")
        if delta < 0:
            raise ContractError(f"ProxyBank: margin must be >= 0, got {delta}")
        if eta_init <= 0:
            raise ContractError(f"ProxyBank: eta must be > 0, got {eta_init}")
        self.dim = int(dim)
        self.K = int(proxies_per_class)
        self.delta = float(delta)
        self.eta = Tensor(np.asarray(float(eta_init)), requires_grad=True)
        # floor at the init value: early on, the margin term pushes eta toward
        # zero (all score gradients scale with eta, so that kills training);
        # from the floor it grows back once scores become informative
        self.eta_floor = float(eta_init)
        self.theta = Tensor(np.zeros((0, self.K, self.dim)), requires_grad=True)

    @property
    def num_classes(self) -> int:
        return self.theta.shape[0]

    def add_class(self, proxies) -> None:
        try:
            proxies = np.asarray(proxies, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ContractError(f"ProxyBank.add_class: proxies are not an array: {err}")
        if proxies.shape != (self.K, self.dim):
            raise ContractError(
                f"ProxyBank.add_class: expected ({self.K}, {self.dim}), got {proxies.shape}"
            )
        grown = np.concatenate([self.theta.data, proxies[None]])
        self.theta = Tensor(grown, requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.theta, self.eta]

    def clamp_eta(self) -> None:
        """Keep the learned scale at or above its floor after an optimizer step."""
        if float(self.eta.data) < self.eta_floor:
            self.eta.data = np.asarray(self.eta_floor)


def lsc_scores(h: Tensor, bank: ProxyBank) -> Tensor:
    """Averaged per-class similarity in [-1, 1], shape (B, #classes).

    For each class, cosine similarities to its K proxies are softmax-weighted
    and summed; with K == 1 this reduces to the plain cosine similarity. All
    classes go through one matmul against the (C*K, D) unit proxies. One
    primitive: its vjp goes into ``h`` and the proxy tensor.
    """
    if h.data.ndim != 2 or h.shape[1] != bank.dim:
        raise ContractError(f"embedding shape {h.shape} does not match proxy dim {bank.dim}")
    if bank.num_classes == 0:
        raise ContractError("ProxyBank holds no classes yet")
    theta = bank.theta
    C, K, D = theta.shape
    B = h.shape[0]
    unit_h = unit_vectors(h.data)
    proxies = unit_vectors(theta.data.reshape(C * K, D))
    for (_, alive, _), what in ((unit_h, "embedding"), (proxies, "proxy weights")):
        if not alive.all():
            raise NumericError(f"{what} has a (near-)zero-norm vector; cosine undefined")
    proxies_t = proxies[0].T.copy()                                  # (D, C*K)
    sims = (unit_h[0] @ proxies_t).reshape(B, C, K)
    e = np.exp(sims - sims.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)                      # softmax over K

    def vjp(g):
        g = g[:, :, None]
        g_weights = g * sims
        dot = np.sum(g_weights * weights, axis=-1, keepdims=True)
        g_sims = (g * weights + weights * (g_weights - dot)).reshape(B, C * K)
        g_h = unit_vectors_vjp(g_sims @ proxies_t.T, *unit_h) if h.requires_grad else None
        g_theta = None
        if theta.requires_grad:
            g_proxies = (unit_h[0].T @ g_sims).T
            g_theta = unit_vectors_vjp(g_proxies, *proxies).reshape(C, K, D)
        return g_h, g_theta

    return _make((weights * sims).sum(axis=2), "lsc_scores", (h, theta), vjp)


def _check_labels(yhat: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    n_classes = yhat.shape[1]
    if yhat.data.ndim != 2:
        raise ContractError(f"scores must be (B, #classes), got {yhat.shape}")
    if labels.shape != (yhat.shape[0],):
        raise ContractError(f"labels shape {labels.shape} != ({yhat.shape[0]},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ContractError("labels outside [0, #classes)")
    return labels.astype(np.int64)


def _logsumexp(scaled: np.ndarray, keep: np.ndarray):
    """Row-wise ``log(sum(exp(scaled)))`` over the entries where ``keep`` is 1.

    Each row is shifted by its largest kept entry, a constant that is added
    back after the log, so no exponent exceeds 0 whatever the scale. Dropped
    entries are shifted to exactly 0 and masked out after the exp. Returns
    the row values, the shifted exponentials and their kept row sums; the
    gradient of row i with respect to ``scaled`` is ``keep * exps / sums[i]``.
    """
    row_max = np.where(keep > 0, scaled, -np.inf).max(axis=1)
    shift = np.where(keep > 0, row_max[:, None], scaled)
    exps = np.exp(scaled - shift)
    sums = (exps * keep).sum(axis=1)
    return np.log(sums) + row_max, exps, sums


def _scaled_target_loss(op: str, yhat: Tensor, labels: np.ndarray, eta, keep: np.ndarray,
                        delta: float, hinge: bool) -> Tensor:
    """Batch mean of ``logsumexp_keep(eta * yhat) - eta * (yhat_y - delta)``.

    Hinged at 0 per sample when ``hinge``. One primitive: its vjp goes into
    ``yhat``, and into ``eta`` when that is a tensor taking gradients.
    """
    eta_t = eta if isinstance(eta, Tensor) else Tensor(np.asarray(float(eta)))
    onehot = np.zeros(yhat.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    scaled = yhat.data * eta_t.data
    target = (scaled * onehot).sum(axis=1)                           # eta * score_y
    lse, exps, sums = _logsumexp(scaled, keep)
    per_sample = lse - (target - eta_t.data * delta)
    active = per_sample > 0
    if hinge:
        per_sample = np.where(active, per_sample, 0.0)

    def vjp(g):
        g_rows = np.broadcast_to(g, (yhat.shape[0],)) / yhat.shape[0]
        if hinge:
            g_rows = g_rows * active
        g_scaled = (-g_rows)[:, None] * onehot + (g_rows / sums)[:, None] * keep * exps
        g_eta = None
        if eta_t.requires_grad:
            g_eta = (g_scaled * yhat.data).sum(axis=0).sum(axis=0) + g_rows.sum(axis=0) * delta
        return g_scaled * eta_t.data, g_eta

    return _make(np.asarray(per_sample.mean()), op, (yhat, eta_t), vjp)


def nca_hinge_loss(yhat: Tensor, labels, eta, delta: float) -> Tensor:
    """Hinged, margin-shifted NCA loss, batch-averaged.

    Per sample: ``[ -eta*(score_y - delta) + log(sum_{i != y} exp(eta*score_i)) ]_+``.
    The denominator excludes the true class, so at least two classes are
    required. ``eta`` may be a float or a scalar tensor (to learn it).
    """
    labels = _check_labels(yhat, labels)
    if yhat.shape[1] < 2:
        raise ContractError("nca_hinge_loss needs >= 2 classes (empty denominator)")
    if delta < 0:
        raise ContractError(f"margin must be >= 0, got {delta}")
    keep = np.ones(yhat.shape)
    keep[np.arange(labels.size), labels] = 0.0
    return _scaled_target_loss("nca_hinge_loss", yhat, labels, eta, keep, float(delta), True)


def cross_entropy_loss(yhat: Tensor, labels, eta) -> Tensor:
    """Plain cross-entropy over eta-scaled scores (the ablation head)."""
    labels = _check_labels(yhat, labels)
    return _scaled_target_loss("cross_entropy_loss", yhat, labels, eta,
                               np.ones(yhat.shape), 0.0, False)


def kmeans(points: np.ndarray, k: int, iters: int = 25, seed=0) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding.

    Deterministic given the seed; assignment ties go to the lowest centroid
    index. An emptied cluster is re-seeded at the point farthest from its
    assigned centroid. Stops early once assignments reach a fixpoint.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ContractError(f"kmeans: expected (N, D) points, got {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ContractError(f"kmeans: need 1 <= k <= {n}, got {k}")
    if iters < 1:
        raise ContractError(f"kmeans: iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    chosen[first] = True
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centroids; take lowest index
            idx = int(np.flatnonzero(~chosen)[0])
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))

    labels = None
    for _ in range(iters):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist2.argmin(axis=1)
        own = dist2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                # steal the farthest point; donor cluster must keep a member
                eligible = counts[new_labels] > 1
                far = int(np.where(eligible, own, -1.0).argmax())
                counts[new_labels[far]] -= 1
                counts[j] = 1
                new_labels[far] = j
                centroids[j] = points[far]
                own[far] = 0.0
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = points[labels == j].mean(axis=0)
    return centroids


def imprint_new_classes(features_per_class, k: int, seed=0) -> list[np.ndarray]:
    """Initial proxy sets for new classes: k-means centroids of their features.

    Classes with fewer samples than ``k`` reuse the available centroids,
    duplicated with small Gaussian jitter so all proxies stay distinct.
    """
    if k < 1:
        raise ContractError(f"imprint: K must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    out = []
    for feats in features_per_class:
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ContractError(f"imprint: class needs >= 1 sample, got {feats.shape}")
        base = kmeans(feats, min(k, feats.shape[0]), iters=25, seed=rng)
        if base.shape[0] < k:
            extra = [
                base[i % base.shape[0]] + rng.normal(0.0, 1e-3, size=base.shape[1])
                for i in range(base.shape[0], k)
            ]
            base = np.vstack([base, extra])
        out.append(base)
    return out
