"""Multi-proxy cosine classification head and its training losses.

Each class owns K weight vectors ("proxies"). A sample's score for a class
is a softmax-weighted average of its cosine similarities to that class's
proxies, so multi-modal classes stay well represented as the embedding
drifts across tasks. Training minimizes a hinged, margin-shifted NCA loss;
new classes are initialized by imprinting k-means centroids of their
embeddings.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import (
    Tensor,
    add,
    exp,
    l2_normalize,
    log,
    matmul,
    mul,
    relu,
    reshape,
    softmax,
    sub,
    tmean,
    transpose,
    tsum,
)

_NORM_EPS = 1e-8


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

    def state(self) -> dict:
        return {
            "dim": self.dim,
            "proxies_per_class": self.K,
            "delta": self.delta,
            "eta": float(self.eta.data),
            "eta_floor": self.eta_floor,
            "theta": self.theta.data.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ProxyBank":
        bank = cls(state["dim"], state["proxies_per_class"], state["delta"], state["eta_floor"])
        bank.eta.data = np.asarray(float(state["eta"]))
        for proxies in state["theta"]:
            bank.add_class(proxies)
        return bank


def _require_nonzero_rows(data: np.ndarray, what: str) -> None:
    norms = np.sqrt((data * data).sum(axis=-1))
    if norms.min(initial=np.inf) <= _NORM_EPS:
        raise NumericError(f"{what} has a (near-)zero-norm vector; cosine undefined")


def lsc_scores(h: Tensor, bank: ProxyBank) -> Tensor:
    """Averaged per-class similarity in [-1, 1], shape (B, #classes).

    For each class, cosine similarities to its K proxies are softmax-weighted
    and summed; with K == 1 this reduces to the plain cosine similarity. All
    classes go through one matmul against the (C*K, D) unit proxies.
    """
    _check_h(h, bank)
    _require_nonzero_rows(bank.theta.data, "proxy weights")
    C, K, D = bank.theta.shape
    proxies = l2_normalize(reshape(bank.theta, (C * K, D)), axis=-1)
    sims = matmul(l2_normalize(h, axis=-1), transpose(proxies))     # (B, C*K)
    sims = reshape(sims, (h.shape[0], C, K))
    return tsum(mul(softmax(sims, axis=-1), sims), axis=2)


def _check_h(h: Tensor, bank: ProxyBank) -> None:
    if h.data.ndim != 2 or h.shape[1] != bank.dim:
        raise ContractError(
            f"embedding shape {h.shape} does not match proxy dim {bank.dim}"
        )
    if bank.num_classes == 0:
        raise ContractError("ProxyBank holds no classes yet")
    _require_nonzero_rows(h.data, "embedding")


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


def _logsumexp(scaled: Tensor, keep: np.ndarray) -> Tensor:
    """Row-wise ``log(sum(exp(scaled)))`` over the entries where ``keep`` is 1.

    Each row is shifted by its largest kept entry, a constant that is added
    back after the log, so no exponent exceeds 0 whatever the scale. Dropped
    entries are shifted to exactly 0 and masked out after the exp.
    """
    row_max = np.where(keep > 0, scaled.data, -np.inf).max(axis=1)
    shift = np.where(keep > 0, row_max[:, None], scaled.data)
    terms = mul(exp(sub(scaled, Tensor(shift))), Tensor(keep))
    return add(log(tsum(terms, axis=1)), Tensor(row_max))


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
    eta_t = eta if isinstance(eta, Tensor) else Tensor(np.asarray(float(eta)))
    onehot = np.zeros(yhat.shape)
    onehot[np.arange(labels.size), labels] = 1.0

    scaled = mul(yhat, eta_t)
    target = tsum(mul(scaled, Tensor(onehot)), axis=1)        # eta * score_y
    margin_term = sub(target, mul(eta_t, Tensor(float(delta))))
    per_sample = relu(sub(_logsumexp(scaled, 1.0 - onehot), margin_term))
    return tmean(per_sample)


def cross_entropy_loss(yhat: Tensor, labels, eta) -> Tensor:
    """Plain cross-entropy over eta-scaled scores (the ablation head)."""
    labels = _check_labels(yhat, labels)
    eta_t = eta if isinstance(eta, Tensor) else Tensor(np.asarray(float(eta)))
    onehot = np.zeros(yhat.shape)
    onehot[np.arange(labels.size), labels] = 1.0
    scaled = mul(yhat, eta_t)
    target = tsum(mul(scaled, Tensor(onehot)), axis=1)
    return tmean(sub(_logsumexp(scaled, np.ones(yhat.shape)), target))


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
