"""Multi-proxy cosine classification head and its training losses.

Each class owns K weight vectors ("proxies"). A sample's score for a class
is a softmax-weighted average of its cosines to that class's proxies, so
multi-modal classes stay well represented as the embedding drifts across
tasks. Training minimizes a hinged, margin-shifted NCA loss; new classes
are initialized by imprinting k-means centroids of their embeddings.

The scores and both losses are one autodiff primitive each: a numpy forward
and a hand-written vjp. The scores work proxy-major, on (K, C, B) cosines,
so each reduction over a class's K proxies adds whole (C, B) slabs. NCA and
cross-entropy share one max-shifted logsumexp, so no scale overflows.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import _ZERO_NORM, Tensor, _make, unit_vectors, unit_vectors_vjp


class ProxyBank:
    """Classifier state: per-class proxy vectors plus the learned scale.

    Class ids are dense: class c's proxies are ``theta.data[c]``, where
    ``theta`` is one (C, K, D) tensor. ``add_class`` replaces it with a grown
    copy, so optimizers must be built after imprinting (the runner builds
    them per task) to see the current tensor. ``eta`` is a learned positive
    scalar, kept at or above its init ``eta_floor``.
    """

    def __init__(self, dim: int, proxies_per_class: int, eta_init: float = 1.0):
        if dim < 1 or proxies_per_class < 1:
            raise ContractError(f"ProxyBank: bad dim={dim} or K={proxies_per_class}")
        if eta_init <= 0:
            raise ContractError(f"ProxyBank: eta must be > 0, got {eta_init}")
        self.dim = int(dim)
        self.K = int(proxies_per_class)
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

    Per class, the cosines to its K proxies are weighted by their softmax w
    and summed (K == 1: the plain cosine). Row k*C + c of one (K*C, D) copy
    of theta is proxy k of class c, so one matmul gives (K, C, B) cosines; the
    vjp into ``h`` and theta uses ``d score / d sim_k = w_k (1 + sim_k - score)``.
    """
    if h.data.ndim != 2 or h.shape[1] != bank.dim:
        raise ContractError(f"embedding shape {h.shape} does not match proxy dim {bank.dim}")
    if bank.num_classes == 0:
        raise ContractError("ProxyBank holds no classes yet")
    theta = bank.theta
    C, K, D = theta.shape
    unit_h = unit_vectors(h.data)
    unit_p = theta.data.transpose(1, 0, 2).copy().reshape(K * C, D)
    norms = np.sqrt(np.einsum("ij,ij->i", unit_p, unit_p))[:, None]
    for alive, what in ((unit_h[1], "embedding"), (norms > _ZERO_NORM, "proxy weights")):
        if not alive.all():
            raise NumericError(f"{what} has a (near-)zero-norm vector; cosine undefined")
    unit_p /= norms
    sims = (unit_p @ unit_h[0].T).reshape(K, C, -1)
    w = sims - sims.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)                                               # softmax over K
    scores = np.einsum("kcb,kcb->cb", w, sims).T.copy()

    def vjp(g):
        g_sims = (1.0 - scores.T) + sims
        g_sims *= w
        g_sims *= g.T
        g_sims = g_sims.reshape(K * C, -1)
        g_h = unit_vectors_vjp(g_sims.T @ unit_p, *unit_h) if h.requires_grad else None
        if not theta.requires_grad:
            return g_h, None
        g_p = g_sims @ unit_h[0]
        g_p -= unit_p * np.einsum("ij,ij->i", g_p, unit_p)[:, None]
        g_p /= norms
        return g_h, g_p.reshape(K, C, D).transpose(1, 0, 2)

    return _make(scores, "lsc_scores", (h, theta), vjp)


def _check_labels(yhat: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if yhat.data.ndim != 2:
        raise ContractError(f"scores must be (B, #classes), got {yhat.shape}")
    if labels.shape != (yhat.shape[0],):
        raise ContractError(f"labels shape {labels.shape} != ({yhat.shape[0]},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= yhat.shape[1]:
        raise ContractError("labels outside [0, #classes)")
    return labels


def _scaled_target_loss(op: str, yhat: Tensor, labels: np.ndarray, eta, delta: float,
                        nca: bool) -> Tensor:
    """Batch mean of ``logsumexp(eta * yhat) - eta * (yhat_y - delta)``.

    With ``nca`` the logsumexp leaves out each row's target entry, and each
    sample is hinged at 0. Every row is shifted by its largest kept entry, so
    no exponent exceeds 0 whatever the scale; a left-out entry is set to
    -inf, whose exp is exactly 0. One primitive: its vjp goes into ``yhat``,
    and into ``eta`` when that is a tensor taking gradients.
    """
    eta_t = eta if isinstance(eta, Tensor) else Tensor(np.asarray(float(eta)))
    rows = np.arange(labels.size)
    scaled = yhat.data * eta_t.data
    target = scaled[rows, labels]                                    # eta * score_y
    if nca:
        scaled[rows, labels] = -np.inf
    row_max = scaled.max(axis=1)
    exps = np.exp(scaled - row_max[:, None])
    sums = exps.sum(axis=1)
    per_sample = np.log(sums) + row_max - (target - eta_t.data * delta)
    active = per_sample > 0
    if nca:
        per_sample = np.where(active, per_sample, 0.0)

    def vjp(g):
        g_rows = np.broadcast_to(g, (yhat.shape[0],)) / yhat.shape[0]
        if nca:
            g_rows = g_rows * active
        g_scaled = (g_rows / sums)[:, None] * exps
        g_scaled[rows, labels] -= g_rows
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
    return _scaled_target_loss("nca_hinge_loss", yhat, labels, eta, float(delta), True)


def cross_entropy_loss(yhat: Tensor, labels, eta) -> Tensor:
    """Plain cross-entropy over eta-scaled scores (the ablation head)."""
    labels = _check_labels(yhat, labels)
    return _scaled_target_loss("cross_entropy_loss", yhat, labels, eta, 0.0, False)


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
    # one centroid's column at a time, never an (N, k, D) temporary; the
    # GEMM form |p|^2 - 2 p.c + |c|^2 rounds differently and can move ties
    dist2 = np.empty((n, k))
    for _ in range(iters):
        for j in range(k):
            dist2[:, j] = ((points - centroids[j]) ** 2).sum(axis=1)
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
