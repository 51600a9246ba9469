"""Independent reference implementations used to cross-check the library.

Almost everything here is written as literal index loops over Python floats,
on purpose: these functions restate the definitions directly and share no
code with the package. The exceptions are numpy references kept for bitwise
comparison: :func:`conv2d_loop`, an im2col/col2im convolution, and the
dataset builders :func:`dataset_from_templates_oracle` and
:func:`ingest_cifar_oracle`, which make every split by copying.
"""

import itertools
import math
import os

import numpy as np


def pooled_vector(x, mode):
    """Pooled statistics of one (C, W, H) nested list, as a flat list."""
    C, W, H = len(x), len(x[0]), len(x[0][0])
    if mode == "pixel":
        return [x[c][w][h] for c in range(C) for w in range(W) for h in range(H)]
    if mode == "channel":
        return [
            sum(x[c][w][h] for c in range(C)) for w in range(W) for h in range(H)
        ]
    if mode == "gap":
        return [
            sum(x[c][w][h] for w in range(W) for h in range(H)) for c in range(C)
        ]
    if mode == "width":
        return [
            sum(x[c][w][h] for w in range(W)) for c in range(C) for h in range(H)
        ]
    if mode == "height":
        return [
            sum(x[c][w][h] for h in range(H)) for c in range(C) for w in range(W)
        ]
    raise ValueError(mode)


def conv2d_loop(x, w, b, g, stride, padding):
    """Convolution output and its gradients, by im2col and a col2im loop.

    ``x`` is (B, Cin, W, H), ``w`` (Cout, Cin, KW, KH), ``b`` (Cout,) and
    ``g`` the gradient on the output. Returns ``(out, gx, gw, gb)``. The
    input gradient adds each kernel offset's column gradients onto the padded
    input with one strided add per offset (u, v), in (u, v) order.
    """
    B, Cin, W, H = x.shape
    Cout, _, KW, KH = w.shape
    s, p = stride, padding
    Wo = (W + 2 * p - KW) // s + 1
    Ho = (H + 2 * p - KH) // s + 1
    xp = np.zeros((B, Cin, W + 2 * p, H + 2 * p))
    xp[:, :, p : p + W, p : p + H] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (KW, KH), axis=(2, 3))
    cols = windows[:, :, ::s, ::s].transpose(1, 4, 5, 0, 2, 3).reshape(Cin * KW * KH, -1)
    wmat = w.reshape(Cout, -1)
    y = (wmat @ cols).reshape(Cout, B, Wo, Ho)
    y += b[:, None, None, None]
    out = np.ascontiguousarray(y.transpose(1, 0, 2, 3))

    g2 = g.transpose(1, 0, 2, 3).reshape(Cout, -1)
    gw = (g2 @ cols.T).reshape(w.shape)
    gcols = (wmat.T @ g2).reshape(Cin, KW, KH, B, Wo, Ho)
    gxp = np.zeros((Cin, B, W + 2 * p, H + 2 * p))
    for u in range(KW):
        for v in range(KH):
            gxp[:, :, u : u + s * Wo : s, v : v + s * Ho : s] += gcols[:, u, v]
    gx = gxp[:, :, p : p + W, p : p + H].transpose(1, 0, 2, 3)
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def _normalized(v, eps=1e-8):
    n = math.sqrt(sum(e * e for e in v))
    if n <= eps:
        return [0.0] * len(v)
    return [e / n for e in v]


def pod_pooled_oracle(a, b, mode):
    """Batch-mean pooled distillation loss of two (B, C, W, H) arrays."""
    total = 0.0
    B = len(a)
    for s in range(B):
        if mode == "spatial":
            total += _pod_single(a[s], b[s], "width")
            total += _pod_single(a[s], b[s], "height")
        else:
            total += _pod_single(a[s], b[s], mode)
    return total / B


def _pod_single(x, y, mode):
    x = [[[e * e for e in row] for row in ch] for ch in x]
    y = [[[e * e for e in row] for row in ch] for ch in y]
    va = _normalized(pooled_vector(x, mode))
    vb = _normalized(pooled_vector(y, mode))
    return sum((p - q) ** 2 for p, q in zip(va, vb))


def pod_flat_oracle(ht, hs):
    total = 0.0
    for u, v in zip(ht, hs):
        nu, nv = _normalized(list(u)), _normalized(list(v))
        total += sum((p - q) ** 2 for p, q in zip(nu, nv))
    return total / len(ht)


def pod_final_oracle(t_maps, s_maps, t_emb, s_emb, mode, lambda_c, lambda_f,
                     scale):
    inter = 0.0
    for tm, sm in zip(t_maps, s_maps):
        inter += pod_pooled_oracle(tm, sm, mode)
    flat = pod_flat_oracle(t_emb, s_emb)
    return scale * (lambda_c / len(t_maps) * inter + lambda_f * flat)


def cosine(u, v):
    nu = math.sqrt(sum(e * e for e in u))
    nv = math.sqrt(sum(e * e for e in v))
    return sum(p * q for p, q in zip(u, v)) / (nu * nv)


def lsc_scores_oracle(h, theta):
    """Score matrix: per class, softmax-over-proxies weighted mean cosine."""
    out = []
    for row in h:
        scores = []
        for proxies in theta:
            sims = [cosine(row, p) for p in proxies]
            mx = max(sims)
            exps = [math.exp(s - mx) for s in sims]
            z = sum(exps)
            scores.append(sum(e / z * s for e, s in zip(exps, sims)))
        out.append(scores)
    return out


def nca_hinge_oracle(yhat, labels, eta, delta):
    total = 0.0
    for row, y in zip(yhat, labels):
        target = eta * (row[y] - delta)
        denom = sum(math.exp(eta * s) for i, s in enumerate(row) if i != y)
        total += max(0.0, -(target - math.log(denom)))
    return total / len(yhat)


def herd_order_oracle(features, m):
    """Greedy herding, evaluating the argmin definition literally each step."""
    n = len(features)
    d = len(features[0])
    mu = [sum(f[j] for f in features) / n for j in range(d)]
    picked = []
    running = [0.0] * d
    for k in range(1, m + 1):
        best, best_dist = None, None
        for i in range(n):
            if i in picked:
                continue
            cand = [(running[j] + features[i][j]) / k for j in range(d)]
            dist = math.sqrt(sum((mu[j] - cand[j]) ** 2 for j in range(d)))
            # ties (within last-ulp noise) go to the lowest index
            if best_dist is None or dist < best_dist - 1e-12:
                best, best_dist = i, dist
        picked.append(best)
        for j in range(d):
            running[j] += features[best][j]
    return picked


def _wcss(points, assignment, k):
    total = 0.0
    for j in range(k):
        members = [p for p, a in zip(points, assignment) if a == j]
        if not members:
            continue
        d = len(members[0])
        centroid = [sum(m[i] for m in members) / len(members) for i in range(d)]
        total += sum(
            sum((m[i] - centroid[i]) ** 2 for i in range(d)) for m in members
        )
    return total


def kmeans_two_cluster_optima(points):
    """All Lloyd-stable 2-partitions with their WCSS, plus the global optimum.

    Returns (best_wcss, stable_wcss_list). A partition is Lloyd-stable when
    every point is at least as close to its own centroid as to the other one.
    """
    n = len(points)
    d = len(points[0])
    best = None
    stable = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        assignment = (0,) + bits  # fix point 0 in cluster 0 to kill symmetry
        if 1 not in assignment:
            continue
        wcss = _wcss(points, assignment, 2)
        if best is None or wcss < best:
            best = wcss
        centroids = []
        for j in (0, 1):
            members = [p for p, a in zip(points, assignment) if a == j]
            centroids.append(
                [sum(m[i] for m in members) / len(members) for i in range(d)]
            )
        ok = True
        for p, a in zip(points, assignment):
            own = sum((p[i] - centroids[a][i]) ** 2 for i in range(d))
            other = sum((p[i] - centroids[1 - a][i]) ** 2 for i in range(d))
            if own > other + 1e-12:
                ok = False
                break
        if ok:
            stable.append(wcss)
    return best, stable


def class_mean_oracle(embeddings):
    """Unit mean of unit-normalized embedding rows."""
    rows = [_normalized(list(r)) for r in embeddings]
    d = len(rows[0])
    mean = [sum(r[j] for r in rows) / len(rows) for j in range(d)]
    return _normalized(mean)


def dataset_from_templates_oracle(templates, spec, seed):
    """Synthetic splits as four arrays, by drawing each class's n samples at
    once and concatenating the per-class lists (the bitwise reference for
    the in-place generator)."""
    noise_rng = np.random.default_rng(seed)
    train_x, train_y, test_x, test_y = [], [], [], []
    n = spec.samples_per_class
    n_train = max(1, int(round(0.8 * n)))
    shape = (spec.channels, spec.width, spec.height)
    for c in range(spec.classes):
        samples = templates[c][None] + spec.noise_sigma * noise_rng.normal(
            0.0, 1.0, size=(n, *shape)
        )
        train_x.append(samples[:n_train])
        test_x.append(samples[n_train:])
        train_y.append(np.full(n_train, c))
        test_y.append(np.full(n - n_train, c))
    return (np.concatenate(train_x), np.concatenate(train_y).astype(np.int64),
            np.concatenate(test_x), np.concatenate(test_y).astype(np.int64))


def _cifar_pixels_oracle(path):
    records = np.fromfile(path, dtype=np.uint8).reshape(-1, 3074)
    labels = records[:, 1].astype(np.int64)
    return records[:, 2:].astype(np.float64).reshape(-1, 3, 32, 32) / 255.0, labels


def ingest_cifar_oracle(path, classes=None):
    """CIFAR-100 splits as four arrays, by converting every record, then
    splitting, filtering and standardizing copies (the bitwise reference for
    the in-place ingestion). Takes only well-formed files."""
    test_path = None
    if os.path.isdir(path):
        path, test_path = os.path.join(path, "train.bin"), os.path.join(path, "test.bin")
    train_x, train_y = _cifar_pixels_oracle(path)
    if test_path is not None and os.path.exists(test_path):
        test_x, test_y = _cifar_pixels_oracle(test_path)
    else:
        tr_idx, te_idx = [], []
        for c in np.unique(train_y):
            idx = np.flatnonzero(train_y == c)
            cut = max(1, int(round(0.8 * idx.size)))
            tr_idx.append(idx[:cut])
            te_idx.append(idx[cut:])
        tr_idx = np.concatenate(tr_idx)
        te_idx = np.concatenate(te_idx)
        test_x, test_y = train_x[te_idx], train_y[te_idx]
        train_x, train_y = train_x[tr_idx], train_y[tr_idx]
    if classes is not None:
        keep = train_y < classes
        train_x, train_y = train_x[keep], train_y[keep]
        keep = test_y < classes
        test_x, test_y = test_x[keep], test_y[keep]
    mean = train_x.mean(axis=(0, 2, 3), keepdims=True)
    std = train_x.std(axis=(0, 2, 3), keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return (train_x - mean) / std, train_y, (test_x - mean) / std, test_y

