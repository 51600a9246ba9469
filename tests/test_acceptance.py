"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The experiment-backed criteria share one session fixture that executes all
benchmark runs (4 configurations x 3 seeds); expect several minutes for the
full module. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from podlearn.backbone import StageOutputs
from podlearn.config import ExperimentConfig
from podlearn.datasets import generate_synthetic_dataset
from podlearn.gradcheck import gradient_check
from podlearn.lsc import ProxyBank, kmeans, lsc_scores, nca_hinge_loss
from podlearn.memory import ExemplarMemory, PerClass, Total, herd_select
from podlearn.pod import PodMode
from podlearn.protocol import (
    TaskSchedule,
    adaptive_scale,
    average_incremental_accuracy,
    run_schedule,
)
from podlearn.tensor import Tensor, tsum

from oracles import (
    herd_order_oracle,
    kmeans_two_cluster_optima,
    lsc_scores_oracle,
    nca_hinge_oracle,
    pod_flat_oracle,
    pod_pooled_oracle,
)
from pod_helpers import pod_embedding, pod_map

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


# -- A1: gradient integrity ---------------------------------------------------------


def test_a1_gradient_integrity():
    start = time.time()
    tol, eps, points = 1e-4, 1e-5, 20
    worst = 0.0

    rng = np.random.default_rng(101)
    fixed = rng.uniform(0.5, 1.5, size=(1, 2, 3, 3))
    for mode in PodMode:
        for _ in range(points):
            pt = Tensor(rng.uniform(0.5, 1.5, size=(1, 2, 3, 3)))
            err = gradient_check(
                lambda t, m=mode: pod_map(fixed, t, m), pt, eps
            )
            worst = max(worst, err)

    flat_fixed = rng.normal(size=(2, 5))
    for _ in range(points):
        pt = Tensor(rng.normal(size=(2, 5)))
        worst = max(worst, gradient_check(lambda t: pod_embedding(flat_fixed, t), pt, eps))

    bank = ProxyBank(6, 3)
    for _ in range(4):
        bank.add_class(rng.normal(size=(3, 6)))
    for _ in range(points):
        pt = Tensor(rng.normal(size=(3, 6)))
        worst = max(
            worst, gradient_check(lambda t: tsum(lsc_scores(t, bank)), pt, eps)
        )

    # nca away from the hinge kink: resample any point whose pre-hinge
    # margin sits within 0.02 of zero
    eta, delta = 2.0, 0.2
    labels = np.array([0, 1, 2, 3])
    done = 0
    while done < points:
        yhat = rng.uniform(-0.8, 0.8, size=(4, 5))
        pre = []
        for row, y in zip(yhat, labels):
            denom = np.sum([np.exp(eta * s) for i, s in enumerate(row) if i != y])
            pre.append(-eta * (row[y] - delta) + np.log(denom))
        if min(abs(p) for p in pre) < 0.02:
            continue
        err = gradient_check(
            lambda t: nca_hinge_loss(t, labels, eta, delta), Tensor(yhat), eps
        )
        worst = max(worst, err)
        done += 1

    elapsed = time.time() - start
    _report(
        "A1 gradient integrity",
        worst <= tol and elapsed < 120,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


# -- A2: POD algebra -----------------------------------------------------------------


def test_a2_pod_algebra():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(50):
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 4, 5))
        ta, tb = Tensor(a), Tensor(b)
        w = pod_map(a, tb, PodMode.WIDTH).item()
        h = pod_map(a, tb, PodMode.HEIGHT).item()
        s = pod_map(a, tb, PodMode.SPATIAL).item()
        ok &= s == w + h
        for mode in PodMode:
            ok &= pod_map(a, ta, mode).item() == 0.0
        chan = a[:, rng.permutation(3), :, :]
        ok &= abs(pod_map(a, Tensor(chan), PodMode.CHANNEL).item()) <= 1e-12
        flat = a.reshape(2, 3, 20)[:, :, rng.permutation(20)].reshape(2, 3, 4, 5)
        ok &= abs(pod_map(a, Tensor(flat), PodMode.GAP).item()) <= 1e-12
        wperm = a[:, :, rng.permutation(4), :]
        ok &= abs(pod_map(a, Tensor(wperm), PodMode.WIDTH).item()) <= 1e-12
        hperm = a[:, :, :, rng.permutation(5)]
        ok &= abs(pod_map(a, Tensor(hperm), PodMode.HEIGHT).item()) <= 1e-12
    _report("A2 POD algebra", ok, "(50 random tensors, tolerance 1e-12)")


# -- A3: oracle equivalence -----------------------------------------------------------


def test_a3_oracle_equivalence():
    rng = np.random.default_rng(303)
    ok = True
    worst = 0.0

    for _ in range(10):
        a = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=(2, 2, 3, 3))
        for mode in PodMode:
            got = pod_map(a, Tensor(b), mode).item()
            want = pod_pooled_oracle(a.tolist(), b.tolist(), mode.value)
            worst = max(worst, abs(got - want))
        e1, e2 = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        worst = max(
            worst,
            abs(pod_embedding(e1, Tensor(e2)).item()
                - pod_flat_oracle(e1.tolist(), e2.tolist())),
        )
        theta = [rng.normal(size=(3, 6)) for _ in range(4)]
        bank = ProxyBank(6, 3)
        for t in theta:
            bank.add_class(t)
        h = rng.normal(size=(4, 6))
        got_scores = lsc_scores(Tensor(h), bank).data
        want_scores = np.asarray(
            lsc_scores_oracle(h.tolist(), [t.tolist() for t in theta])
        )
        worst = max(worst, float(np.abs(got_scores - want_scores).max()))
        yhat = rng.uniform(-1, 1, size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        worst = max(
            worst,
            abs(nca_hinge_loss(Tensor(yhat), labels, 2.5, 0.3).item()
                - nca_hinge_oracle(yhat.tolist(), labels.tolist(), 2.5, 0.3)),
        )
    ok &= worst <= 1e-12

    herd_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        feats = rng.normal(size=(n, 4))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        herd_ok &= herd_select(feats, n) == herd_order_oracle(feats.tolist(), n)
    ok &= herd_ok

    km_ok = True
    for _ in range(15):
        n = int(rng.integers(4, 13))
        pts = rng.normal(size=(n, 2))
        cents = kmeans(pts, 2, seed=int(rng.integers(1 << 30)))
        d2 = ((pts[:, None, :] - cents[None]) ** 2).sum(axis=2)
        wcss = d2.min(axis=1).sum()
        best, stable = kmeans_two_cluster_optima(pts.tolist())
        km_ok &= any(abs(wcss - s) <= 1e-9 for s in stable) and wcss >= best - 1e-9
    ok &= km_ok

    _report(
        "A3 oracle equivalence",
        ok,
        f"(losses/scores max dev {worst:.2e}; herding 100/100; kmeans certified)",
    )


# -- A4: classifier reductions ----------------------------------------------------------


def test_a4_classifier_reductions():
    rng = np.random.default_rng(404)
    theta = [rng.normal(size=(1, 7)) for _ in range(5)]
    bank = ProxyBank(7, 1)
    for t in theta:
        bank.add_class(t)
    h = rng.normal(size=(6, 7))
    scores = lsc_scores(Tensor(h), bank).data
    h_n = h / np.linalg.norm(h, axis=1, keepdims=True)
    t_n = np.stack([t[0] / np.linalg.norm(t[0]) for t in theta])
    cos = h_n @ t_n.T
    k1_ok = np.abs(scores - cos).max() <= 1e-12

    closed_a = nca_hinge_loss(Tensor([[0.4, 0.4]]), [0], eta=3.0, delta=0.0).item()
    closed_b = nca_hinge_loss(Tensor([[0.4, 0.4]]), [0], eta=1.0, delta=0.6).item()
    closed_c = nca_hinge_loss(Tensor([[0.2, 0.2]]), [1], eta=2.0, delta=0.5).item()
    closed_ok = closed_a == 0.0 and closed_b == 0.6 and closed_c == 1.0

    _report(
        "A4 classifier reductions",
        bool(k1_ok and closed_ok),
        f"(K=1 max dev {np.abs(scores - cos).max():.2e}; closed forms exact)",
    )


# -- A5 / A6: benchmark experiments ------------------------------------------------------


def _benchmark_config(**overrides) -> ExperimentConfig:
    base = dict(memory_per_class=5)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def _run_benchmark(cfg: ExperimentConfig, seed: int):
    ds = generate_synthetic_dataset(cfg.synthetic_spec(), seed=seed)
    sched = TaskSchedule.build(cfg.classes, cfg.initial_task_size, cfg.increment, seed)
    run_cfg = cfg.run_config(ds.input_shape)
    return run_schedule(sched, run_cfg, ds, seed=seed)


@pytest.fixture(scope="session")
def benchmark_runs():
    """Average incremental NME accuracy per configuration, 3 seeds each."""
    configs = {
        "podnet": _benchmark_config(),  # POD-spatial + POD-flat + LSC defaults
        "baseline": _benchmark_config(lambda_c=0.0, lambda_f=0.0, proxies_per_class=1),
        "pod_gap": _benchmark_config(pod_mode="gap"),
        "pod_pixel": _benchmark_config(pod_mode="pixel"),
    }
    out = {}
    for name, cfg in configs.items():
        t0 = time.time()
        out[name] = [_run_benchmark(cfg, seed).avg_nme for seed in SEEDS]
        print(f"[benchmark] {name}: {[round(a, 4) for a in out[name]]} "
              f"({time.time() - t0:.0f}s)")
    return out


def test_a5_forgetting_reduction(benchmark_runs):
    pod = float(np.mean(benchmark_runs["podnet"]))
    base = float(np.mean(benchmark_runs["baseline"]))
    gap_pts = 100 * (pod - base)
    _report(
        "A5 forgetting reduction",
        gap_pts >= 10.0,
        f"(PODNet NME {100 * pod:.2f} vs baseline {100 * base:.2f}: +{gap_pts:.2f} pts over {len(SEEDS)} seeds)",
    )


def _ordering(left: float, right: float) -> str:
    diff = 100 * (left - right)
    if diff >= 1.0:
        return "win"
    if diff > -1.0:
        return "tie"
    return "loss"


def test_a6_ablation_ordering(benchmark_runs):
    spatial = float(np.mean(benchmark_runs["podnet"]))
    gap = float(np.mean(benchmark_runs["pod_gap"]))
    pixel = float(np.mean(benchmark_runs["pod_pixel"]))
    first = _ordering(spatial, gap)
    last = _ordering(gap, pixel)
    _report(
        "A6 ablation ordering",
        first != "loss" and last != "loss",
        f"(spatial {100 * spatial:.2f} vs gap {100 * gap:.2f}: {first}; "
        f"gap vs pixel {100 * pixel:.2f}: {last})",
    )


# -- A7: protocol mechanics -----------------------------------------------------------


def test_a7_protocol_mechanics():
    lam_ok = abs(adaptive_scale(50, 1) - 7.0711) <= 1e-4

    # the average includes the first task
    avg_ok = average_incremental_accuracy([1.0, 0.5]) == 0.75

    per = ExemplarMemory(PerClass(20))
    per.add_class(list(range(50)))
    per.add_class(list(range(12)))
    per_ok = len(per.per_class[0]) == 20 and len(per.per_class[1]) == 12

    total = ExemplarMemory(Total(2000))
    for c in range(60):
        total.add_class(list(range(40)))
    sizes60 = sorted({len(v) for v in total.per_class})
    for c in range(60, 100):
        total.add_class(list(range(40)))
    sizes100 = {len(v) for v in total.per_class}
    total_ok = (
        sizes60 == [33, 34]
        and total.total_stored() <= 2000
        and sizes100 == {20}
    )

    _report(
        "A7 protocol mechanics",
        lam_ok and avg_ok and per_ok and total_ok,
        f"(lambda(50,1)={adaptive_scale(50, 1):.4f}; budgets ok)",
    )


# -- A8: determinism ---------------------------------------------------------------------


def test_a8_determinism(tmp_path):
    from podlearn.cli import main

    text = "\n".join([
        "seed = 0",
        "classes = 4",
        "samples_per_class = 20",
        "channels = 2",
        "width = 6",
        "height = 6",
        "initial_task_size = 2",
        "increment = 1",
        "stage_filters = 4,8",
        "embedding_dim = 8",
        "proxies_per_class = 2",
        "memory_per_class = 3",
        "epochs_per_task = 3",
        "batch_size = 16",
    ])
    cfg = tmp_path / "det.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    _report("A8 determinism", a == b, f"({len(a)} bytes, byte-identical)")
