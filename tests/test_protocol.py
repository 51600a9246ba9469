import numpy as np
import numpy.testing as npt
import pytest

from podlearn.backbone import Backbone, BackboneConfig
from podlearn.datasets import SyntheticSpec, generate_synthetic_dataset
from podlearn.errors import ContractError
from podlearn.lsc import ProxyBank
from podlearn.memory import ExemplarMemory, PerClass, Total
from podlearn.pod import PodConfig
from podlearn.protocol import (
    SGD,
    IncrementalRunner,
    RunConfig,
    TaskSchedule,
    _embed_all,
    adaptive_scale,
    average_incremental_accuracy,
    evaluate,
    run_schedule,
)
from podlearn.tensor import Tensor, no_grad


def _tiny_dataset(classes=4, seed=0):
    spec = SyntheticSpec(
        classes=classes, samples_per_class=20, channels=2, width=6, height=6
    )
    return generate_synthetic_dataset(spec, seed=seed)


def _tiny_config(**kw):
    defaults = dict(
        backbone=BackboneConfig(input_shape=(2, 6, 6), stages=((4, 1), (8, 1)),
                                embedding_dim=8),
        proxies_per_class=2,
        budget=PerClass(3),
        epochs_per_task=4,
        batch_size=16,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


# -- schedule ---------------------------------------------------------------


def test_schedule_partitions_classes_disjointly():
    sched = TaskSchedule.build(10, 4, 2, seed=0)
    assert sched.num_tasks == 4
    seen = []
    for t in range(4):
        classes = sched.task_classes(t)
        assert not set(classes) & set(seen)
        seen += classes
    assert sorted(seen) == list(range(10))
    assert len(sched.task_classes(0)) == 4
    assert all(len(sched.task_classes(t)) == 2 for t in range(1, 4))


def test_schedule_rejects_uneven_increments():
    with pytest.raises(ContractError):
        TaskSchedule.build(10, 4, 4, seed=0)  # 6 remaining, increment 4


def test_schedule_single_task_degenerate():
    sched = TaskSchedule.build(5, 5, 1, seed=0)
    assert sched.num_tasks == 1
    assert sorted(sched.task_classes(0)) == list(range(5))


def test_schedule_is_seeded_permutation():
    a = TaskSchedule.build(8, 4, 2, seed=1)
    b = TaskSchedule.build(8, 4, 2, seed=1)
    c = TaskSchedule.build(8, 4, 2, seed=2)
    assert a.class_order == b.class_order
    assert a.class_order != c.class_order


def test_schedule_rejects_non_permutation():
    with pytest.raises(ContractError):
        TaskSchedule((0, 1, 1), 2, 1)


# -- metrics helpers -----------------------------------------------------------


def test_average_incremental_accuracy():
    assert average_incremental_accuracy([0.5]) == 0.5
    assert average_incremental_accuracy([1.0, 0.0]) == 0.5
    assert average_incremental_accuracy([0.7, 0.7, 0.7]) == pytest.approx(0.7)
    with pytest.raises(ContractError):
        average_incremental_accuracy([])


def test_adaptive_scale_hand_values():
    assert adaptive_scale(50, 1) == pytest.approx(7.0711, abs=1e-4)
    assert adaptive_scale(4, 4) == 1.0
    assert adaptive_scale(9, 1) == 3.0
    with pytest.raises(ContractError):
        adaptive_scale(0, 1)


# -- evaluate -------------------------------------------------------------------


def _orthogonal_setup():
    # embeddings live on coordinate axes; the backbone is bypassed via a
    # linear head on a 1x1 spatially-trivial input
    bank = ProxyBank(3, 1)
    for c in range(3):
        v = np.zeros((1, 3))
        v[0, c] = 1.0
        bank.add_class(v)
    return bank


def test_evaluate_cnn_one_hot_proxies():
    cfg = BackboneConfig(input_shape=(3, 2, 2), stages=((3, 1), (3, 1)),
                         embedding_dim=3)
    model = Backbone(cfg, seed=0)
    # identity-ish head: embedding = pooled channels
    model.params["head.weight"] = Tensor(model.params["head.weight"].data)
    bank = _orthogonal_setup()

    # craft a test point whose embedding equals a proxy by construction:
    # run the model, read its embedding, then plant that embedding as a proxy
    x = np.random.default_rng(0).normal(size=(2, 3, 2, 2))
    with no_grad():
        emb = model.embed(Tensor(x)).data
    bank = ProxyBank(3, 1)
    for i in range(2):
        bank.add_class(emb[i : i + 1])
    bank.add_class(np.ones((1, 3)))
    mem = ExemplarMemory(PerClass(2))
    acc = evaluate(model, bank, mem, x, np.array([0, 1]), "cnn")
    assert acc == 1.0


def test_evaluate_nme_exact_means():
    # single-exemplar classes: each class mean IS that exemplar's unit
    # embedding, so evaluating the exemplars themselves must be perfect
    ds = _tiny_dataset()
    cfg = _tiny_config()
    model = Backbone(cfg.backbone, seed=1)
    bank = ProxyBank(8, 2)
    mem = ExemplarMemory(PerClass(1))
    rng = np.random.default_rng(2)
    for c in range(3):
        bank.add_class(rng.normal(size=(2, 8)))
        mem.add_class(c, [int(ds.train_indices_of(c)[0])])
    test_x = ds.train_x[[mem.per_class[c][0] for c in range(3)]]
    acc = evaluate(model, bank, mem, test_x, np.arange(3), "nme", train_x=ds.train_x)
    assert acc == 1.0


def test_evaluate_nme_hand_oracle_four_points():
    # 4 points / 2 classes with hand-computable means
    cfg = BackboneConfig(input_shape=(1, 2, 2), stages=((2, 1), (2, 1)),
                         embedding_dim=2)
    model = Backbone(cfg, seed=3)
    train_x = np.random.default_rng(4).normal(size=(4, 1, 2, 2))
    with no_grad():
        emb = model.embed(Tensor(train_x)).data
    emb_n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    means = {
        0: (emb_n[0] + emb_n[1]),
        1: (emb_n[2] + emb_n[3]),
    }
    means = {c: m / np.linalg.norm(m) for c, m in means.items()}

    mem = ExemplarMemory(PerClass(2))
    mem.add_class(0, [0, 1])
    mem.add_class(1, [2, 3])
    bank = ProxyBank(2, 1)
    bank.add_class(np.ones((1, 2)))
    bank.add_class(-np.ones((1, 2)))

    test_x = train_x
    expected = []
    for e in emb_n:
        d0 = e @ means[0]
        d1 = e @ means[1]
        expected.append(0 if d0 >= d1 else 1)
    acc = evaluate(model, bank, mem, test_x, np.array(expected), "nme",
                   train_x=train_x)
    assert acc == 1.0


def test_evaluate_rejects_unseen_labels():
    ds = _tiny_dataset()
    cfg = _tiny_config()
    model = Backbone(cfg.backbone, seed=1)
    bank = ProxyBank(8, 2)
    bank.add_class(np.random.default_rng(0).normal(size=(2, 8)))
    mem = ExemplarMemory(PerClass(3))
    with pytest.raises(ContractError):
        evaluate(model, bank, mem, ds.test_x[:4], np.array([0, 0, 1, 1]), "cnn")


def test_evaluate_unknown_mode_rejected():
    ds = _tiny_dataset()
    cfg = _tiny_config()
    model = Backbone(cfg.backbone, seed=1)
    bank = ProxyBank(8, 2)
    bank.add_class(np.random.default_rng(0).normal(size=(2, 8)))
    with pytest.raises(ContractError):
        evaluate(model, bank, ExemplarMemory(PerClass(3)), ds.test_x[:2],
                 np.array([0, 0]), "knn")


# -- full runs ------------------------------------------------------------------


def test_single_task_run_avg_equals_final():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 4, 1, seed=0)
    metrics = run_schedule(sched, _tiny_config(), ds, seed=0)
    assert len(metrics.nme_accuracy) == 1
    assert metrics.avg_nme == metrics.nme_accuracy[0]
    assert metrics.avg_cnn == metrics.cnn_accuracy[0]


def test_run_is_bitwise_deterministic():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=5)
    a = run_schedule(sched, _tiny_config(), ds, seed=5)
    b = run_schedule(sched, _tiny_config(), ds, seed=5)
    assert a.nme_accuracy == b.nme_accuracy
    assert a.cnn_accuracy == b.cnn_accuracy


def test_first_task_has_no_distillation_term():
    # with an absurdly large lambda_c, a run would diverge if POD applied on
    # task one; equality with the lambda=0 run proves the term is absent
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 4, 1, seed=0)
    heavy = run_schedule(sched, _tiny_config(pod=PodConfig(lambda_c=1e12, lambda_f=1e12)),
                         ds, seed=0)
    light = run_schedule(sched, _tiny_config(pod=PodConfig(lambda_c=0.0, lambda_f=0.0)),
                         ds, seed=0)
    assert heavy.nme_accuracy == light.nme_accuracy
    assert heavy.cnn_accuracy == light.cnn_accuracy


def test_metrics_monotone_class_coverage():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=1)
    metrics = run_schedule(sched, _tiny_config(), ds, seed=1)
    assert metrics.seen_classes == [2, 3, 4]


def test_runner_checkpoint_resume_matches_prefix():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=2)
    cfg = _tiny_config()
    straight = IncrementalRunner(sched, cfg, ds, seed=2)
    rows = [straight.run_next_task() for _ in range(3)]

    resumed = IncrementalRunner(sched, cfg, ds, seed=2)
    resumed.run_next_task()
    state = resumed.to_state()
    revived = IncrementalRunner.from_state(sched, cfg, ds, state)
    rows2 = [rows[0]] + [revived.run_next_task() for _ in range(2)]
    assert rows == rows2


def test_memory_covers_all_seen_classes_after_each_task():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=3)
    runner = IncrementalRunner(sched, _tiny_config(budget=Total(9)), ds, seed=3)
    runner.run_next_task()
    assert sorted(runner.memory.per_class) == [0, 1]
    runner.run_next_task()
    assert sorted(runner.memory.per_class) == [0, 1, 2, 3]
    assert runner.memory.total_stored() <= 9


def test_large_memory_matches_joint_training_quality():
    # with the full dataset retained, incremental accuracy stays near the
    # joint run's (no forgetting possible)
    ds = _tiny_dataset(seed=7)
    cfg = _tiny_config(budget=PerClass(100), epochs_per_task=8)
    sched_inc = TaskSchedule.build(4, 2, 1, seed=7)
    inc = run_schedule(sched_inc, cfg, ds, seed=7)
    sched_joint = TaskSchedule.build(4, 4, 1, seed=7)
    joint = run_schedule(sched_joint, cfg, ds, seed=7)
    assert inc.nme_accuracy[-1] >= joint.nme_accuracy[0] - 0.15


def test_embed_all_chunk_size_does_not_change_embeddings():
    model = Backbone(BackboneConfig(), seed=3)
    x = np.random.default_rng(31).normal(size=(300, 3, 8, 8))
    npt.assert_allclose(_embed_all(model, x, batch=64), _embed_all(model, x, batch=256),
                        atol=1e-12)


def test_balanced_finetune_flag_recorded_and_runs():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=4)
    cfg = _tiny_config(balanced_finetune=True, finetune_epochs=2)
    metrics = run_schedule(sched, cfg, ds, seed=4)
    assert metrics.metadata["balanced_finetune"] is True
    assert len(metrics.nme_accuracy) == 2


def test_balanced_finetune_moves_only_the_classifier(monkeypatch):
    seen = []
    finetune = IncrementalRunner._balanced_finetune

    def spy(runner):
        before = {k: p.data.copy() for k, p in runner.backbone.params.items()}
        theta = runner.bank.theta.data.copy()
        finetune(runner)
        seen.append((runner, before, theta))

    monkeypatch.setattr(IncrementalRunner, "_balanced_finetune", spy)
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=4)
    run_schedule(sched, _tiny_config(balanced_finetune=True, finetune_epochs=2), ds, seed=4)
    assert len(seen) == 1  # the finetune follows task 1 only
    runner, before, theta = seen[0]
    for name, p in runner.backbone.params.items():
        assert np.array_equal(p.data, before[name]), name
    assert not np.array_equal(runner.bank.theta.data, theta)


def test_ce_classifier_loss_variant_runs():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=6)
    metrics = run_schedule(sched, _tiny_config(classifier_loss="ce"), ds, seed=6)
    assert len(metrics.cnn_accuracy) == 2


def test_runner_validates_dataset_shape():
    ds = _tiny_dataset()
    cfg = _tiny_config(backbone=BackboneConfig(input_shape=(3, 6, 6),
                                               stages=((4, 1), (8, 1)),
                                               embedding_dim=8))
    with pytest.raises(ContractError):
        IncrementalRunner(TaskSchedule.build(4, 2, 1, seed=0), cfg, ds, seed=0)


def test_run_config_validation():
    with pytest.raises(ContractError):
        _tiny_config(classifier_loss="hinge")
    with pytest.raises(ContractError):
        _tiny_config(learning_rate=0.0)
    with pytest.raises(ContractError):
        _tiny_config(momentum=1.0)


def test_sgd_momentum_and_weight_decay_hand_steps():
    # v <- 0.9 v + g + 0.1 p ; p <- p - 0.5 v, two steps worked by hand
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    eta = Tensor(np.asarray(2.0), requires_grad=True)
    idle = Tensor(np.array([3.0]), requires_grad=True)
    opt = SGD([w, eta, idle], lr=0.5, momentum=0.9, weight_decay=0.1, no_decay=(eta,))

    w.grad, eta.grad = np.array([0.5, 1.0]), np.asarray(0.5)
    opt.step()
    # v = [0.5 + 0.1, 1.0 - 0.2]; eta's v = 0.5, no decay
    npt.assert_allclose(w.data, [0.7, -2.4], rtol=0, atol=1e-12)
    npt.assert_allclose(eta.data, 1.75, rtol=0, atol=1e-12)

    opt.zero_grad()
    w.grad, eta.grad = np.array([-1.0, 0.0]), np.asarray(-1.0)
    opt.step()
    # v = 0.9 [0.6, 0.8] + [-1, 0] + 0.1 [0.7, -2.4] = [-0.39, 0.48]
    npt.assert_allclose(w.data, [0.895, -2.64], rtol=0, atol=1e-12)
    # eta's v = 0.9 * 0.5 - 1.0 = -0.55
    npt.assert_allclose(eta.data, 2.025, rtol=0, atol=1e-12)
    # a parameter without a gradient is not decayed either
    assert idle.grad is None
    assert idle.data.tolist() == [3.0]


def test_failure_carries_task_index():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 1, 1, seed=0)  # single-class first task
    runner = IncrementalRunner(sched, _tiny_config(), ds, seed=0)
    with pytest.raises(ContractError) as exc:
        runner.run_next_task()
    assert "task 0" in str(exc.value)
