import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from podlearn.backbone import Backbone, BackboneConfig
from podlearn.datasets import SyntheticSpec, generate_synthetic_dataset
from podlearn.errors import ContractError, FormatError
from podlearn.gradcheck import gradient_check
from podlearn.lsc import ProxyBank, lsc_scores, nca_hinge_loss
from podlearn.memory import ExemplarMemory, PerClass, Total, herd_select
from podlearn.pod import PodConfig, pod_final, pod_targets
from podlearn.protocol import (
    SGD,
    WEIGHT_DECAY,
    IncrementalRunner,
    RunConfig,
    TaskSchedule,
    _embed_all,
    _forward_rows,
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
        backbone=BackboneConfig(input_shape=(2, 6, 6), stage_filters=(4, 8),
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
    cfg = BackboneConfig(input_shape=(3, 2, 2), stage_filters=(3, 3),
                         embedding_dim=3)
    model = Backbone(cfg, seed=0)
    # identity-ish head: embedding = pooled channels
    model.params["head.weight"] = Tensor(model.params["head.weight"].data)
    bank = _orthogonal_setup()

    # craft a test point whose embedding equals a proxy by construction:
    # run the model, read its embedding, then plant that embedding as a proxy
    x = np.random.default_rng(0).normal(size=(2, 3, 2, 2))
    with no_grad():
        emb = model.forward_with_stages(Tensor(x)).embedding.data
    bank = ProxyBank(3, 1)
    for i in range(2):
        bank.add_class(emb[i : i + 1])
    bank.add_class(np.ones((1, 3)))
    # one exemplar per class: the two test points themselves plus one more,
    # so each test point is also its own class mean
    train_x = np.concatenate([x, np.random.default_rng(1).normal(size=(1, 3, 2, 2))])
    mem = ExemplarMemory(PerClass(2))
    for c in range(3):
        mem.add_class([c])
    nme, cnn = evaluate(model, bank, mem, x, np.array([0, 1]), train_x)
    assert cnn == 1.0
    assert nme == 1.0


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
        mem.add_class([int(ds.train_indices_of(c)[0])])
    test_x = ds.train_x[[mem.per_class[c][0] for c in range(3)]]
    nme, _ = evaluate(model, bank, mem, test_x, np.arange(3), ds.train_x)
    assert nme == 1.0


def test_evaluate_nme_hand_oracle_four_points():
    # 4 points / 2 classes with hand-computable means
    cfg = BackboneConfig(input_shape=(1, 2, 2), stage_filters=(2, 2),
                         embedding_dim=2)
    model = Backbone(cfg, seed=3)
    train_x = np.random.default_rng(4).normal(size=(4, 1, 2, 2))
    with no_grad():
        emb = model.forward_with_stages(Tensor(train_x)).embedding.data
    emb_n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    means = {
        0: (emb_n[0] + emb_n[1]),
        1: (emb_n[2] + emb_n[3]),
    }
    means = {c: m / np.linalg.norm(m) for c, m in means.items()}

    mem = ExemplarMemory(PerClass(2))
    mem.add_class([0, 1])
    mem.add_class([2, 3])
    bank = ProxyBank(2, 1)
    bank.add_class(np.ones((1, 2)))
    bank.add_class(-np.ones((1, 2)))

    test_x = train_x
    expected = []
    for e in emb_n:
        d0 = e @ means[0]
        d1 = e @ means[1]
        expected.append(0 if d0 >= d1 else 1)
    nme, _ = evaluate(model, bank, mem, test_x, np.array(expected), train_x)
    assert nme == 1.0


def test_evaluate_leaves_out_rows_of_unseen_classes():
    # rows labelled past the seen classes count in neither accuracy
    ds = _tiny_dataset()
    model = Backbone(_tiny_config().backbone, seed=1)
    bank = ProxyBank(8, 2)
    mem = ExemplarMemory(PerClass(2))
    rng = np.random.default_rng(3)
    for c in range(2):
        bank.add_class(rng.normal(size=(2, 8)))
        mem.add_class([int(i) for i in ds.train_indices_of(c)[:2]])
    test_y = np.array([0, 2, 1, 3, 0, 2, 1, 1])
    seen = test_y < 2
    whole = evaluate(model, bank, mem, ds.test_x[:8], test_y, ds.train_x)
    assert whole == evaluate(model, bank, mem, ds.test_x[:8][seen], test_y[seen], ds.train_x)
    with pytest.raises(ContractError, match="no test rows of a seen class"):
        evaluate(model, bank, mem, ds.test_x[:2], np.array([2, 3]), ds.train_x)
    with pytest.raises(ContractError, match="negative test labels"):
        evaluate(model, bank, mem, ds.test_x[:2], np.array([0, -1]), ds.train_x)


def test_evaluate_embeds_the_test_set_once(monkeypatch):
    # one forward pass over the test rows serves both NME and CNN
    import podlearn.protocol as protocol

    ds = _tiny_dataset()
    model = Backbone(_tiny_config().backbone, seed=1)
    bank = ProxyBank(8, 2)
    mem = ExemplarMemory(PerClass(2))
    rng = np.random.default_rng(3)
    for c in range(2):
        bank.add_class(rng.normal(size=(2, 8)))
        mem.add_class([int(i) for i in ds.train_indices_of(c)[:2]])
    test_x, test_y = ds.test_x[:6], np.array([0, 1, 0, 1, 0, 1])
    sizes = []

    def counting(m, x, rows, batch=64):
        sizes.append(rows.size)
        return _embed_all(m, x, rows, batch)

    monkeypatch.setattr(protocol, "_embed_all", counting)
    evaluate(model, bank, mem, test_x, test_y, ds.train_x)
    assert sizes == [4, 6]  # the four exemplars, then the six test rows


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
    runner = IncrementalRunner(sched, _tiny_config(), ds, seed=1)
    rows = [runner.run_next_task() for _ in range(sched.num_tasks)]
    seen = [sched.positions(t).stop for t in range(sched.num_tasks)]
    assert seen == [2, 3, 4]
    assert [row["seen_classes"] for row in rows] == seen
    assert len(runner.metrics.nme_accuracy) == len(runner.metrics.cnn_accuracy) == 3


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


# -- runner state ----------------------------------------------------------------
# test_backbone, test_lsc and test_memory check the parameter, proxy and
# exemplar fields of the same state


def test_runner_state_json_roundtrip_is_bit_exact(first_task_state):
    ds, sched, cfg, runner, state = first_task_state()
    revived = IncrementalRunner.from_state(sched, cfg, ds, state)
    npt.assert_array_equal(revived.train_y, runner.train_y)
    npt.assert_array_equal(revived.test_y, runner.test_y)
    assert revived.metrics == runner.metrics
    assert revived.rng.bit_generator.state == runner.rng.bit_generator.state
    assert revived.to_state() == state


@pytest.mark.parametrize("keys", [("rng",), ("metrics", "nme_accuracy"),
                                  ("metrics", "cnn_accuracy")])
def test_runner_state_names_a_missing_field(first_task_state, keys):
    ds, sched, cfg, _, state = first_task_state()
    node = state
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    with pytest.raises(FormatError) as exc:
        IncrementalRunner.from_state(sched, cfg, ds, state)
    assert "runner." + ".".join(keys) in str(exc.value)


def test_runner_state_rejects_inconsistent_progress(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    for keys, value, named in (
            # more scored tasks than the schedule's 3
            (("metrics", "nme_accuracy"), [0.5] * 4, "metrics.nme_accuracy"),
            # NME and CNN lists of different lengths
            (("metrics", "nme_accuracy"), [], "metrics.cnn_accuracy"),
            (("memory", "per_class"), {"0": [], "1": [], "2": []}, "memory.per_class"),
            (("rng",), {"bit_generator": "PCG64"}, "rng")):
        broken = copy.deepcopy(state)
        node = broken
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(FormatError, match="runner." + named):
            IncrementalRunner.from_state(sched, cfg, ds, broken)


def _first_exemplar_twice(state):
    first, _, *rest = state["memory"]["per_class"]["0"]
    return [first, first, *rest]


@pytest.mark.parametrize("keys, corrupt", [
    (("bank", "eta"), lambda state: -5.0),
    (("bank", "eta"), lambda state: 0.0),  # below the floor eta_init = 1
    (("memory", "per_class", "0"), lambda state: []),
    (("memory", "per_class", "0"), _first_exemplar_twice),
    (("bank", "theta"), lambda state: np.zeros(np.shape(state["bank"]["theta"])).tolist()),
    (("metrics", "nme_accuracy"), lambda state: [7.0]),
    (("backbone", "params", "head.bias", "shape"), lambda state: [-1]),
], ids=["eta_negative", "eta_zero", "exemplars_empty", "exemplar_repeated", "proxies_zero",
        "nme_above_one", "param_shape_minus_one"])
def test_runner_state_no_run_can_write_is_rejected(first_task_state, keys, corrupt):
    # no run writes these values; the load itself must fail, not a later task
    ds, sched, cfg, _, state = first_task_state()
    node = state
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = corrupt(state)
    with pytest.raises(FormatError) as exc:
        IncrementalRunner.from_state(sched, cfg, ds, state)
    assert str(exc.value).startswith("checkpoint field runner." + ".".join(keys) + " ")


def test_fresh_runner_state_round_trips(first_task_state):
    ds, sched, cfg, _, _ = first_task_state()
    state = json.loads(json.dumps(IncrementalRunner(sched, cfg, ds, seed=2).to_state()))
    assert state["metrics"]["nme_accuracy"] == [] and state["bank"]["theta"] == []
    revived = IncrementalRunner.from_state(sched, cfg, ds, state)
    assert revived.bank.theta.shape == (0, cfg.proxies_per_class, cfg.backbone.embedding_dim)
    assert revived.to_state() == state


def test_from_state_takes_margin_and_budget_from_the_config(first_task_state):
    ds, sched, cfg, runner, state = first_task_state(margin=0.6, budget=PerClass(3))
    # stale copies of the saving run's values, as older checkpoints hold them
    state["bank"]["delta"] = 0.6
    state["memory"]["budget"] = {"kind": "per_class", "m": 3}
    other = dataclasses.replace(cfg, margin=0.1, budget=Total(4))
    revived = IncrementalRunner.from_state(sched, other, ds, state)
    # one batch of the first task's rows, scored by the revived classifier
    rows = np.flatnonzero(revived.train_y < 2)[::4]
    with no_grad():
        emb = revived.backbone.forward_with_stages(Tensor(ds.train_x[rows])).embedding
        scores = lsc_scores(emb, revived.bank)
        got = revived._head_loss(emb, revived.train_y[rows]).item()
        want = nca_hinge_loss(scores, revived.train_y[rows], revived.bank.eta, 0.1).item()
        saved = nca_hinge_loss(scores, revived.train_y[rows], revived.bank.eta, 0.6).item()
    assert got == want and got != saved
    assert revived.memory.budget == Total(4)
    # cut to Total(4)'s allocation over the 2 classes seen, as a run would be
    stored = state["memory"]["per_class"]
    assert [len(stored["0"]), len(stored["1"])] == [3, 3]
    assert revived.memory.per_class == [stored["0"][:2], stored["1"][:2]]


def test_from_state_cuts_a_list_longer_than_the_budget(first_task_state):
    # no run writes it, but the load goes through the same cut as a run
    ds, sched, cfg, runner, state = first_task_state(budget=PerClass(3))
    whole = np.flatnonzero(runner.train_y == 0).tolist()
    assert len(whole) == 16
    state["memory"]["per_class"]["0"] = whole
    revived = IncrementalRunner.from_state(sched, cfg, ds, state)
    assert revived.memory.per_class[0] == whole[:3]
    # task 1 trains on its one new class plus 3 exemplars of each old class
    indices, labels = revived._task_train_pool(range(2, 3))
    assert (indices.size, int((labels < 2).sum())) == (22, 6)


def test_memory_covers_all_seen_classes_after_each_task():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=3)
    runner = IncrementalRunner(sched, _tiny_config(budget=Total(9)), ds, seed=3)
    runner.run_next_task()
    assert len(runner.memory.per_class) == 2
    runner.run_next_task()
    assert len(runner.memory.per_class) == 4
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
    rows = np.arange(300)
    npt.assert_allclose(_embed_all(model, x, rows, batch=64),
                        _embed_all(model, x, rows, batch=256), atol=1e-12)


def test_embed_all_of_no_rows_is_empty_at_full_width():
    model = Backbone(BackboneConfig(), seed=3)
    x = np.zeros((5, 3, 8, 8))
    assert _embed_all(model, x, np.arange(0)).shape == (0, 32)


def _forward_copied_rows(model, x, rows_of):
    """The reference: ``x``'s rows gathered first, then 64 per no-grad forward."""
    with no_grad():
        return np.concatenate([rows_of(model.forward_with_stages(Tensor(x[lo : lo + 64])))
                               for lo in range(0, max(x.shape[0], 1), 64)])


def _embedding(outs):
    return outs.embedding.data


def _teacher_rows(outs):
    return pod_targets(outs, PodConfig().mode)


# three chunks, the last one partial; and no rows, which POD rejects
@pytest.mark.parametrize("n_rows, rows_of", [(150, _embedding), (150, _teacher_rows),
                                             (0, _embedding)])
def test_forward_rows_by_index_equals_a_forward_of_the_gathered_rows(n_rows, rows_of):
    model = Backbone(BackboneConfig(), seed=6)
    rng = np.random.default_rng(33)
    x = rng.normal(size=(400, 3, 8, 8))
    rows = rng.choice(400, size=n_rows, replace=False)
    got = _forward_rows(model, x, rows, rows_of)
    want = _forward_copied_rows(model, x[rows], rows_of)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_peak_memory_of_embed_all_over_indexed_rows():
    # 4,000 of 8,000 rows: gathered 64 at a time, never copied whole
    model = Backbone(BackboneConfig(), seed=3)
    x = np.random.default_rng(34).normal(size=(8000, 3, 8, 8))
    rows = np.arange(0, 8000, 2)
    copy_bytes = x[rows].nbytes
    _embed_all(model, x, rows[:64])  # warm up lazily built state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emb = _embed_all(model, x, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert emb.shape == (4000, 32)
    assert peak < copy_bytes, f"peak {peak} bytes, the rows' copy takes {copy_bytes}"


def test_cached_teacher_rows_match_a_fresh_teacher_forward():
    cfg = BackboneConfig()
    teacher = Backbone(cfg, seed=4)
    student = Backbone(cfg, seed=5)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(150, 3, 8, 8))  # three chunks, the last one partial
    targets = _forward_rows(teacher, x, np.arange(150),
                            lambda outs: pod_targets(outs, PodConfig().mode))
    sel = rng.choice(150, size=32, replace=False)
    outs = student.forward_with_stages(Tensor(x[sel]))
    cached = pod_final(targets[sel], outs, PodConfig(), 1.3).item()
    fresh_targets = pod_targets(teacher.forward_with_stages(Tensor(x[sel])), PodConfig().mode)
    fresh = pod_final(fresh_targets, outs, PodConfig(), 1.3).item()
    assert cached == pytest.approx(fresh, abs=1e-12)


def _two_task_runner():
    ds = generate_synthetic_dataset(
        SyntheticSpec(classes=4, samples_per_class=50, channels=2, width=6, height=6), seed=8
    )
    sched = TaskSchedule.build(4, 2, 2, seed=8)
    return ds, sched, IncrementalRunner(sched, _tiny_config(budget=PerClass(10)), ds, seed=8)


def test_teacher_runs_once_per_task_in_chunks_of_64(monkeypatch):
    import podlearn.protocol as protocol

    calls = []

    def counted(outs, mode):
        calls.append(outs.embedding.shape[0])
        return pod_targets(outs, mode)

    monkeypatch.setattr(protocol, "pod_targets", counted)
    ds, sched, runner = _two_task_runner()
    runner.run_next_task()
    assert calls == []  # no teacher on the first task
    pool = runner.memory.total_stored() + sum(
        ds.train_indices_of(c).size for c in sched.task_classes(1)
    )
    runner.run_next_task()
    assert pool > 64  # more than one chunk, and more than one batch per epoch
    assert len(calls) == -(-pool // 64)
    assert sum(calls) == pool


def test_targets_are_the_backbone_before_the_task(monkeypatch):
    # every batch of task 1 distils from the parameters the backbone held
    # before the task, however far training has moved it since
    import podlearn.protocol as protocol

    ds, sched, runner = _two_task_runner()
    runner.run_next_task()
    teacher = copy.deepcopy(runner.backbone)  # its parameters before task 1
    inputs, seen = [], []
    forward = runner.backbone.forward_with_stages

    def recorded(batch):
        inputs.append(batch.data)
        return forward(batch)

    def spy(teacher, student, cfg, scale_factor):
        # pod_final follows the forward of the batch it scores
        seen.append((inputs[-1], teacher.copy()))
        return pod_final(teacher, student, cfg, scale_factor)

    runner.backbone.forward_with_stages = recorded
    monkeypatch.setattr(protocol, "pod_final", spy)
    pool = runner.memory.total_stored() + sum(
        ds.train_indices_of(c).size for c in sched.task_classes(1)
    )
    runner.run_next_task()

    cfg = runner.config
    assert len(seen) == cfg.epochs_per_task * -(-pool // cfg.batch_size)
    moved = max(np.abs(t.data - teacher.params[name].data).max()
                for name, t in runner.backbone.params.items())
    assert moved > 1e-3
    for x, targets in seen:
        with no_grad():
            want = pod_targets(teacher.forward_with_stages(Tensor(x)), cfg.pod.mode)
        npt.assert_allclose(targets, want, rtol=0, atol=1e-12)


def test_balanced_finetune_flag_recorded_and_runs():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=4)
    cfg = _tiny_config(balanced_finetune=True, finetune_epochs=2)
    metrics = run_schedule(sched, cfg, ds, seed=4)
    # the flag is recorded by the config echo in summary.json (see test_cli)
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


def test_balanced_finetune_embeds_the_memory_once(monkeypatch):
    # the backbone is frozen during the finetune: one chunked forward over
    # the memory, none per batch or epoch
    calls = []
    finetune = IncrementalRunner._balanced_finetune

    def spy(runner):
        forward = runner.backbone.forward_with_stages

        def counting(batch):
            calls.append(batch.shape[0])
            return forward(batch)

        runner.backbone.forward_with_stages = counting
        finetune(runner)
        del runner.backbone.forward_with_stages

    monkeypatch.setattr(IncrementalRunner, "_balanced_finetune", spy)
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=4)
    run_schedule(sched, _tiny_config(balanced_finetune=True, finetune_epochs=3), ds, seed=4)
    assert calls == [12]  # 4 classes x PerClass(3), in one chunk


@pytest.mark.parametrize("budget, kept", [
    (PerClass(3), [3, 3, 3, 3, 3]),
    (Total(11), [3, 2, 2, 2, 2]),  # 11 -> 5 + 6 -> ... -> 3 + 2 + 2 + 2 + 2
])
def test_memory_is_the_prefix_of_the_full_herding_order(monkeypatch, budget, kept):
    # herding stops at budget.m; its greedy picks make that the same memory as
    # herding every row and cutting the order to the class's allocation
    import podlearn.protocol as protocol

    full_orders = []

    def spy(features, m):
        assert m == min(features.shape[0], budget.m)
        full_orders.append(herd_select(features, features.shape[0]))
        return herd_select(features, m)

    monkeypatch.setattr(protocol, "herd_select", spy)
    ds = _tiny_dataset(classes=5)
    sched = TaskSchedule.build(5, 2, 1, seed=0)
    runner = IncrementalRunner(sched, _tiny_config(budget=budget), ds, seed=0)
    while not runner.done:
        runner.run_next_task()
    herded = [c for t in range(sched.num_tasks) for c in sched.task_classes(t)]
    assert len(full_orders) == len(herded)
    for c, full in zip(herded, full_orders):
        dense = sched.class_order.index(c)
        idx = ds.train_indices_of(c)
        assert runner.memory.per_class[dense] == [int(idx[i]) for i in full[: kept[dense]]]


def test_labels_are_schedule_positions(monkeypatch):
    # class 4 is outside the schedule: it maps past the end, into no test set
    import podlearn.protocol as protocol

    ds = _tiny_dataset(classes=5)
    sched = TaskSchedule.build(4, 2, 1, seed=0)
    runner = IncrementalRunner(sched, _tiny_config(), ds, seed=0)
    position = {c: i for i, c in enumerate(sched.class_order)}
    for dense, original in ((runner.train_y, ds.train_y), (runner.test_y, ds.test_y)):
        assert dense.dtype == np.int64
        assert dense.tolist() == [position.get(c, 4) for c in original.tolist()]

    test_sets = []

    def spy(model, bank, memory, test_x, test_y, train_x):
        test_sets.append(test_y[test_y < bank.num_classes])  # the rows evaluate scores
        return evaluate(model, bank, memory, test_x, test_y, train_x)

    monkeypatch.setattr(protocol, "evaluate", spy)
    while not runner.done:
        runner.run_next_task()
    assert len(test_sets) == sched.num_tasks
    for t, test_y in enumerate(test_sets):
        seen = sched.positions(t).stop
        want = [position[c] for c in ds.test_y.tolist() if position.get(c, 4) < seen]
        assert test_y.tolist() == want


@pytest.mark.parametrize("case, message", [
    ("train_rows", "class 1 has no training samples"),
    ("fewer_classes", "class 3 has no training samples"),
    ("test_split", r"the first task's classes \[2, 0\] have no test samples"),
    ("total_budget", "Total budget of 3 exemplars cannot keep one for each of the 4 classes"),
    ("one_class_nca", "NCA loss needs >= 2 classes in the first task"),
])
def test_runner_rejects_inputs_that_cannot_serve_the_schedule(case, message):
    # rejected at construction, before any task trains, naming the original class id
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=0)
    cfg = _tiny_config()
    first = sched.task_classes(0)
    if case == "train_rows":
        keep = ds.train_y != 1
        ds = dataclasses.replace(ds, train_x=ds.train_x[keep], train_y=ds.train_y[keep])
    elif case == "fewer_classes":
        ds = _tiny_dataset(classes=3)
    elif case == "test_split":
        later = ~np.isin(ds.test_y, first)
        ds = dataclasses.replace(ds, test_x=ds.test_x[later], test_y=ds.test_y[later])
    elif case == "total_budget":
        cfg = _tiny_config(budget=Total(3))
    else:
        sched = TaskSchedule.build(4, 1, 1, seed=0)
        # CE trains on one class; only NCA needs two
        IncrementalRunner(sched, _tiny_config(classifier_loss="ce"), ds, seed=0)
    with pytest.raises(ContractError, match=f"^{message}$"):
        IncrementalRunner(sched, cfg, ds, seed=0)


def test_ce_classifier_loss_variant_runs():
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 2, seed=6)
    metrics = run_schedule(sched, _tiny_config(classifier_loss="ce"), ds, seed=6)
    assert len(metrics.cnn_accuracy) == 2


def test_runner_validates_dataset_shape():
    ds = _tiny_dataset()
    cfg = _tiny_config(backbone=BackboneConfig(input_shape=(3, 6, 6),
                                               stage_filters=(4, 8),
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
    # a finetune lr <= 0 would run gradient ascent on the proxies, and fewer
    # than 1 finetune epoch would skip the finetune without a word
    for kw, message in ((dict(finetune_lr=-1.0), "bad optimizer settings"),
                        (dict(finetune_lr=0.0), "bad optimizer settings"),
                        (dict(finetune_epochs=-3), "bad training settings"),
                        (dict(finetune_epochs=0), "bad training settings")):
        with pytest.raises(ContractError, match=f"^{message}$"):
            _tiny_config(balanced_finetune=True, **kw)


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


# -- the training step ------------------------------------------------------------


def _off_kink(runner, emb, labels, count=6):
    """Positions of the first ``count`` rows of ``emb`` whose pre-hinge NCA
    value under ``labels`` lies at least 0.02 from the kink."""
    eta, delta = float(runner.bank.eta.data), runner.config.margin
    with no_grad():
        scaled = eta * lsc_scores(Tensor(emb), runner.bank).data
    target = scaled[np.arange(labels.size), labels]
    others = np.log(np.exp(scaled).sum(axis=1) - np.exp(target))
    pre = others - target + eta * delta
    keep = np.flatnonzero(np.abs(pre) >= 0.02)[:count]
    assert keep.size == count and (pre[keep] > 0).any()  # some NCA gradient flows
    return keep


def _step_inputs(classifier_loss, task):
    """A trained runner and the rows, labels, targets and lambda of one step of ``task``.

    At task 1 the targets are those of the backbone before the task, which
    training has since moved away from them. The rows are six of the seen
    classes whose pre-hinge NCA value lies at least 0.02 from the kink.
    """
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=9)
    runner = IncrementalRunner(sched, _tiny_config(classifier_loss=classifier_loss), ds, seed=9)
    for _ in range(task + 1):
        teacher = copy.deepcopy(runner.backbone)
        runner.run_next_task()
    new = sched.positions(task)
    lam = adaptive_scale(new.stop, len(new))

    candidates = np.random.default_rng(9).permutation(np.flatnonzero(runner.train_y < new.stop))
    rows = candidates[_off_kink(runner, _embed_all(runner.backbone, ds.train_x, candidates),
                                runner.train_y[candidates])]
    targets = None
    if task:
        targets = _forward_rows(teacher, ds.train_x, rows,
                                lambda outs: pod_targets(outs, runner.config.pod.mode))
    return runner, rows, runner.train_y[rows], targets, lam


@pytest.mark.parametrize("task", [0, 1])
@pytest.mark.parametrize("classifier_loss", ["nca", "ce"])
def test_step_loss_gradients_of_every_parameter(classifier_loss, task):
    # the loss _train_task differentiates, checked against central differences
    # in every backbone parameter, theta and eta: with the teacher's POD
    # targets and lambda at task 1, classification alone at task 0
    runner, rows, labels, targets, lam = _step_inputs(classifier_loss, task)
    bank = runner.bank
    slots = [(runner.backbone.params, name) for name in runner.backbone.params]
    slots += [(vars(bank), "theta"), (vars(bank), "eta")]
    for holder, name in slots:
        point = Tensor(holder[name].data.copy())

        def loss(value, holder=holder, name=name):
            holder[name] = value
            return runner._step_loss(rows, labels, targets, lam)

        assert gradient_check(loss, point, eps=1e-5) <= 1e-6, name
        holder[name] = Tensor(point.data, requires_grad=True)
    if targets is not None:  # the student has moved off its teacher: POD adds to the loss
        alone = runner._step_loss(rows, labels, None, lam).item()
        assert alone < runner._step_loss(rows, labels, targets, lam).item()


@pytest.mark.parametrize("classifier_loss", ["nca", "ce"])
def test_head_loss_gradients_of_theta_and_eta(classifier_loss):
    # the loss the balanced finetune differentiates: classification of the
    # memory's cached embeddings, checked in theta and eta after task 1
    ds = _tiny_dataset()
    sched = TaskSchedule.build(4, 2, 1, seed=9)
    runner = IncrementalRunner(sched, _tiny_config(classifier_loss=classifier_loss), ds, seed=9)
    runner.run_next_task()
    runner.run_next_task()
    indices = runner.memory.indices()
    emb = _embed_all(runner.backbone, ds.train_x, indices)
    labels = runner.train_y[indices]
    keep = _off_kink(runner, emb, labels)
    bank = vars(runner.bank)
    for name in ("theta", "eta"):
        point = Tensor(bank[name].data.copy())

        def loss(value, name=name):
            bank[name] = value
            return runner._head_loss(Tensor(emb[keep]), labels[keep])

        assert gradient_check(loss, point, eps=1e-5) <= 1e-6, name
        bank[name] = Tensor(point.data, requires_grad=True)


def test_sgd_step_and_eta_floor_match_numpy(first_task_state):
    # the optimizer of a task, stepped on the gradients of _step_loss:
    # v <- mu v + g + 5e-4 p on the backbone weights and theta, eta moved by
    # its gradient alone and then floored at eta_init
    ds, sched, cfg, runner, _ = first_task_state(eta_init=1.5)
    params = runner.backbone.parameters() + runner.bank.parameters()
    assert params[-1] is runner.bank.eta and WEIGHT_DECAY == 5e-4
    lr, mu = 0.05, cfg.momentum
    opt = SGD(params, lr, mu, WEIGHT_DECAY, (runner.bank.eta,))
    rows = np.flatnonzero(runner.train_y < 2)[::3]
    want = [p.data.copy() for p in params]
    velocity = [np.zeros_like(w) for w in want]
    for eta_grad in (None, 1e3):  # the second step drives eta below its floor
        opt.zero_grad()
        runner._step_loss(rows, runner.train_y[rows], None, 1.0).backward()
        if eta_grad is not None:
            runner.bank.eta.grad = np.asarray(eta_grad)
        grads = [p.grad.copy() for p in params]
        opt.step()
        runner.bank.clamp_eta()
        for i, g in enumerate(grads):
            decay = 0.0 if i == len(params) - 1 else 5e-4
            velocity[i] = mu * velocity[i] + g + decay * want[i]
            want[i] = want[i] - lr * velocity[i]
        want[-1] = np.maximum(want[-1], 1.5)
        for p, w in zip(params, want):
            npt.assert_array_equal(p.data, w)
    assert float(runner.bank.eta.data) == 1.5


@pytest.mark.parametrize("kw", [
    {},
    dict(classifier_loss="ce", budget=Total(7), balanced_finetune=True, finetune_epochs=2),
], ids=["nca_per_class", "ce_total_finetune"])
def test_renamed_classes_give_a_byte_identical_run(kw):
    # rename every class by pi, and the schedule's order with it: each label is
    # the same schedule position, so the state and both accuracy lists after
    # every task are byte-identical
    ds = _tiny_dataset(classes=5)
    sched = TaskSchedule.build(5, 2, 1, seed=3)
    pi = np.array([3, 0, 4, 1, 2])
    renamed = dataclasses.replace(ds, train_y=pi[ds.train_y], test_y=pi[ds.test_y])
    renamed_sched = TaskSchedule(tuple(int(pi[c]) for c in sched.class_order), 2, 1)
    assert renamed_sched.class_order != sched.class_order
    cfg = _tiny_config(**kw)
    plain = IncrementalRunner(sched, cfg, ds, seed=3)
    moved = IncrementalRunner(renamed_sched, cfg, renamed, seed=3)
    while not plain.done:
        assert plain.run_next_task() == moved.run_next_task()
        assert json.dumps(plain.to_state()) == json.dumps(moved.to_state())
        for series in ("nme_accuracy", "cnn_accuracy"):
            a, b = (json.dumps(getattr(r.metrics, series)) for r in (plain, moved))
            assert a == b
    assert moved.done


def test_failure_carries_task_index(monkeypatch):
    import podlearn.protocol as protocol

    def failing(*args):
        raise ContractError("evaluation failed")

    monkeypatch.setattr(protocol, "evaluate", failing)
    runner = IncrementalRunner(TaskSchedule.build(4, 2, 1, seed=0), _tiny_config(),
                               _tiny_dataset(), seed=0)
    with pytest.raises(ContractError) as exc:
        runner.run_next_task()
    assert "task 0" in str(exc.value)
