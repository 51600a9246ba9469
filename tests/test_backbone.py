import copy
import json

import numpy as np
import numpy.testing as npt
import pytest

from podlearn.backbone import Backbone, BackboneConfig
from podlearn.checkpoint import load_run_checkpoint, save_run_checkpoint, write_text_atomic
from podlearn.errors import ContractError, FormatError, ShapeError
from podlearn.gradcheck import gradient_check
from podlearn.lsc import ProxyBank, lsc_scores, nca_hinge_loss
from podlearn.pod import PodConfig, pod_final, pod_targets
from podlearn.protocol import IncrementalRunner
from podlearn.tensor import Tensor


def _default():
    return Backbone(BackboneConfig(), seed=42)


def test_config_validation():
    with pytest.raises(ContractError):
        BackboneConfig(stage_filters=(8,))  # need >= 2 stages
    with pytest.raises(ContractError):
        BackboneConfig(embedding_dim=0)
    with pytest.raises(ContractError):
        BackboneConfig(input_shape=(0, 8, 8))
    # stride-2 entries with padding keep every extent >= 1
    deep = Backbone(BackboneConfig(input_shape=(3, 2, 2),
                                   stage_filters=(4, 8, 8, 8)))
    maps = deep.forward_with_stages(Tensor(np.zeros((1, 3, 2, 2)))).stage_maps
    assert [m.shape for m in maps] == [(1, 4, 2, 2), (1, 8, 1, 1), (1, 8, 1, 1), (1, 8, 1, 1)]


def test_forward_shapes_match_config():
    model = _default()
    out = model.forward_with_stages(Tensor(np.zeros((2, 3, 8, 8))))
    assert [m.shape for m in out.stage_maps] == [(2, 8, 8, 8), (2, 16, 4, 4), (2, 32, 2, 2)]
    assert out.embedding.shape == (2, 32)


def test_zero_input_zero_head_gives_bias_embedding():
    model = _default()
    model.params["head.weight"] = Tensor(
        np.zeros_like(model.params["head.weight"].data), requires_grad=True
    )
    bias = np.linspace(-1, 1, 32)
    model.params["head.bias"] = Tensor(bias.copy(), requires_grad=True)
    out = model.forward_with_stages(Tensor(np.zeros((2, 3, 8, 8))))
    npt.assert_allclose(out.embedding.data, np.tile(bias, (2, 1)), atol=1e-15)


def test_batch_forward_equals_stacked_singles():
    rng = np.random.default_rng(0)
    model = _default()
    batch = rng.normal(size=(3, 3, 8, 8))
    full = model.forward_with_stages(Tensor(batch))
    for i in range(3):
        single = model.forward_with_stages(Tensor(batch[i : i + 1]))
        npt.assert_allclose(full.embedding.data[i], single.embedding.data[0], atol=1e-12)
        for fm, sm in zip(full.stage_maps, single.stage_maps):
            npt.assert_allclose(fm.data[i], sm.data[0], atol=1e-12)


def test_gradients_through_whole_training_graph_into_conv_weight():
    # backbone -> pod_final + lsc_scores -> nca_hinge_loss, the graph one
    # training step differentiates, checked against central differences with
    # respect to the first stage's conv weight
    cfg = BackboneConfig(input_shape=(2, 6, 5), stage_filters=(3, 4), embedding_dim=5)
    student = Backbone(cfg, seed=1)
    teacher = Backbone(cfg, seed=2)
    rng = np.random.default_rng(30)
    x = Tensor(rng.normal(size=(3, 2, 6, 5)))
    bank = ProxyBank(5, 2)
    for _ in range(3):
        bank.add_class(rng.normal(size=(2, 5)))
    labels = np.array([0, 2, 1])
    t_outs = pod_targets(teacher.forward_with_stages(x), PodConfig().mode)
    name = "stage0.block0.weight"

    def composite(weight):
        student.params[name] = weight
        outs = student.forward_with_stages(x)
        scores = lsc_scores(outs.embedding, bank)
        cls = nca_hinge_loss(scores, labels, eta=2.0, delta=0.4)
        return cls + pod_final(t_outs, outs, PodConfig(), 1.5)

    point = Tensor(student.params[name].data.copy())
    composite(point)
    scores = lsc_scores(student.forward_with_stages(x).embedding, bank).data
    for i in range(labels.size):  # every sample away from the hinge kink
        row = Tensor(scores[i : i + 1])
        assert nca_hinge_loss(row, labels[i : i + 1], 2.0, 0.4).item() > 0.05
    assert gradient_check(composite, point, eps=1e-5) <= 1e-4


def test_backward_leaves_grads_on_leaves_only():
    # one distillation step's graph at the default geometry: the parameters
    # (leaves) receive .grad, no intermediate result does
    cfg = BackboneConfig()
    student = Backbone(cfg, seed=1)
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(4, *cfg.input_shape)))
    targets = pod_targets(Backbone(cfg, seed=2).forward_with_stages(x), PodConfig().mode)
    bank = ProxyBank(cfg.embedding_dim, 2)
    for _ in range(3):
        bank.add_class(rng.normal(size=(2, cfg.embedding_dim)))
    outs = student.forward_with_stages(x)
    scores = lsc_scores(outs.embedding, bank)
    cls = nca_hinge_loss(scores, np.array([0, 2, 1, 0]), bank.eta, bank.delta)
    pod = pod_final(targets, outs, PodConfig(), 1.5)
    loss = cls + pod
    loss.backward()
    for t in [*outs.stage_maps, outs.embedding, scores, cls, pod, loss]:
        assert t.requires_grad and t.grad is None
    for p in student.parameters() + bank.parameters():
        assert p.grad is not None and p.grad.shape == p.shape


def test_last_stage_map_attains_negative_values():
    rng = np.random.default_rng(1)
    model = _default()
    out = model.forward_with_stages(Tensor(rng.normal(size=(4, 3, 8, 8))))
    assert (out.stage_maps[-1].data < 0).any()


def test_batch_shape_mismatch_rejected():
    model = _default()
    with pytest.raises(ShapeError):
        model.forward_with_stages(Tensor(np.zeros((2, 3, 8, 7))))
    with pytest.raises(ShapeError):
        model.forward_with_stages(Tensor(np.zeros((3, 8, 8))))


def test_determinism_same_seed_bitwise():
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(2, 3, 8, 8))
    a = Backbone(BackboneConfig(), seed=7).forward_with_stages(Tensor(batch))
    b = Backbone(BackboneConfig(), seed=7).forward_with_stages(Tensor(batch))
    assert (a.embedding.data == b.embedding.data).all()
    for am, bm in zip(a.stage_maps, b.stage_maps):
        assert (am.data == bm.data).all()


# -- checkpointing ----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(first_task_state):
    ds, sched, cfg, runner, state = first_task_state()
    loaded = IncrementalRunner.from_state(sched, cfg, ds, state).backbone
    assert list(loaded.params) == list(runner.backbone.params)
    for name, p in runner.backbone.params.items():
        assert loaded.params[name].data.tobytes() == p.data.tobytes()
        assert loaded.params[name].requires_grad
    batch = Tensor(ds.train_x[:5])
    a = runner.backbone.forward_with_stages(batch).embedding.data
    b = loaded.forward_with_stages(batch).embedding.data
    assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_run_checkpoint(str(path), {}, {})
    blob = json.loads(path.read_text())
    blob["version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(FormatError, match="version 99"):
        load_run_checkpoint(str(path))


def test_failed_atomic_write_leaves_no_temporary_file(tmp_path):
    def chunks():
        yield "partial"
        raise RuntimeError("chunk source failed")

    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="chunk source failed"):
        write_text_atomic(str(path), chunks())
    assert sorted(tmp_path.iterdir()) == []
    path.mkdir()  # the rename over a directory fails after a whole write
    with pytest.raises(IsADirectoryError):
        write_text_atomic(str(path), ["whole"])
    assert sorted(tmp_path.iterdir()) == [path]


def test_checkpoint_names_a_missing_nested_field(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    for keys in (("params", "head.bias", "values"), ("params", "stage0.block0.weight", "shape"),
                 ("params",)):
        broken = copy.deepcopy(state)
        node = broken["backbone"]
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        with pytest.raises(FormatError) as exc:
            IncrementalRunner.from_state(sched, cfg, ds, broken)
        assert "runner.backbone." + ".".join(keys) in str(exc.value)


def test_checkpoint_rejects_a_wrong_parameter_shape_or_name(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    broken = copy.deepcopy(state)
    p = broken["backbone"]["params"]["stage0.block0.weight"]
    p["shape"] = p["shape"][::-1]  # same entry count, another shape
    with pytest.raises(FormatError, match=r"runner\.backbone\.params.*stage0\.block0\.weight"):
        IncrementalRunner.from_state(sched, cfg, ds, broken)
    broken = copy.deepcopy(state)
    broken["backbone"]["params"]["head.bias"]["values"].pop()
    with pytest.raises(FormatError, match=r"runner\.backbone\.params\.head\.bias"):
        IncrementalRunner.from_state(sched, cfg, ds, broken)
    broken = copy.deepcopy(state)
    broken["backbone"]["params"]["extra"] = broken["backbone"]["params"].pop("head.bias")
    with pytest.raises(FormatError, match=r"runner\.backbone\.params.*extra"):
        IncrementalRunner.from_state(sched, cfg, ds, broken)
