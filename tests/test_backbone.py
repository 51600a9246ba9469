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
from podlearn.tensor import Tensor, _scatter_index, add, mul, tsum

from oracles import backbone_by_ops


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
    cls = nca_hinge_loss(scores, np.array([0, 2, 1, 0]), bank.eta, 0.6)
    pod = pod_final(targets, outs, PodConfig(), 1.5)
    loss = cls + pod
    loss.backward()
    for t in [*outs.stage_maps, outs.embedding, scores, cls, pod, loss]:
        assert t.requires_grad and t.grad is None
    for p in student.parameters() + bank.parameters():
        assert p.grad is not None and p.grad.shape == p.shape


def _weighted_outputs(maps, embedding, weights):
    """sum_k <weights[k], output k>, over the outputs whose weight is not None."""
    terms = [tsum(mul(t, Tensor(wt))) for t, wt in zip([*maps, embedding], weights)
             if wt is not None]
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return total


@pytest.mark.parametrize("with_pod", [True, False], ids=["pod", "no_pod"])
def test_fused_backbone_gradients_of_every_parameter(with_pod):
    # two blocks per stage (a stride-1 conv takes an input gradient) on
    # non-square maps; POD's gradients reach every stage map, or none does
    cfg = BackboneConfig(input_shape=(3, 8, 6), stage_filters=(3, 4),
                         blocks_per_stage=2, embedding_dim=5)
    student = Backbone(cfg, seed=3)
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(2, *cfg.input_shape)))
    targets = pod_targets(Backbone(cfg, seed=4).forward_with_stages(x), PodConfig().mode)
    emb_weights = rng.normal(size=(2, 5))

    def loss_at(batch):
        outs = student.forward_with_stages(batch)
        total = tsum(mul(outs.embedding, Tensor(emb_weights)))
        if with_pod:
            total = add(total, pod_final(targets, outs, PodConfig(), 1.5))
        return total

    def loss_of(name):
        def loss(param):
            student.params[name] = param
            return loss_at(x)
        return loss

    for name in list(student.params):
        point = Tensor(student.params[name].data.copy())
        assert gradient_check(loss_of(name), point, eps=1e-5) <= 1e-6, name
        student.params[name] = Tensor(point.data, requires_grad=True)
    assert gradient_check(loss_at, x, eps=1e-5) <= 1e-6  # and the input batch


@pytest.mark.parametrize("cfg, batch, bitwise", [
    (BackboneConfig(), 32, True),
    (BackboneConfig(), 1, True),
    (BackboneConfig(input_shape=(3, 8, 6), stage_filters=(3, 4), blocks_per_stage=2,
                    embedding_dim=5), 8, True),
    (BackboneConfig(input_shape=(2, 5, 7), stage_filters=(4, 6, 8), embedding_dim=3), 33, False),
], ids=["a5", "single", "two_blocks", "odd"])
def test_fused_backbone_equals_the_op_chain(cfg, batch, bitwise):
    # Each conv's GEMM has the same operands in both, its columns permuted:
    # (i, j, b) in the fused node, (b, i, j) in conv2d. The forward is
    # bitwise equal when no column moves into or out of the few last columns
    # that BLAS may finish with a tail kernel: a batch of 1, or one whose
    # size is a multiple of 8. The gradients agree to rounding, because the
    # fused weight and bias gradients also sum over (i, j, b).
    rng = np.random.default_rng(batch)
    x_val = rng.normal(size=(batch, *cfg.input_shape))
    fused, chain = Backbone(cfg, seed=5), Backbone(cfg, seed=5)
    x_fused, x_chain = Tensor(x_val, requires_grad=True), Tensor(x_val, requires_grad=True)
    outs = fused.forward_with_stages(x_fused)
    maps, embedding = backbone_by_ops(chain, x_chain)
    for got, want in zip([*outs.stage_maps, outs.embedding], [*maps, embedding]):
        assert got.shape == want.shape
        if bitwise:
            assert got.data.tobytes() == want.data.tobytes()
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(want.data).max()
    # gradients on every output but the first stage map, as with lambda_c
    # applied to later stages only
    weights = [None] + [rng.normal(size=t.shape) for t in [*maps[1:], embedding]]
    _weighted_outputs(outs.stage_maps, outs.embedding, weights).backward()
    _weighted_outputs(maps, embedding, weights).backward()
    pairs = [(x_fused.grad, x_chain.grad)]
    pairs += [(fused.params[n].grad, chain.params[n].grad) for n in fused.params]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_scatter_index_cache_stays_bounded_over_70_batch_sizes():
    _scatter_index.cache_clear()
    cfg = BackboneConfig(input_shape=(2, 6, 6), stage_filters=(3, 4), embedding_dim=3)
    model = Backbone(cfg, seed=6)
    rng = np.random.default_rng(4)
    bound = _scatter_index.cache_info().maxsize
    for batch in range(1, 71):
        outs = model.forward_with_stages(Tensor(rng.normal(size=(batch, *cfg.input_shape))))
        tsum(outs.embedding).backward()
        assert _scatter_index.cache_info().currsize <= bound
    assert bound <= 4
    # one stride-2 conv takes an input gradient: one miss per batch size
    assert _scatter_index.cache_info().misses == 70
    index = _scatter_index(3, 8, 8, 3, 3, 2, 3, 3, 70)
    assert _scatter_index.cache_info().hits == 1
    with pytest.raises(ValueError):
        index[0] = 0


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


def test_checkpoint_bytes_equal_the_streaming_encoder(first_task_state, tmp_path):
    # the one-shot C encoder writes the bytes the pure-Python iterencode did
    _, _, _, runner, _ = first_task_state()
    echo = {"seed": 0, "dataset": "synthetic", "lr": 0.1}
    state = runner.to_state()
    path = tmp_path / "checkpoint.json"
    save_run_checkpoint(str(path), echo, state)
    streamed = "".join(json.JSONEncoder().iterencode(
        {"version": 1, "config": echo, "runner": state}))
    assert path.read_bytes() == streamed.encode()


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
