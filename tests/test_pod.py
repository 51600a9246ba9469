import numpy as np
import numpy.testing as npt
import pytest

from podlearn.backbone import StageOutputs
from podlearn.errors import ContractError, ShapeError
from podlearn.gradcheck import gradient_check
from podlearn.pod import PodConfig, PodMode, pod_final, pod_targets
from podlearn.pod import _POOLED_AXES, _pooled
from podlearn.tensor import Tensor, unit_vectors

from oracles import pod_final_oracle, pod_flat_oracle, pod_pooled_oracle, pooled_vector
from pod_helpers import pod_embedding, pod_map

MODES = [PodMode.PIXEL, PodMode.CHANNEL, PodMode.GAP, PodMode.WIDTH,
         PodMode.HEIGHT, PodMode.SPATIAL]


@pytest.mark.parametrize("mode", MODES)
def test_identical_inputs_give_zero(mode):
    a = np.random.default_rng(0).normal(size=(2, 2, 3, 3))
    assert pod_map(a, Tensor(a), mode).item() == 0.0


def test_checkerboard_symmetry_case():
    # squared row sums and column sums are [1, 1] for both maps, so width,
    # height, and spatial vanish while pixel sees the difference
    a = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
    b = Tensor(np.array([[[[0.0, 1.0], [1.0, 0.0]]]]))
    assert pod_map(a, b, PodMode.WIDTH).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_map(a, b, PodMode.HEIGHT).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_map(a, b, PodMode.SPATIAL).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_map(a, b, PodMode.PIXEL).item() > 0.0


def test_channel_mode_ignores_channel_permutation():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 3, 4, 4))
    b = a[:, [2, 0, 1], :, :]
    loss = pod_map(a, Tensor(b), PodMode.CHANNEL)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("mode", MODES)
def test_matches_scalar_oracle(mode):
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=(2, 2, 3, 3))
        got = pod_map(a, Tensor(b), mode).item()
        want = pod_pooled_oracle(a.tolist(), b.tolist(), mode.value)
        assert got == pytest.approx(want, abs=1e-12)


# the backbone's stage geometries, then odd and non-square ones
POOL_SHAPES = [(2, 3, 8, 8), (2, 5, 4, 4), (3, 4, 2, 2), (2, 3, 5, 7), (1, 1, 6, 9)]


def _loop_pooled(sq, mode):
    """Per-sample pooled rows of ``sq`` by the loop reference, one array per group."""
    groups = ("width", "height") if mode is PodMode.SPATIAL else (mode.value,)
    return [np.array([pooled_vector(s.tolist(), g) for s in sq]) for g in groups]


@pytest.mark.parametrize("mode", MODES)
def test_pooled_rows_bitwise_equal_the_loop_reference_on_exact_sums(mode):
    # squares of small integers sum exactly in any order, so every pooled row
    # must match the loop's to the last bit whatever order numpy or BLAS uses
    rng = np.random.default_rng(5)
    for shape in POOL_SHAPES:
        sq = rng.integers(-7, 8, size=shape).astype(float) ** 2
        got, want = _pooled(sq, mode), _loop_pooled(sq, mode)
        assert len(got) == len(want)
        for g, ref in zip(got, want):
            assert g.reshape(shape[0], -1).tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_pooled_rows_match_the_loop_reference_on_random_maps(mode):
    # general floats: the summation order is numpy's or the BLAS kernel's
    rng = np.random.default_rng(6)
    for shape in POOL_SHAPES:
        sq = rng.normal(size=shape) ** 2
        for g, ref in zip(_pooled(sq, mode), _loop_pooled(sq, mode)):
            npt.assert_allclose(g.reshape(shape[0], -1), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("mode", MODES)
def test_pooled_rows_match_the_axis_sums(mode):
    # width pooling adds rows in index order, as numpy's axis sum does, so it
    # is bitwise; height pooling is a BLAS matrix-vector product, whose
    # summation order may differ from numpy's pairwise tree by a few ulp
    rng = np.random.default_rng(7)
    for shape in POOL_SHAPES + [(4, 8, 32, 32)]:
        sq = rng.normal(size=shape) ** 2
        for axes, g in zip(_POOLED_AXES[mode], _pooled(sq, mode)):
            ref = sq.sum(axis=axes)
            if axes == (3,):
                npt.assert_allclose(g, ref, rtol=1e-15 * shape[3], atol=0)
            else:
                assert g.tobytes() == ref.tobytes()


def test_spatial_is_exactly_width_plus_height():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.normal(size=(2, 3, 4, 5))
        b = Tensor(rng.normal(size=(2, 3, 4, 5)))
        w = pod_map(a, b, PodMode.WIDTH).item()
        h = pod_map(a, b, PodMode.HEIGHT).item()
        s = pod_map(a, b, PodMode.SPATIAL).item()
        assert s == w + h  # exact: same floating-point operations


@pytest.mark.parametrize("mode", MODES)
def test_symmetry_in_arguments(mode):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=(2, 2, 3, 3))
    npt.assert_allclose(
        pod_map(a, Tensor(b), mode).item(), pod_map(b, Tensor(a), mode).item(), atol=1e-12
    )


def test_non_square_maps_supported():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1, 2, 5, 3))
    b = rng.normal(size=(1, 2, 5, 3))
    for mode in MODES:
        got = pod_map(a, Tensor(b), mode).item()
        want = pod_pooled_oracle(a.tolist(), b.tolist(), mode.value)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_gradient_into_second_argument(mode):
    # into the student, the only side gradients reach, on non-square maps of
    # two samples (A1 checks single 3 x 3 ones)
    rng = np.random.default_rng(20)
    fixed = rng.normal(size=(2, 2, 3, 4))
    for _ in range(5):
        point = Tensor(rng.normal(size=(2, 2, 3, 4)))
        assert gradient_check(lambda t: pod_map(fixed, t, mode), point, eps=1e-5) <= 1e-4


def test_shape_mismatch_rejected():
    # a map of another size gives pixel targets of another width
    with pytest.raises(ShapeError, match=r"targets \(1, 19\).*expected \(1, 25\)"):
        pod_map(np.zeros((1, 2, 3, 3)), Tensor(np.zeros((1, 2, 3, 4))), PodMode.PIXEL)
    # an empty batch is rejected by _rows, which pod_final shares with pod_targets
    with pytest.raises(ShapeError, match="at least one sample"):
        pod_final(np.zeros((0, 4)), StageOutputs([], Tensor(np.zeros((0, 4)))),
                  PodConfig(0.0, 1.0), 1.0)


# -- flat embedding constraint ------------------------------------------------


def test_flat_identical_is_zero():
    h = np.random.default_rng(7).normal(size=(3, 8))
    assert pod_embedding(h, Tensor(h)).item() == 0.0


def test_flat_scale_invariance():
    h = np.random.default_rng(8).normal(size=(3, 8))
    assert pod_embedding(h, Tensor(2.0 * h)).item() == pytest.approx(0.0, abs=1e-15)


def test_flat_antipodal_is_four():
    h = np.random.default_rng(9).normal(size=(3, 8))
    assert pod_embedding(h, Tensor(-h)).item() == pytest.approx(4.0, abs=1e-12)


def test_flat_matches_oracle():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(4, 6))
    got = pod_embedding(a, Tensor(b)).item()
    assert got == pytest.approx(pod_flat_oracle(a.tolist(), b.tolist()), abs=1e-12)


def test_flat_gradient_into_second_argument():
    rng = np.random.default_rng(24)
    fixed = rng.normal(size=(3, 5))
    for _ in range(5):
        point = Tensor(rng.normal(size=(3, 5)))
        assert gradient_check(lambda t: pod_embedding(fixed, t), point, eps=1e-5) <= 1e-4


# -- combined loss --------------------------------------------------------------


def _random_outputs(rng, shapes=((2, 2, 3, 3),) * 2, dim=5):
    maps = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    emb = Tensor(rng.normal(size=(shapes[0][0], dim)), requires_grad=True)
    return StageOutputs(stage_maps=maps, embedding=emb)


def test_final_reduces_to_flat_when_lambda_c_zero():
    rng = np.random.default_rng(11)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig(lambda_c=0.0, lambda_f=2.0)
    got = pod_final(pod_targets(t, cfg.mode), s, cfg, scale_factor=3.0).item()
    want = 3.0 * 2.0 * pod_embedding(t.embedding.data, s.embedding).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_final_reduces_to_stage_mean_when_lambda_f_zero():
    rng = np.random.default_rng(12)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig(lambda_c=4.0, lambda_f=0.0, mode=PodMode.PIXEL)
    got = pod_final(pod_targets(t, cfg.mode), s, cfg, scale_factor=1.0).item()
    per_stage = [
        pod_map(tm.data, sm, PodMode.PIXEL).item()
        for tm, sm in zip(t.stage_maps, s.stage_maps)
    ]
    assert got == pytest.approx(4.0 * sum(per_stage) / 2, abs=1e-12)


def _dead_stage0(outs):
    """``outs`` with sample 0's stage-0 map zeroed, as a relu can leave it, and
    then shrunk to 1e-6: either way that sample's stage-0 segments are dead
    (norm at most 1e-8) while its other segments stay alive."""
    for factor in (0.0, 1e-6):
        maps = [Tensor(m.data.copy()) for m in outs.stage_maps]
        maps[0].data[0] *= factor
        yield StageOutputs(maps, outs.embedding)


def test_final_default_weights_match_oracle():
    rng = np.random.default_rng(13)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig()  # lambda_c=3, lambda_f=1, spatial
    for student in (s, *_dead_stage0(s)):
        got = pod_final(pod_targets(t, cfg.mode), student, cfg, scale_factor=2.5).item()
        want = pod_final_oracle(
            [m.data.tolist() for m in t.stage_maps],
            [m.data.tolist() for m in student.stage_maps],
            t.embedding.data.tolist(),
            student.embedding.data.tolist(),
            "spatial", 3.0, 1.0, 2.5,
        )
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_final_gradients_into_each_student_input(mode):
    # non-square maps of two sizes, so a vjp that mixes up axes or stages fails
    rng = np.random.default_rng(21)
    shapes = [(2, 2, 3, 4), (2, 3, 2, 3)]

    def outputs():
        return StageOutputs([Tensor(rng.normal(size=s)) for s in shapes],
                            Tensor(rng.normal(size=(2, 5))))

    cfg = PodConfig(lambda_c=3.0, lambda_f=2.0, mode=mode)
    teacher, student = pod_targets(outputs(), mode), outputs()
    for outs in (student, *_dead_stage0(student)):
        inputs = [*outs.stage_maps, outs.embedding]
        for i, point in enumerate(inputs):
            def loss(t, i=i, inputs=inputs):
                swapped = inputs[:i] + [t] + inputs[i + 1 :]
                return pod_final(teacher, StageOutputs(swapped[:-1], swapped[-1]), cfg, 1.7)

            assert gradient_check(loss, Tensor(point.data), eps=1e-5) <= 1e-4


@pytest.mark.parametrize("mode", MODES)
def test_final_against_own_targets_is_exactly_zero(mode):
    # teacher and student rows come from the one builder, so a forward
    # compared with its own targets matches to the last bit
    s = _random_outputs(np.random.default_rng(26))
    loss = pod_final(pod_targets(s, mode), s, PodConfig(mode=mode), 1.7)
    assert loss.item() == 0.0
    loss.backward()
    for t in [*s.stage_maps, s.embedding]:
        assert not t.grad.any()


def test_final_zero_weight_gives_exactly_zero_gradient():
    rng = np.random.default_rng(27)
    teacher = pod_targets(_random_outputs(rng), PodMode.SPATIAL)
    for cfg in (PodConfig(lambda_c=0.0), PodConfig(lambda_f=0.0)):
        s = _random_outputs(rng)
        pod_final(teacher, s, cfg, 1.7).backward()
        for t, weight in [*((m, cfg.lambda_c) for m in s.stage_maps), (s.embedding, cfg.lambda_f)]:
            assert t.grad.any() == (weight > 0)


@pytest.mark.parametrize("mode", MODES)
def test_builder_rows_match_per_group_unit_vectors(mode):
    # each segment normalized on its own, with norms from one np.add.reduceat
    # and a reciprocal, where unit_vectors uses np.sum and a division: at most
    # 2.95 ulp apart (6.6e-16 relative) over 40 seeds of these shapes
    rng = np.random.default_rng(28)
    a5 = ([(32, 8, 8, 8), (32, 16, 4, 4), (32, 32, 2, 2)], 32)
    for shapes, dim in (a5, ([(4, 8, 32, 32)], 16)):
        s = _random_outputs(rng, shapes, dim)
        want = np.concatenate(
            [unit_vectors(p.reshape(len(p), -1))[0]
             for m in s.stage_maps for p in _pooled(m.data * m.data, mode)]
            + [unit_vectors(s.embedding.data)[0]], axis=1)
        npt.assert_allclose(pod_targets(s, mode), want, rtol=1e-15, atol=0)


def test_final_stage_count_mismatch_rejected():
    rng = np.random.default_rng(14)
    with pytest.raises(ShapeError):
        pod_final(pod_targets(_random_outputs(rng), PodMode.SPATIAL),
                  _random_outputs(rng, ((2, 2, 3, 3),) * 3), PodConfig(), 1.0)


def test_final_rejects_targets_of_another_mode_or_batch():
    rng = np.random.default_rng(25)
    t, s = _random_outputs(rng), _random_outputs(rng)
    with pytest.raises(ShapeError, match=r"\(2, 9\).*spatial"):
        pod_final(pod_targets(t, PodMode.GAP), s, PodConfig(mode=PodMode.SPATIAL), 1.0)
    with pytest.raises(ShapeError, match=r"\(1, 29\).*expected \(2, 29\)"):
        pod_final(pod_targets(t, PodMode.SPATIAL)[:1], s, PodConfig(), 1.0)


def test_final_requires_positive_scale():
    rng = np.random.default_rng(15)
    with pytest.raises(ContractError):
        pod_final(pod_targets(_random_outputs(rng), PodMode.SPATIAL),
                  _random_outputs(rng), PodConfig(), 0.0)


def test_config_rejects_negative_weights():
    with pytest.raises(ContractError):
        PodConfig(lambda_c=-1.0)


# -- invariance ladder ----------------------------------------------------------


def test_gap_mode_ignores_spatial_permutation():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(1, 3, 4, 4))
    flat = a.reshape(1, 3, 16)
    perm = rng.permutation(16)
    b = flat[:, :, perm].reshape(1, 3, 4, 4)
    assert pod_map(a, Tensor(b), PodMode.GAP).item() == pytest.approx(
        0.0, abs=1e-15
    )


def test_width_mode_ignores_permutation_along_width():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(1, 2, 5, 3))
    b = a[:, :, rng.permutation(5), :]
    assert pod_map(a, Tensor(b), PodMode.WIDTH).item() == pytest.approx(
        0.0, abs=1e-15
    )
    # but pixel mode sees it (general position)
    assert pod_map(a, Tensor(b), PodMode.PIXEL).item() > 1e-6


def test_height_mode_ignores_permutation_along_height():
    rng = np.random.default_rng(18)
    a = rng.normal(size=(1, 2, 3, 5))
    b = a[:, :, :, rng.permutation(5)]
    assert pod_map(a, Tensor(b), PodMode.HEIGHT).item() == pytest.approx(
        0.0, abs=1e-15
    )


def test_pixel_mode_zero_only_at_identity():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(1, 2, 3, 3))
    perm = np.array([1, 0, 2])
    b = a[:, :, perm, :]
    assert pod_map(a, Tensor(b), PodMode.PIXEL).item() > 1e-6
