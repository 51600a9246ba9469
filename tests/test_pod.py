import numpy as np
import numpy.testing as npt
import pytest

from podlearn.backbone import StageOutputs
from podlearn.errors import ContractError, ShapeError
from podlearn.pod import PodConfig, PodMode, pod_final, pod_flat, pod_pooled
from podlearn.tensor import Tensor

from oracles import pod_final_oracle, pod_flat_oracle, pod_pooled_oracle

MODES = [PodMode.PIXEL, PodMode.CHANNEL, PodMode.GAP, PodMode.WIDTH,
         PodMode.HEIGHT, PodMode.SPATIAL]


@pytest.mark.parametrize("mode", MODES)
def test_identical_inputs_give_zero(mode):
    a = Tensor(np.random.default_rng(0).normal(size=(2, 2, 3, 3)))
    assert pod_pooled(a, a, mode).item() == 0.0


def test_checkerboard_symmetry_case():
    # squared row sums and column sums are [1, 1] for both maps, so width,
    # height, and spatial vanish while pixel sees the difference
    a = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    b = Tensor(np.array([[[[0.0, 1.0], [1.0, 0.0]]]]))
    assert pod_pooled(a, b, PodMode.WIDTH).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_pooled(a, b, PodMode.HEIGHT).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_pooled(a, b, PodMode.SPATIAL).item() == pytest.approx(0.0, abs=1e-15)
    assert pod_pooled(a, b, PodMode.PIXEL).item() > 0.0


def test_channel_mode_ignores_channel_permutation():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1, 3, 4, 4))
    b = a[:, [2, 0, 1], :, :]
    loss = pod_pooled(Tensor(a), Tensor(b), PodMode.CHANNEL)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("mode", MODES)
def test_matches_scalar_oracle(mode):
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=(2, 2, 3, 3))
        got = pod_pooled(Tensor(a), Tensor(b), mode).item()
        want = pod_pooled_oracle(a.tolist(), b.tolist(), mode.value)
        assert got == pytest.approx(want, abs=1e-12)


def test_spatial_is_exactly_width_plus_height():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = Tensor(rng.normal(size=(2, 3, 4, 5)))
        b = Tensor(rng.normal(size=(2, 3, 4, 5)))
        w = pod_pooled(a, b, PodMode.WIDTH).item()
        h = pod_pooled(a, b, PodMode.HEIGHT).item()
        s = pod_pooled(a, b, PodMode.SPATIAL).item()
        assert s == w + h  # exact: same floating-point operations


@pytest.mark.parametrize("mode", MODES)
def test_symmetry_in_arguments(mode):
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 2, 3, 3)))
    b = Tensor(rng.normal(size=(2, 2, 3, 3)))
    npt.assert_allclose(
        pod_pooled(a, b, mode).item(), pod_pooled(b, a, mode).item(), atol=1e-12
    )


def test_non_square_maps_supported():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(1, 2, 5, 3))
    b = rng.normal(size=(1, 2, 5, 3))
    for mode in MODES:
        got = pod_pooled(Tensor(a), Tensor(b), mode).item()
        want = pod_pooled_oracle(a.tolist(), b.tolist(), mode.value)
        assert got == pytest.approx(want, abs=1e-12)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        pod_pooled(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 2, 3, 4))),
                   PodMode.PIXEL)


# -- flat embedding constraint ------------------------------------------------


def test_flat_identical_is_zero():
    h = Tensor(np.random.default_rng(7).normal(size=(3, 8)))
    assert pod_flat(h, h).item() == 0.0


def test_flat_scale_invariance():
    h = np.random.default_rng(8).normal(size=(3, 8))
    assert pod_flat(Tensor(h), Tensor(2.0 * h)).item() == pytest.approx(0.0, abs=1e-15)


def test_flat_antipodal_is_four():
    h = np.random.default_rng(9).normal(size=(3, 8))
    assert pod_flat(Tensor(h), Tensor(-h)).item() == pytest.approx(4.0, abs=1e-12)


def test_flat_matches_oracle():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(4, 6))
    got = pod_flat(Tensor(a), Tensor(b)).item()
    assert got == pytest.approx(pod_flat_oracle(a.tolist(), b.tolist()), abs=1e-12)


# -- combined loss --------------------------------------------------------------


def _random_outputs(rng, stages=2):
    maps = [Tensor(rng.normal(size=(2, 2, 3, 3))) for _ in range(stages)]
    emb = Tensor(rng.normal(size=(2, 5)))
    return StageOutputs(stage_maps=maps, embedding=emb)


def test_final_reduces_to_flat_when_lambda_c_zero():
    rng = np.random.default_rng(11)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig(lambda_c=0.0, lambda_f=2.0)
    got = pod_final(t, s, cfg, scale_factor=3.0).item()
    want = 3.0 * 2.0 * pod_flat(t.embedding, s.embedding).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_final_reduces_to_stage_mean_when_lambda_f_zero():
    rng = np.random.default_rng(12)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig(lambda_c=4.0, lambda_f=0.0, mode=PodMode.PIXEL)
    got = pod_final(t, s, cfg, scale_factor=1.0).item()
    per_stage = [
        pod_pooled(tm, sm, PodMode.PIXEL).item()
        for tm, sm in zip(t.stage_maps, s.stage_maps)
    ]
    assert got == pytest.approx(4.0 * sum(per_stage) / 2, abs=1e-12)


def test_final_default_weights_match_oracle():
    rng = np.random.default_rng(13)
    t, s = _random_outputs(rng), _random_outputs(rng)
    cfg = PodConfig()  # lambda_c=3, lambda_f=1, spatial
    got = pod_final(t, s, cfg, scale_factor=2.5).item()
    want = pod_final_oracle(
        [m.data.tolist() for m in t.stage_maps],
        [m.data.tolist() for m in s.stage_maps],
        t.embedding.data.tolist(),
        s.embedding.data.tolist(),
        "spatial", 3.0, 1.0, 2.5,
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_final_stage_count_mismatch_rejected():
    rng = np.random.default_rng(14)
    with pytest.raises(ShapeError):
        pod_final(_random_outputs(rng, 2), _random_outputs(rng, 3), PodConfig(), 1.0)


def test_final_requires_positive_scale():
    rng = np.random.default_rng(15)
    with pytest.raises(ContractError):
        pod_final(_random_outputs(rng), _random_outputs(rng), PodConfig(), 0.0)


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
    assert pod_pooled(Tensor(a), Tensor(b), PodMode.GAP).item() == pytest.approx(
        0.0, abs=1e-15
    )


def test_width_mode_ignores_permutation_along_width():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(1, 2, 5, 3))
    b = a[:, :, rng.permutation(5), :]
    assert pod_pooled(Tensor(a), Tensor(b), PodMode.WIDTH).item() == pytest.approx(
        0.0, abs=1e-15
    )
    # but pixel mode sees it (general position)
    assert pod_pooled(Tensor(a), Tensor(b), PodMode.PIXEL).item() > 1e-6


def test_height_mode_ignores_permutation_along_height():
    rng = np.random.default_rng(18)
    a = rng.normal(size=(1, 2, 3, 5))
    b = a[:, :, :, rng.permutation(5)]
    assert pod_pooled(Tensor(a), Tensor(b), PodMode.HEIGHT).item() == pytest.approx(
        0.0, abs=1e-15
    )


def test_pixel_mode_zero_only_at_identity():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(1, 2, 3, 3))
    perm = np.array([1, 0, 2])
    b = a[:, :, perm, :]
    assert pod_pooled(Tensor(a), Tensor(b), PodMode.PIXEL).item() > 1e-6
