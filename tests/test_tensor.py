import numpy as np
import numpy.testing as npt
import pytest

from podlearn.errors import ContractError, NumericError, ShapeError
from podlearn.gradcheck import gradient_check
from podlearn.tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    exp,
    l2_normalize,
    log,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    softmax,
    square,
    sub,
    tmean,
    transpose,
    tsum,
)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_l2_normalize_345_triangle():
    out = l2_normalize(Tensor([3.0, 4.0]))
    npt.assert_allclose(out.data, [0.6, 0.8], rtol=0, atol=1e-15)


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(4, 7))
        out = l2_normalize(Tensor(x))
        npt.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)


def test_l2_normalize_below_eps_gives_zero():
    out = l2_normalize(Tensor([1e-10, -1e-10]), eps=1e-8)
    npt.assert_array_equal(out.data, [0.0, 0.0])
    # and its gradient is zero rather than exploding
    x = Tensor([1e-10, -1e-10], requires_grad=True)
    tsum(l2_normalize(x)).backward()
    npt.assert_array_equal(x.grad, [0.0, 0.0])


def test_conv2d_full_overlap_center():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, padding=1)
    assert out.shape == (1, 1, 3, 3)
    assert out.data[0, 0, 1, 1] == 9.0


def test_conv2d_stride_two_shape():
    x = Tensor(np.zeros((2, 3, 8, 8)))
    w = Tensor(np.zeros((5, 3, 3, 3)))
    assert conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)


def test_conv2d_matches_manual_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 5, 4))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expected = np.zeros_like(out)
    for bi in range(2):
        for o in range(4):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    patch = xp[bi, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    expected[bi, o, i, j] = (patch * w[o]).sum() + b[o]
    npt.assert_allclose(out, expected, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    out = softmax(Tensor(rng.normal(size=(6, 9))))
    npt.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


# -- backward ------------------------------------------------------------


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tsum(square(x)).backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_has_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tsum(scale(x, 0.0)).backward()
    npt.assert_array_equal(x.grad, [0.0, 0.0])


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = tsum(square(x))
    loss.backward()
    loss.backward()
    npt.assert_array_equal(x.grad, [4.0, 8.0])


def test_backward_rejects_non_scalar_seed():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        square(x).backward()


def test_backward_through_shared_node():
    # y = x * x via mul must accumulate both branches
    x = Tensor([3.0], requires_grad=True)
    tsum(mul(x, x)).backward()
    npt.assert_array_equal(x.grad, [6.0])


def test_matmul_gradients():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    tsum(matmul(a, b)).backward()
    npt.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)
    npt.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)), atol=1e-12)


def test_broadcast_add_unbroadcasts_grad():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    bias = Tensor(np.zeros(3), requires_grad=True)
    tsum(add(x, bias)).backward()
    npt.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])
    npt.assert_array_equal(x.grad, np.ones((4, 3)))


@pytest.mark.parametrize(
    "op",
    [
        lambda t: relu(t),
        lambda t: square(t),
        lambda t: exp(t),
        lambda t: softmax(t, axis=-1),
        lambda t: l2_normalize(t, axis=-1),
        lambda t: reshape(t, (t.size,)),
        lambda t: scale(t, 1.7),
        lambda t: mul(t, Tensor(np.full(t.shape, 0.5))),
    ],
    ids=["relu", "square", "exp", "softmax", "l2norm", "reshape", "scale", "mul"],
)
def test_adjoint_linearity(op):
    # backward of a sum-seed equals the sum of per-element backwards
    rng = np.random.default_rng(7)
    x_val = rng.normal(size=(3, 5)) + 0.1
    x = Tensor(x_val, requires_grad=True)
    tsum(op(x)).backward()
    total = x.grad.copy()

    summed = np.zeros_like(x_val)
    out_shape = op(Tensor(x_val)).shape
    for k in range(int(np.prod(out_shape))):
        xi = Tensor(x_val, requires_grad=True)
        mask = np.zeros(out_shape)
        mask.reshape(-1)[k] = 1.0
        tsum(mul(op(xi), Tensor(mask))).backward()
        summed += xi.grad
    npt.assert_allclose(total, summed, atol=1e-10)


def test_adjoint_linearity_conv2d():
    rng = np.random.default_rng(8)
    x_val = rng.normal(size=(1, 2, 3, 3))
    w_val = rng.normal(size=(2, 2, 3, 3))
    x = Tensor(x_val, requires_grad=True)
    tsum(conv2d(x, Tensor(w_val), padding=1)).backward()
    total = x.grad.copy()

    summed = np.zeros_like(x_val)
    out_shape = (1, 2, 3, 3)
    for k in range(int(np.prod(out_shape))):
        xi = Tensor(x_val, requires_grad=True)
        mask = np.zeros(out_shape)
        mask.reshape(-1)[k] = 1.0
        tsum(mul(conv2d(xi, Tensor(w_val), padding=1), Tensor(mask))).backward()
        summed += xi.grad
    npt.assert_allclose(total, summed, atol=1e-10)


def _conv_gradient_errors(stride, padding, with_bias, x_shape, w_shape, seed):
    """Finite-difference errors of a weighted-sum conv2d w.r.t. x, w and bias."""
    rng = np.random.default_rng(seed)
    x_val = rng.normal(size=x_shape)
    w_val = rng.normal(size=w_shape)
    b_val = rng.normal(size=w_shape[0]) if with_bias else None
    out_shape = conv2d(
        Tensor(x_val), Tensor(w_val), stride=stride, padding=padding
    ).shape
    weights = Tensor(rng.normal(size=out_shape))

    def loss(x, w, b):
        return tsum(mul(conv2d(x, w, b, stride=stride, padding=padding), weights))

    bias = Tensor(b_val) if with_bias else None
    errors = {
        "x": gradient_check(lambda t: loss(t, Tensor(w_val), bias), Tensor(x_val)),
        "w": gradient_check(lambda t: loss(Tensor(x_val), t, bias), Tensor(w_val)),
    }
    if with_bias:
        errors["bias"] = gradient_check(
            lambda t: loss(Tensor(x_val), Tensor(w_val), t), Tensor(b_val)
        )
    return errors


def test_conv2d_gradients_stride_two_padded_non_square():
    errors = _conv_gradient_errors(2, 1, True, (2, 3, 5, 4), (4, 3, 3, 3), seed=9)
    assert set(errors) == {"x", "w", "bias"}
    assert max(errors.values()) <= 1e-4, errors


def test_conv2d_gradients_stride_one_without_bias():
    errors = _conv_gradient_errors(1, 0, False, (2, 2, 5, 4), (3, 2, 3, 2), seed=10)
    assert set(errors) == {"x", "w"}
    assert max(errors.values()) <= 1e-4, errors


# -- errors and contracts ---------------------------------------------------


def test_shape_mismatch_names_op_and_extents():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_nonfinite_creation_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_nonfinite_primitive_output_rejected():
    with pytest.raises(NumericError):
        log(Tensor([0.0]))
    with pytest.raises(NumericError):
        exp(Tensor([1000.0]))


def test_conv_kernel_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))


def test_concat_and_transpose_roundtrip():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(3.0).reshape(1, 3))
    out = concat([a, b], axis=0)
    assert out.shape == (3, 3)
    tsum(mul(transpose(out), Tensor(np.ones((3, 3))))).backward()
    npt.assert_array_equal(a.grad, np.ones((2, 3)))


def test_no_grad_suppresses_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        out = tsum(square(x))
    assert out.requires_grad is False
    assert out._parents == ()


def test_reductions_over_axis_subsets():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    npt.assert_allclose(tsum(x, axis=(1, 2)).data, x.data.sum(axis=(1, 2)))
    npt.assert_allclose(tmean(x, axis=(0, 2)).data, x.data.mean(axis=(0, 2)))
    g = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    tsum(tmean(g, axis=(1, 2))).backward()
    npt.assert_allclose(g.grad, np.full((2, 3, 4), 1.0 / 12.0))


def test_sub_matches_numpy():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    npt.assert_allclose(sub(Tensor(a), Tensor(b)).data, a - b)
