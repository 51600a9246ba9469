"""Tour of the tensor engine: forward primitives, reverse-mode gradients,
and finite-difference verification.
"""

import numpy as np

from podlearn import Tensor, gradient_check
from podlearn.tensor import conv2d, l2_normalize, relu, square, tsum

# every value is a float64 array with optional gradient tracking
x = Tensor([[3.0, 4.0]], requires_grad=True)
print("x           :", x.data)
print("l2 normalize:", l2_normalize(x).data)  # the 3-4-5 triangle

# a scalar loss backpropagates into every tracked leaf
loss = tsum(square(x))
loss.backward()
print("d(sum x^2)/dx =", x.grad, "(expected 2x)")

# convolution is a first-class primitive: all-ones 3x3 kernel over an
# all-ones 3x3 image with padding 1 sums the full overlap at the center
img = Tensor(np.ones((1, 1, 3, 3)))
kernel = Tensor(np.ones((1, 1, 3, 3)))
out = conv2d(img, kernel, padding=1)
print("conv center value:", out.data[0, 0, 1, 1], "(expected 9)")

# gradient_check compares analytic gradients with central differences;
# for a composite of conv and relu the relative error stays below 1e-4
# away from relu kinks, and a wrong conv backward pushes it far above
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(2, 1, 3, 3)))


def composite(t):
    return tsum(square(relu(conv2d(t, w, padding=1)) + 0.1))


point = Tensor(rng.uniform(0.5, 1.5, size=(1, 1, 4, 4)))
print("gradient check, conv composite:", gradient_check(composite, point, eps=1e-5))
