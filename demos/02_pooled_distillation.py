"""The pooled distillation loss and the invariance ladder of its pooling modes.

``pod_final`` is the one POD loss; its pooling mode is a ``PodConfig``
setting. Each mode ignores a different kind of activation reorganization:
the more it ignores, the more freedom (plasticity) the student keeps.
"""

import numpy as np

from podlearn import PodConfig, PodMode, StageOutputs, Tensor, pod_final, pod_targets


def ones(batch):
    return Tensor(np.ones((batch, 1)))


def pooled(teacher, student, mode):
    """The loss of one student map against the teacher's: the stage term alone."""
    rows = pod_targets(StageOutputs([teacher], ones(len(teacher.data))), mode)
    return pod_final(rows, StageOutputs([student], ones(len(teacher.data))),
                     PodConfig(lambda_c=1.0, lambda_f=0.0, mode=mode), 1.0)


def flat(teacher, student):
    """The flat term alone: no stage maps, only the embeddings."""
    rows = pod_targets(StageOutputs([], teacher), PodMode.SPATIAL)
    return pod_final(rows, StageOutputs([], student), PodConfig(lambda_c=0.0, lambda_f=1.0), 1.0)


rng = np.random.default_rng(0)
a = rng.normal(size=(1, 4, 6, 6))

perturbations = {
    "identical": a.copy(),
    "channels permuted": a[:, rng.permutation(4), :, :],
    "columns permuted": a[:, :, rng.permutation(6), :],
    "pixels shuffled": a.reshape(1, 4, 36)[:, :, rng.permutation(36)].reshape(1, 4, 6, 6),
    "gaussian drift": a + 0.3 * rng.normal(size=a.shape),
}

modes = [PodMode.PIXEL, PodMode.CHANNEL, PodMode.WIDTH, PodMode.HEIGHT,
         PodMode.GAP, PodMode.SPATIAL]

header = f"{'perturbation':>20} |" + "".join(f"{m.value:>9}" for m in modes)
print(header)
print("-" * len(header))
ta = Tensor(a)
for name, b in perturbations.items():
    tb = Tensor(b)
    row = "".join(f"{pooled(ta, tb, m).item():9.4f}" for m in modes)
    print(f"{name:>20} |{row}")

print()
print("reading the table: pixel mode penalizes everything except identity;")
print("channel mode forgives channel swaps; gap forgives any spatial move;")
print("width/height forgive moves along their own axis only. spatial is")
print("exactly width + height:")
b = Tensor(rng.normal(size=(1, 4, 6, 6)))
w = pooled(ta, b, PodMode.WIDTH).item()
h = pooled(ta, b, PodMode.HEIGHT).item()
s = pooled(ta, b, PodMode.SPATIAL).item()
print(f"  width {w:.6f} + height {h:.6f} = {w + h:.6f} == spatial {s:.6f}")

print()
print("the flat-embedding constraint lives on the unit sphere: scale is free,")
print("direction is not.")
e = rng.normal(size=(2, 8))
print("  same direction, doubled:", flat(Tensor(e), Tensor(2 * e)).item())
print("  antipodal             :", flat(Tensor(e), Tensor(-e)).item(), "(max = 4)")
