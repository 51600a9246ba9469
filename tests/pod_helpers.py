"""One map or one embedding scored through ``pod_final``, the package's one POD loss.

The teacher side is a numpy array reduced by ``pod_targets``; the student
side is a ``Tensor``, the only side gradients reach.
"""

import numpy as np

from podlearn.backbone import StageOutputs
from podlearn.pod import PodConfig, PodMode, pod_final, pod_targets
from podlearn.tensor import Tensor


def _constant(batch: int) -> Tensor:
    # the same unit row for teacher and student, at weight 0: adds exactly 0
    return Tensor(np.ones((batch, 1)))


def pod_map(teacher: np.ndarray, student: Tensor, mode: PodMode) -> Tensor:
    """The pooled loss of one (B, C, W, H) student map against the teacher's map."""
    rows = pod_targets(StageOutputs([Tensor(teacher)], _constant(len(teacher))), mode)
    return pod_final(rows, StageOutputs([student], _constant(len(teacher))),
                     PodConfig(1.0, 0.0, mode), 1.0)


def pod_embedding(teacher: np.ndarray, student: Tensor) -> Tensor:
    """The flat term alone: unit student embeddings against the teacher's."""
    rows = pod_targets(StageOutputs([], Tensor(teacher)), PodMode.SPATIAL)
    return pod_final(rows, StageOutputs([], student), PodConfig(0.0, 1.0), 1.0)
