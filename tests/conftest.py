"""Fixtures shared by the test modules."""

import json

import numpy as np
import pytest

from podlearn.backbone import BackboneConfig
from podlearn.datasets import SyntheticSpec, generate_synthetic_dataset
from podlearn.memory import PerClass
from podlearn.protocol import IncrementalRunner, RunConfig, TaskSchedule


@pytest.fixture
def first_task_state():
    """``build(**run_config_fields) -> (dataset, schedule, config, runner, state)``.

    The runner has finished task 0 of 3 (2 classes, then 1 and 1) of a tiny
    synthetic run; ``state`` is its ``to_state()`` after a JSON round trip.
    Its eta is moved off its init first, so a lost eta shows.
    """

    def build(**kw):
        spec = SyntheticSpec(classes=4, samples_per_class=20, channels=2, width=6, height=6)
        ds = generate_synthetic_dataset(spec, seed=0)
        sched = TaskSchedule.build(4, 2, 1, seed=2)
        fields = dict(
            backbone=BackboneConfig(input_shape=(2, 6, 6), stage_filters=(4, 8),
                                    embedding_dim=8),
            proxies_per_class=2,
            budget=PerClass(3),
            epochs_per_task=4,
            batch_size=16,
        )
        cfg = RunConfig(**{**fields, **kw})
        runner = IncrementalRunner(sched, cfg, ds, seed=2)
        runner.run_next_task()
        runner.bank.eta.data = np.asarray(3.25)
        return ds, sched, cfg, runner, json.loads(json.dumps(runner.to_state()))

    return build
