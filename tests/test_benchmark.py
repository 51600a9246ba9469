"""Desk-scale training runs that pin the synthetic benchmark's behavior.

These run real (small) trainings and take tens of seconds each.
"""

import numpy as np
import pytest

from podlearn.config import ExperimentConfig
from podlearn.datasets import (
    SyntheticSpec,
    class_templates,
    dataset_from_templates,
    generate_synthetic_dataset,
)
from podlearn.protocol import TaskSchedule, run_schedule

pytestmark = pytest.mark.slow


def test_default_benchmark_single_task_reaches_95_percent():
    cfg = ExperimentConfig()  # canonical defaults
    ds = generate_synthetic_dataset(cfg.synthetic_spec(), seed=0)
    sched = TaskSchedule.build(cfg.classes, cfg.classes, 1, seed=0)
    metrics = run_schedule(sched, cfg.run_config(ds.input_shape), ds, seed=0)
    assert metrics.nme_accuracy[0] >= 0.95
    assert metrics.cnn_accuracy[0] >= 0.95


def test_identical_templates_give_chance_accuracy():
    spec = SyntheticSpec(classes=2, samples_per_class=50)
    templates = class_templates(spec)
    templates[1] = templates[0]  # indistinguishable classes
    ds = dataset_from_templates(templates, spec, seed=0)
    cfg = ExperimentConfig.from_dict({
        "classes": 2, "samples_per_class": 50, "initial_task_size": 2,
        "epochs_per_task": 10,
    })
    sched = TaskSchedule.build(2, 2, 1, seed=0)
    metrics = run_schedule(sched, cfg.run_config(ds.input_shape), ds, seed=0)
    # 20 test points: for two identical classes anything near 0.5 is chance
    assert 0.25 <= metrics.cnn_accuracy[0] <= 0.75


def test_noiseless_benchmark_is_perfectly_learnable():
    spec = SyntheticSpec(classes=3, samples_per_class=20, noise_sigma=0.0)
    ds = generate_synthetic_dataset(spec, seed=0)
    cfg = ExperimentConfig.from_dict({
        "classes": 3, "samples_per_class": 20, "noise_sigma": 0.0,
        "initial_task_size": 3, "epochs_per_task": 15,
    })
    sched = TaskSchedule.build(3, 3, 1, seed=0)
    metrics = run_schedule(sched, cfg.run_config(ds.input_shape), ds, seed=0)
    assert metrics.nme_accuracy[0] == 1.0
    assert metrics.cnn_accuracy[0] == 1.0


def test_templates_are_tighter_than_their_background():
    # the shared background dominates each template; class-to-class spread is
    # deliberately small compared to it
    spec = SyntheticSpec()
    t = class_templates(spec).reshape(spec.classes, -1)
    centroid = t.mean(axis=0)
    spread = np.linalg.norm(t - centroid, axis=1).max()
    assert np.linalg.norm(centroid) > spread
