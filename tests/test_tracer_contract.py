"""The benchmark's tracer reaches every layer a POD run goes through.

``perfbench/tracer.py`` times podlearn from outside by patching the module
globals and methods through which the package calls its layers. A refactor
that calls a layer some other way leaves that layer reading 0 calls, and a
patch left behind would time every later run; this test catches both.
"""

import sys
from pathlib import Path

from podlearn.backbone import Backbone, BackboneConfig
from podlearn.datasets import SyntheticSpec, generate_synthetic_dataset
from podlearn.memory import ExemplarMemory, PerClass
from podlearn.protocol import SGD, IncrementalRunner, RunConfig, TaskSchedule
from podlearn.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent

LAYERS = (
    "pod.pod_final",
    "lsc.lsc_scores",
    "lsc.nca_hinge_loss",
    "lsc.imprint_new_classes",
    "lsc.kmeans",
    "memory.herd_select",
    "protocol.evaluate",
    "protocol.sgd_step",
)


def test_tracer_records_every_layer_of_a_two_task_pod_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    owners = [m for name, m in sys.modules.items()
              if name == "podlearn" or name.startswith("podlearn.")]
    owners += [Tensor, IncrementalRunner, SGD, ExemplarMemory, Backbone]
    before = [dict(vars(owner)) for owner in owners]

    ds = generate_synthetic_dataset(
        SyntheticSpec(classes=3, samples_per_class=12, channels=2, width=6, height=6), seed=0)
    config = RunConfig(backbone=BackboneConfig(input_shape=(2, 6, 6), stage_filters=(4, 8),
                                               embedding_dim=8),
                       proxies_per_class=2, budget=PerClass(3), epochs_per_task=1,
                       batch_size=16)
    runner = IncrementalRunner(TaskSchedule.build(3, 2, 1, seed=0), config, ds, seed=0)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        while not runner.done:
            runner.run_next_task()
    finally:
        uninstall()

    stats = tracer.stats()
    calls = {layer: stats[layer].calls for layer in LAYERS}
    assert all(n >= 1 for n in calls.values()), calls
    for owner, names in zip(owners, before):
        assert all(vars(owner).get(k) is v for k, v in names.items()), owner
