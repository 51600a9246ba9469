"""The benchmark's workloads and the record of why each one exists.

A workload is a podlearn ``key = value`` experiment config without a seed.
``--seed`` is appended as ``seed = <n>``; podlearn derives the dataset noise,
the class order and the model initialisation from it, so the program only
ever sees generated inputs. The class templates (``pattern_seed``) stay at
podlearn's default, as in the acceptance configs.

``LAYER_MAP`` is the prediction made before any optimisation: which
end-to-end metric each per-layer metric should move, and on which workload.
Later changes cite workloads and rows by name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: dict
    # seed -> (avg_nme, avg_cnn) measured on the commit that defined the benchmark
    reference: dict

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings.items()]
        return "\n".join([*lines, f"seed = {seed}"]) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="a5_podnet",
            why="the ROADMAP's A5 PODNet run: teacher forwards, POD-spatial and conv2d fwd/vjp dominate",
            settings={
                # every other key is podlearn's default: 10 classes x 100
                # samples of 3x8x8, a task of 5 classes then 5 tasks of 1,
                # 60 epochs, POD-spatial + POD-flat, K = 10 proxies per class
                "memory_per_class": 5,
            },
            reference={0: (0.8697123015873016, 0.8370932539682538)},
        ),
        Workload(
            name="wide_lsc",
            why="50 classes, LSC only (lambda_c = lambda_f = 0): the head and autodiff graph dominate, no teacher runs",
            settings={
                "classes": 50,
                "samples_per_class": 50,
                "width": 4,
                "height": 4,
                "initial_task_size": 10,
                "increment": 5,
                "epochs_per_task": 20,
                "lambda_c": 0.0,
                "lambda_f": 0.0,
                "memory_mode": "total",
                "memory_total": 250,
            },
            reference={0: (0.7862821869488537, 0.7709435626102292)},
        ),
        Workload(
            name="embed_heavy",
            why="1000 samples per class, 1 epoch: no-grad embedding, evaluation and herding dominate",
            settings={
                "samples_per_class": 1000,
                "epochs_per_task": 1,
            },
            reference={0: (0.7294758597883598, 0.47589847883597886)},
        ),
    )
}

# Absolute tolerance on the seed-0 references. Float-level drift from a
# reordered reduction may flip a few predictions; a broken kernel moves the
# accuracy by far more. A change meant to alter results updates the reference.
REFERENCE_TOL = 0.02

# layer metrics -> the end-to-end metric and workloads they should move
LAYER_MAP = [
    {
        "metrics": ["tensor.conv2d.fwd_s", "tensor.conv2d.self_s", "tensor.conv2d.calls",
                    "tensor.conv2d.vjp_s", "tensor.conv2d.vjp_calls"],
        "moves": "run_s",
        "workloads": ["a5_podnet", "embed_heavy"],
        "note": "about 70% of a5_podnet; only the forward matters on embed_heavy; "
                "a smaller share on wide_lsc",
    },
    {
        "metrics": ["tensor.<op>.fwd_s", "tensor.<op>.vjp_s", "tensor.<op>.calls"],
        "moves": "run_s",
        "workloads": ["wide_lsc"],
        "note": "every other primitive the protocol calls; the per-class LSC graph "
                "builds about 7 nodes per class per batch",
    },
    {
        "metrics": ["tensor.backward.s", "tensor.backward.self_s", "tensor.backward.calls"],
        "moves": "run_s",
        "workloads": ["wide_lsc"],
        "note": "self time is the graph walk and adjoint bookkeeping",
    },
    {
        "metrics": ["backbone.forward_teacher.s", "backbone.forward_teacher.self_s",
                    "backbone.forward_teacher.calls"],
        "moves": "run_s",
        "workloads": ["a5_podnet"],
        "note": "teacher caching target; 0 calls on wide_lsc (no distillation), "
                "nothing to cache on embed_heavy (1 epoch)",
    },
    {
        "metrics": ["backbone.forward_train.s", "backbone.forward_train.self_s",
                    "backbone.forward_train.calls"],
        "moves": "run_s",
        "workloads": ["a5_podnet", "wide_lsc"],
        "note": "student forwards with gradient tracking",
    },
    {
        "metrics": ["backbone.embed_nograd.s", "backbone.embed_nograd.self_s",
                    "backbone.embed_nograd.calls", "backbone.embed_nograd.samples"],
        "moves": "run_s",
        "workloads": ["embed_heavy"],
        "note": "batch-256 forwards for imprinting, herding and evaluation",
    },
    {
        "metrics": ["pod.pod_final.s", "pod.pod_final.self_s", "pod.pod_final.calls"],
        "moves": "run_s",
        "workloads": ["a5_podnet"],
        "note": "expected 0 calls on wide_lsc",
    },
    {
        "metrics": ["lsc.lsc_scores.s", "lsc.lsc_scores.self_s", "lsc.lsc_scores.calls"],
        "moves": "run_s",
        "workloads": ["wide_lsc"],
        "note": "vectorized (C, K, D) head target",
    },
    {
        "metrics": ["lsc.nca_hinge_loss.s", "lsc.imprint_new_classes.s",
                    "lsc.kmeans.s", "lsc.kmeans.calls"],
        "moves": "run_s",
        "workloads": ["wide_lsc"],
        "note": "wide_lsc imprints 5 classes per task",
    },
    {
        "metrics": ["memory.herd_select.s", "memory.herd_select.calls",
                    "memory.herd_select.rows", "memory.class_means.s"],
        "moves": "run_s",
        "workloads": ["embed_heavy"],
        "note": "herding over 800-row classes",
    },
    {
        "metrics": ["protocol.run_next_task.s", "protocol.run_next_task.calls",
                    "protocol.evaluate.s", "protocol.evaluate.calls",
                    "protocol.sgd_step.s", "protocol.sgd_step.calls"],
        "moves": "run_s",
        "workloads": ["a5_podnet", "wide_lsc", "embed_heavy"],
        "note": "evaluate matters most on embed_heavy",
    },
    {
        "metrics": ["checkpoint.save_run_checkpoint.s", "checkpoint.save_run_checkpoint.bytes"],
        "moves": "run_s",
        "workloads": ["a5_podnet", "wide_lsc", "embed_heavy"],
        "note": "a guard; wide_lsc has the largest proxy bank",
    },
    {
        "metrics": ["datasets.generate_synthetic_dataset.s"],
        "moves": "setup_s",
        "workloads": ["a5_podnet", "wide_lsc", "embed_heavy"],
        "note": "largest on embed_heavy (10000 samples)",
    },
]
