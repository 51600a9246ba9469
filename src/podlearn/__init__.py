"""podlearn: desk-scale class-incremental learning.

A minimal float64 autodiff engine, a small convolutional backbone with
per-stage activation taps, a family of pooled distillation losses, a
multi-proxy cosine classifier, herding-based exemplar memory, and a seeded
incremental-learning protocol with NME and classifier-score inference.
"""

from .backbone import Backbone, BackboneConfig, StageOutputs
from .config import ExperimentConfig
from .datasets import (
    Dataset,
    SyntheticSpec,
    generate_synthetic_dataset,
    ingest_cifar_binary,
    load_dataset,
    save_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    NumericError,
    PodlearnError,
    ShapeError,
)
from .gradcheck import gradient_check
from .lsc import (
    ProxyBank,
    cross_entropy_loss,
    imprint_new_classes,
    kmeans,
    lsc_scores,
    nca_hinge_loss,
)
from .memory import ExemplarMemory, PerClass, Total, herd_select
from .pod import PodConfig, PodMode, pod_final, pod_targets
from .protocol import (
    IncrementalRunner,
    RunConfig,
    RunMetrics,
    TaskSchedule,
    adaptive_scale,
    average_incremental_accuracy,
    evaluate,
    run_schedule,
)
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "Backbone",
    "BackboneConfig",
    "ConfigError",
    "ContractError",
    "Dataset",
    "ExemplarMemory",
    "ExperimentConfig",
    "FormatError",
    "IncrementalRunner",
    "NumericError",
    "PerClass",
    "PodConfig",
    "PodMode",
    "PodlearnError",
    "ProxyBank",
    "RunConfig",
    "RunMetrics",
    "ShapeError",
    "StageOutputs",
    "SyntheticSpec",
    "TaskSchedule",
    "Tensor",
    "Total",
    "adaptive_scale",
    "average_incremental_accuracy",
    "cross_entropy_loss",
    "evaluate",
    "generate_synthetic_dataset",
    "gradient_check",
    "herd_select",
    "imprint_new_classes",
    "ingest_cifar_binary",
    "kmeans",
    "load_dataset",
    "lsc_scores",
    "nca_hinge_loss",
    "no_grad",
    "pod_final",
    "pod_targets",
    "run_schedule",
    "save_dataset",
]
