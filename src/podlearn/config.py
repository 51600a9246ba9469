"""Experiment configuration: a flat, human-editable ``key = value`` file.

Every key has a typed default; unknown or duplicate keys are rejected, and
all derived objects (dataset spec, schedule, model and loss configs) are
constructed up front so a bad file fails before any training starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .backbone import BackboneConfig
from .datasets import Dataset, SyntheticSpec, generate_synthetic_dataset, ingest_cifar_binary, load_dataset
from .errors import ConfigError, ContractError, FormatError
from .memory import PerClass, Total
from .pod import PodConfig, PodMode
from .protocol import RunConfig, TaskSchedule


def _parse_bool(s) -> bool:
    if isinstance(s, bool):
        return s
    v = str(s).strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_filters(s) -> tuple[int, ...]:
    try:
        if isinstance(s, (list, tuple)):
            out = tuple(int(p) for p in s)
        else:
            out = tuple(int(p) for p in str(s).replace(" ", "").split(",") if p)
    except (ValueError, TypeError):
        raise ValueError(f"not a filter list: {s!r}")
    if not out:
        raise ValueError("empty filter list")
    return out


def _caster(default):
    """The parser of a field, taken from the type of its default value."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_filters
    return type(default)


def _cast_fields(raw: dict, defaults: dict, what: str) -> dict:
    """Cast raw values by their field's default type; errors name the field."""
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _caster(defaults[key])(value)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"field {key}: {err}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    # run
    seed: int = 0
    output_dir: str = "podlearn_run"
    # dataset: "synthetic", "npz:<path>", or "cifar:<path>"
    dataset: str = "synthetic"
    classes: int = 10
    samples_per_class: int = 100
    channels: int = 3
    width: int = 8
    height: int = 8
    pattern_seed: int = 123
    noise_sigma: float = 0.3
    # schedule
    initial_task_size: int = 5
    increment: int = 1
    # backbone
    stage_filters: tuple[int, ...] = (8, 16, 32)
    blocks_per_stage: int = 1
    embedding_dim: int = 32
    # distillation
    pod_mode: str = "spatial"
    lambda_c: float = 3.0
    lambda_f: float = 1.0
    # classifier
    proxies_per_class: int = 10
    margin: float = 0.6
    eta_init: float = 1.0
    classifier_loss: str = "nca"
    # rehearsal memory
    memory_mode: str = "per_class"  # "per_class" caps each class, "total" shares a pool
    memory_per_class: int = 20
    memory_total: int = 2000
    # optimizer
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs_per_task: int = 60
    batch_size: int = 32
    balanced_finetune: bool = False
    finetune_epochs: int = 10
    finetune_lr: float = 0.005

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(parse_keyvalue(text))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}")
        return cls.from_text(text)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        values = _cast_fields(raw, {f.name: f.default for f in fields(cls)}, "config")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    # -- derived objects ------------------------------------------------------

    def validate(self) -> None:
        """Build every derived object, mapping failures to field-level errors."""
        try:
            if self.dataset == "synthetic":
                self.synthetic_spec()
            elif not (self.dataset.startswith("npz:") or self.dataset.startswith("cifar:")):
                raise ContractError(
                    f"dataset must be 'synthetic', 'npz:<path>' or 'cifar:<path>', "
                    f"got {self.dataset!r}"
                )
            self.schedule()
            self.budget()
            self.run_config(self.input_shape())
        except ContractError as err:
            raise ConfigError(str(err))

    def input_shape(self) -> tuple[int, int, int]:
        if self.dataset.startswith("cifar:"):
            return (3, 32, 32)
        return (self.channels, self.width, self.height)

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            classes=self.classes,
            samples_per_class=self.samples_per_class,
            channels=self.channels,
            width=self.width,
            height=self.height,
            pattern_seed=self.pattern_seed,
            noise_sigma=self.noise_sigma,
        )

    def schedule(self) -> TaskSchedule:
        return TaskSchedule.build(self.classes, self.initial_task_size, self.increment, self.seed)

    def budget(self):
        if self.memory_mode == "per_class":
            return PerClass(self.memory_per_class)
        if self.memory_mode == "total":
            return Total(self.memory_total)
        raise ContractError(f"memory_mode must be 'per_class' or 'total', got {self.memory_mode!r}")

    def pod_config(self) -> PodConfig:
        try:
            mode = PodMode(self.pod_mode)
        except ValueError:
            raise ContractError(f"unknown pod_mode {self.pod_mode!r}")
        return PodConfig(lambda_c=self.lambda_c, lambda_f=self.lambda_f, mode=mode)

    def backbone_config(self, input_shape: tuple[int, int, int]) -> BackboneConfig:
        return BackboneConfig(
            input_shape=input_shape,
            stages=tuple((f, self.blocks_per_stage) for f in self.stage_filters),
            embedding_dim=self.embedding_dim,
        )

    def run_config(self, input_shape: tuple[int, int, int]) -> RunConfig:
        return RunConfig(
            backbone=self.backbone_config(input_shape),
            pod=self.pod_config(),
            proxies_per_class=self.proxies_per_class,
            margin=self.margin,
            eta_init=self.eta_init,
            classifier_loss=self.classifier_loss,
            budget=self.budget(),
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs_per_task=self.epochs_per_task,
            batch_size=self.batch_size,
            balanced_finetune=self.balanced_finetune,
            finetune_epochs=self.finetune_epochs,
            finetune_lr=self.finetune_lr,
        )

    def load_data(self) -> Dataset:
        if self.dataset == "synthetic":
            return generate_synthetic_dataset(self.synthetic_spec(), seed=self.seed)
        if self.dataset.startswith("npz:"):
            try:
                return load_dataset(self.dataset[len("npz:"):])
            except OSError as err:
                raise ConfigError(f"dataset: {err}")
        if self.dataset.startswith("cifar:"):
            try:
                return ingest_cifar_binary(self.dataset[len("cifar:"):], classes=self.classes)
            except (OSError, FormatError) as err:
                raise ConfigError(f"dataset: {err}")
        raise ConfigError(f"unsupported dataset {self.dataset!r}")


def parse_keyvalue(text: str) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment. Duplicates rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_synthetic_spec(text: str) -> tuple[SyntheticSpec, int]:
    """Parse a spec file for dataset generation; returns (spec, noise seed)."""
    defaults = {f.name: f.default for f in fields(SyntheticSpec)}
    values = _cast_fields(parse_keyvalue(text), {**defaults, "seed": 0}, "spec")
    seed = values.pop("seed", 0)
    try:
        return SyntheticSpec(**values), seed
    except ContractError as err:
        raise ConfigError(str(err))
