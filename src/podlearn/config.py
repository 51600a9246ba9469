"""Experiment configuration: a flat, human-editable ``key = value`` file.

Every key has a typed default. A key that a library class also holds
(``SyntheticSpec``, ``BackboneConfig``, ``PodConfig``, ``RunConfig``) takes
its default from that class, so each default is written once. Unknown or
duplicate keys, non-finite floats and negative seeds are rejected, and all
derived objects (dataset spec, schedule, model and loss configs) are
constructed up front so a bad file fails before any training starts.
"""

from __future__ import annotations

import math
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


def _checked(parse, ok, rule: str):
    """``parse``, then a ``ValueError`` naming ``rule`` unless ``ok(value)``."""
    def cast(s):
        v = parse(s)
        if not ok(v):
            raise ValueError(f"{rule}, got {v!r}")
        return v
    return cast


def _caster(name: str, default):
    """The parser of a field: a seed's, or the one of its default value's type."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_filters
    if isinstance(default, float):
        return _checked(float, math.isfinite, "must be a finite number")
    if name.endswith("seed"):
        return _checked(int, lambda v: v >= 0, "a seed must be >= 0")
    return type(default)


def _cast_fields(raw: dict, defaults: dict, what: str) -> dict:
    """Cast raw values by their field's default type; errors name the field."""
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _caster(key, defaults[key])(value)
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
    classes: int = SyntheticSpec.classes
    samples_per_class: int = SyntheticSpec.samples_per_class
    channels: int = SyntheticSpec.channels
    width: int = SyntheticSpec.width
    height: int = SyntheticSpec.height
    pattern_seed: int = SyntheticSpec.pattern_seed
    noise_sigma: float = SyntheticSpec.noise_sigma
    # schedule
    initial_task_size: int = 5
    increment: int = 1
    # backbone
    stage_filters: tuple[int, ...] = BackboneConfig.stage_filters
    blocks_per_stage: int = BackboneConfig.blocks_per_stage
    embedding_dim: int = BackboneConfig.embedding_dim
    # distillation
    pod_mode: str = PodConfig.mode.value
    lambda_c: float = PodConfig.lambda_c
    lambda_f: float = PodConfig.lambda_f
    # classifier
    proxies_per_class: int = RunConfig.proxies_per_class
    margin: float = RunConfig.margin
    eta_init: float = RunConfig.eta_init
    classifier_loss: str = RunConfig.classifier_loss
    # rehearsal memory
    memory_mode: str = "per_class"  # "per_class" caps each class, "total" shares a pool
    memory_per_class: int = RunConfig.budget.m
    memory_total: int = 2000
    # optimizer
    learning_rate: float = RunConfig.learning_rate
    momentum: float = RunConfig.momentum
    epochs_per_task: int = RunConfig.epochs_per_task
    batch_size: int = RunConfig.batch_size
    balanced_finetune: bool = RunConfig.balanced_finetune
    finetune_epochs: int = RunConfig.finetune_epochs
    finetune_lr: float = RunConfig.finetune_lr

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(parse_keyvalue(text))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
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
            # both budgets: a value the memory mode leaves unused is checked too
            PerClass(self.memory_per_class)
            Total(self.memory_total)
            self.run_config((self.channels, self.width, self.height))
        except ContractError as err:
            raise ConfigError(str(err))

    def _same_named(self, cls) -> dict:
        """This config's values for the fields of ``cls`` it holds under the same name."""
        names = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in names}

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(**self._same_named(SyntheticSpec))

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
        return PodConfig(mode=mode, **self._same_named(PodConfig))

    def run_config(self, input_shape: tuple[int, int, int]) -> RunConfig:
        backbone = BackboneConfig(input_shape=input_shape, **self._same_named(BackboneConfig))
        return RunConfig(backbone=backbone, pod=self.pod_config(), budget=self.budget(),
                         **self._same_named(RunConfig))

    def load_data(self) -> Dataset:
        if self.dataset == "synthetic":
            return generate_synthetic_dataset(self.synthetic_spec(), seed=self.seed)
        kind, _, path = self.dataset.partition(":")
        try:
            if kind == "npz":
                return load_dataset(path)
            if kind == "cifar":
                return ingest_cifar_binary(path, classes=self.classes)
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
