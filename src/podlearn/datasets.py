"""Dataset construction: seeded synthetic benchmarks and CIFAR-100 binaries.

The synthetic benchmark gives every class a fixed random spatial template;
samples are the template plus i.i.d. Gaussian pixel noise. That keeps runs
fast, fully seeded, and hard enough to expose forgetting once classes arrive
incrementally.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_file
from .errors import ContractError, FormatError

_CIFAR_RECORD = 3074  # coarse label byte + fine label byte + 3*32*32 pixels
_CIFAR_CLASSES = 100


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 10
    samples_per_class: int = 100
    channels: int = 3
    width: int = 8
    height: int = 8
    pattern_seed: int = 123
    noise_sigma: float = 0.3

    def __post_init__(self):
        if self.classes < 2:
            raise ContractError(f"need >= 2 classes, got {self.classes}")
        if self.samples_per_class < 2:
            raise ContractError("need >= 2 samples per class for a train/test split")
        if min(self.channels, self.width, self.height) < 1:
            raise ContractError("degenerate image shape")
        if self.pattern_seed < 0:
            raise ContractError(f"pattern_seed must be >= 0, got {self.pattern_seed}")
        if self.noise_sigma < 0:
            raise ContractError(f"noise sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class Dataset:
    train_x: np.ndarray  # (N, C, W, H)
    train_y: np.ndarray  # (N,) int64
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.train_x.shape[1:])

    def train_indices_of(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.train_y == class_id)


# Every class template = one shared pixel-level background plus a coarse
# (2x-upsampled) class pattern. The coarse patterns keep single-task runs
# easily learnable by 3x3 convs; the strong shared background forces all
# classes through the same suppression filters, so training on a new class
# degrades old ones no matter which class arrives — without it, classes are
# pairwise-orthogonal, the hinge loss hits zero immediately, and incremental
# runs would show no forgetting at all.
_BACKGROUND_NORM = 3.0
_CLASS_NORM = 1.45


def class_templates(spec: SyntheticSpec) -> np.ndarray:
    """Fixed per-class spatial templates, (classes, C, W, H), seeded."""
    rng = np.random.default_rng(spec.pattern_seed)
    shape = (spec.channels, spec.width, spec.height)
    background = rng.normal(0.0, 1.0, size=shape)
    background *= _BACKGROUND_NORM / np.linalg.norm(background)
    cw, ch = (spec.width + 1) // 2, (spec.height + 1) // 2
    coarse = rng.normal(0.0, 1.0, size=(spec.classes, spec.channels, cw, ch))
    full = coarse.repeat(2, axis=2).repeat(2, axis=3)[:, :, : spec.width, : spec.height]
    flat = full.reshape(spec.classes, -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    flat = flat * (_CLASS_NORM / np.where(norms > 0, norms, 1.0))
    return background[None] + flat.reshape(spec.classes, *shape)


def dataset_from_templates(templates: np.ndarray, spec: SyntheticSpec, seed: int) -> Dataset:
    """Template + Gaussian noise samples, deterministic 80/20 split per class.

    The noise is drawn straight into the two preallocated splits, class by
    class, so generation holds no copy of a split.
    """
    if templates.shape != (spec.classes, spec.channels, spec.width, spec.height):
        raise ContractError(f"templates shape {templates.shape} does not match spec")
    noise_rng = np.random.default_rng(seed)
    n = spec.samples_per_class
    n_train = max(1, int(round(0.8 * n)))
    shape = (spec.channels, spec.width, spec.height)
    train_x = np.empty((spec.classes * n_train, *shape))
    test_x = np.empty((spec.classes * (n - n_train), *shape))
    for c in range(spec.classes):
        # a class's n draws, its first n_train rows going to train
        for x, m in ((train_x, n_train), (test_x, n - n_train)):
            rows = x[c * m : (c + 1) * m]
            noise_rng.standard_normal(out=rows)
            rows *= spec.noise_sigma
            rows += templates[c]
    labels = np.arange(spec.classes, dtype=np.int64)
    return Dataset(train_x, np.repeat(labels, n_train), test_x, np.repeat(labels, n - n_train))


def generate_synthetic_dataset(spec: SyntheticSpec, seed: int = 0) -> Dataset:
    """Seeded synthetic benchmark: shared-basis templates plus pixel noise.

    Raises ``ContractError`` when a sample is not finite, as when
    ``noise_sigma`` is so large that the noise overflows.
    """
    with np.errstate(over="ignore"):
        ds = dataset_from_templates(class_templates(spec), spec, seed)
    for name in ("train_x", "test_x"):
        if not np.isfinite(getattr(ds, name)).all():
            raise ContractError(f"synthetic dataset: field {name} holds non-finite values "
                                f"(noise_sigma={spec.noise_sigma!r})")
    return ds


def _read_cifar_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The raw uint8 records of ``path`` and their fine labels."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise FormatError(f"{path}: empty file")
    if raw.size % _CIFAR_RECORD != 0:
        raise FormatError(
            f"{path}: size {raw.size} is not a multiple of {_CIFAR_RECORD}"
        )
    records = raw.reshape(-1, _CIFAR_RECORD)
    labels = records[:, 1].astype(np.int64)  # byte 0 is the coarse label
    if labels.max() >= _CIFAR_CLASSES:
        raise FormatError(f"{path}: fine label >= {_CIFAR_CLASSES}")
    return records, labels


def _pixels(records: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Records ``idx`` as (N, 3, 32, 32) float64 pixels in [0, 1], one copy."""
    x = records[idx, 2:].astype(np.float64).reshape(-1, 3, 32, 32)
    x /= 255.0
    return x


def ingest_cifar_binary(path: str, classes: int | None = None) -> Dataset:
    """Load CIFAR-100 binary records, scale to [0, 1], standardize per channel.

    ``path`` is a ``train.bin`` file or a directory holding ``train.bin`` and,
    optionally, ``test.bin``. Without a test file, each class is split 80/20
    in record order. ``classes`` keeps only fine labels below that count.
    Standardization statistics always come from the train split. The splits
    are picked on the raw records, so each is converted to float64 once.
    """
    test_path = None
    if os.path.isdir(path):
        path, test_path = os.path.join(path, "train.bin"), os.path.join(path, "test.bin")
    train_rec, train_y = _read_cifar_records(path)
    if test_path is not None and os.path.exists(test_path):
        test_rec, test_y = _read_cifar_records(test_path)
        tr_idx, te_idx = np.arange(train_y.size), np.arange(test_y.size)
    else:
        test_rec = train_rec
        tr_idx, te_idx = [], []
        for c in np.unique(train_y):
            idx = np.flatnonzero(train_y == c)
            cut = max(1, int(round(0.8 * idx.size)))
            tr_idx.append(idx[:cut])
            te_idx.append(idx[cut:])
        tr_idx = np.concatenate(tr_idx)
        te_idx = np.concatenate(te_idx)
        test_y = train_y

    if classes is not None:
        tr_idx = tr_idx[train_y[tr_idx] < classes]
        te_idx = te_idx[test_y[te_idx] < classes]
        if tr_idx.size == 0:
            raise FormatError(f"no records with label < {classes}")

    train_x, test_x = _pixels(train_rec, tr_idx), _pixels(test_rec, te_idx)
    mean = train_x.mean(axis=(0, 2, 3), keepdims=True)
    std = train_x.std(axis=(0, 2, 3), keepdims=True)
    std = np.where(std > 0, std, 1.0)
    for x in (train_x, test_x):
        x -= mean
        x /= std
    return Dataset(train_x, train_y[tr_idx], test_x, test_y[te_idx])


def save_dataset(ds: Dataset, path: str) -> None:
    """Write ``ds`` as an npz archive to exactly ``path``, atomically."""
    with atomic_file(path, "wb") as fh:
        np.savez(fh, train_x=ds.train_x, train_y=ds.train_y, test_x=ds.test_x, test_y=ds.test_y)


def load_dataset(path: str) -> Dataset:
    """Read a :func:`save_dataset` archive, checking every array it holds.

    Raises ``FormatError`` naming the path and the field when the file is not
    a readable npz archive, an array is missing, the inputs are not finite
    (N, C, W, H) numbers, the labels are not non-negative integers of shape
    (N,), or a split's rows disagree. A missing file raises ``OSError``.
    """
    names = ("train_x", "train_y", "test_x", "test_y")
    try:
        # np.load(path) leaves its file open when the zip fails to parse;
        # holding the handle here closes it on every path
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise FormatError(f"{path}: a single array, not an npz archive")
            with archive:
                arrays = {name: archive[name] for name in names if name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise FormatError(f"{path}: not a readable npz archive ({err})")
    for name in names:
        if name not in arrays:
            raise FormatError(f"{path}: missing array {name}")
    for split in ("train", "test"):
        x, y = arrays[f"{split}_x"], arrays[f"{split}_y"]
        if x.ndim != 4 or x.dtype.kind not in "iuf":
            raise FormatError(f"{path}: field {split}_x must be (N, C, W, H) numbers, "
                              f"got {x.dtype} of shape {x.shape}")
        if not np.isfinite(x).all():
            raise FormatError(f"{path}: field {split}_x holds non-finite values")
        if y.ndim != 1 or y.dtype.kind not in "iu":
            raise FormatError(f"{path}: field {split}_y must be (N,) integer labels, "
                              f"got {y.dtype} of shape {y.shape}")
        if y.shape[0] != x.shape[0]:
            raise FormatError(f"{path}: field {split}_y has {y.shape[0]} labels for "
                              f"{x.shape[0]} rows of {split}_x")
        if y.size and y.min() < 0:
            raise FormatError(f"{path}: field {split}_y holds negative labels")
    return Dataset(
        np.asarray(arrays["train_x"], dtype=np.float64),
        np.asarray(arrays["train_y"], dtype=np.int64),
        np.asarray(arrays["test_x"], dtype=np.float64),
        np.asarray(arrays["test_y"], dtype=np.int64),
    )
