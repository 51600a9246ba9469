import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from podlearn.config import ExperimentConfig
from podlearn.datasets import (
    Dataset,
    SyntheticSpec,
    class_templates,
    dataset_from_templates,
    generate_synthetic_dataset,
    ingest_cifar_binary,
    load_dataset,
    save_dataset,
)
from podlearn.errors import ConfigError, ContractError, FormatError

from oracles import dataset_from_templates_oracle, ingest_cifar_oracle


def test_spec_validation():
    with pytest.raises(ContractError):
        SyntheticSpec(classes=1)
    with pytest.raises(ContractError):
        SyntheticSpec(noise_sigma=-0.1)
    with pytest.raises(ContractError):
        SyntheticSpec(width=0)
    with pytest.raises(ContractError, match="pattern_seed must be >= 0, got -1"):
        SyntheticSpec(pattern_seed=-1)


def test_split_is_80_20_per_class():
    ds = generate_synthetic_dataset(SyntheticSpec(classes=3, samples_per_class=50), seed=0)
    for c in range(3):
        assert (ds.train_y == c).sum() == 40
        assert (ds.test_y == c).sum() == 10
    assert ds.train_x.shape == (120, 3, 8, 8)


def test_noiseless_spec_gives_identical_samples():
    spec = SyntheticSpec(classes=2, samples_per_class=10, noise_sigma=0.0)
    ds = generate_synthetic_dataset(spec, seed=0)
    for c in range(2):
        rows = ds.train_x[ds.train_y == c]
        assert (rows == rows[0]).all()
    # and train samples equal test samples exactly
    npt.assert_array_equal(ds.train_x[ds.train_y == 0][0], ds.test_x[ds.test_y == 0][0])


def test_generation_is_seeded():
    spec = SyntheticSpec()
    a = generate_synthetic_dataset(spec, seed=3)
    b = generate_synthetic_dataset(spec, seed=3)
    assert (a.train_x == b.train_x).all()
    c = generate_synthetic_dataset(spec, seed=4)
    assert not np.allclose(a.train_x, c.train_x)
    # templates depend on the pattern seed, not the noise seed
    t1 = class_templates(spec)
    t2 = class_templates(SyntheticSpec(pattern_seed=999))
    assert not np.allclose(t1, t2)


def _assert_splits_equal(ds, want):
    for name, expected in zip(("train_x", "train_y", "test_x", "test_y"), want):
        got = getattr(ds, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def _traced_peak(build):
    """``build()``'s result and the peak bytes it held beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def _split_bytes(ds):
    return sum(a.nbytes for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))


@pytest.mark.parametrize("spec", [
    SyntheticSpec(),
    SyntheticSpec(classes=50, samples_per_class=50, width=4, height=4),
    SyntheticSpec(samples_per_class=1000),
    SyntheticSpec(classes=3, samples_per_class=20, noise_sigma=0.0),
    SyntheticSpec(classes=4, samples_per_class=2),
], ids=["a5", "wide", "embed_heavy", "noiseless", "two_per_class"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_equals_the_copying_oracle(spec, seed):
    templates = class_templates(spec)
    ds = dataset_from_templates(templates, spec, seed)
    _assert_splits_equal(ds, dataset_from_templates_oracle(templates, spec, seed))


def test_peak_memory_of_synthetic_generation():
    # the noise is drawn into the splits themselves, and the finiteness check
    # looks at one class's rows at a time: no split-sized temporary
    ds, peak = _traced_peak(lambda: generate_synthetic_dataset(
        SyntheticSpec(samples_per_class=1000)))
    assert peak <= 1.1 * _split_bytes(ds), f"peak {peak / _split_bytes(ds):.2f}x the arrays"


def test_templates_shape_guard():
    spec = SyntheticSpec(classes=4)
    with pytest.raises(ContractError):
        dataset_from_templates(np.zeros((3, 3, 8, 8)), spec, seed=0)


def test_dataset_roundtrip_npz(tmp_path):
    ds = generate_synthetic_dataset(SyntheticSpec(classes=2, samples_per_class=10), seed=1)
    path = str(tmp_path / "data.npz")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert (loaded.train_x == ds.train_x).all()
    assert (loaded.test_y == ds.test_y).all()


def _saved_arrays(tmp_path, **override):
    """Write a small valid dataset with some arrays replaced (None drops one)."""
    ds = generate_synthetic_dataset(SyntheticSpec(classes=2, samples_per_class=10), seed=1)
    arrays = {"train_x": ds.train_x, "train_y": ds.train_y,
              "test_x": ds.test_x, "test_y": ds.test_y}
    arrays.update(override)
    path = str(tmp_path / "data.npz")
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return path


def test_npz_truncated_or_not_a_zip_rejected(tmp_path):
    path = _saved_arrays(tmp_path)
    raw = Path(path).read_bytes()
    for content in (raw[: len(raw) // 2], b"not an archive at all"):
        with open(path, "wb") as fh:
            fh.write(content)
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert path in str(exc.value)
    # a run's config reports it as a configuration error
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_text(f"dataset = npz:{path}").load_data()
    assert path in str(exc.value)


def test_npz_missing_array_rejected(tmp_path):
    path = _saved_arrays(tmp_path, test_y=None)
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert path in str(exc.value) and "test_y" in str(exc.value)


def test_npz_non_integer_labels_rejected(tmp_path):
    path = _saved_arrays(tmp_path, train_y=np.linspace(0.5, 1.5, 16))
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert path in str(exc.value) and "train_y" in str(exc.value)


def test_npz_rank_or_row_count_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(0)
    cases = {
        "train_x": rng.normal(size=(16, 3, 8)),      # rank 3
        "test_y": np.zeros((4, 1), dtype=np.int64),  # rank 2
        "train_y": np.zeros(15, dtype=np.int64),     # 15 labels for 16 rows
    }
    for field, bad in cases.items():
        path = _saved_arrays(tmp_path, **{field: bad})
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert path in str(exc.value) and field in str(exc.value)


def test_npz_negative_labels_rejected(tmp_path):
    path = _saved_arrays(tmp_path, test_y=np.array([0, 1, -1, 0]))
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert path in str(exc.value) and "test_y" in str(exc.value)


def test_npz_non_finite_inputs_rejected(tmp_path):
    ds = generate_synthetic_dataset(SyntheticSpec(classes=2, samples_per_class=10), seed=1)
    for field, bad in (("train_x", np.nan), ("test_x", np.inf)):
        x = getattr(ds, field).copy()
        x[1, 0, 2, 3] = bad
        path = _saved_arrays(tmp_path, **{field: x})
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert path in str(exc.value) and field in str(exc.value)


# -- CIFAR binary ingestion ---------------------------------------------------------


def _record(fine_label, pixel=0, coarse=0):
    return bytes([coarse, fine_label]) + bytes([pixel] * 3072)


def test_cifar_empty_file_rejected(tmp_path):
    path = tmp_path / "train.bin"
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        ingest_cifar_binary(str(path))


def test_cifar_bad_record_size_rejected(tmp_path):
    path = tmp_path / "train.bin"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(FormatError):
        ingest_cifar_binary(str(path))


def test_cifar_label_out_of_range_rejected(tmp_path):
    path = tmp_path / "train.bin"
    path.write_bytes(_record(200))
    with pytest.raises(FormatError):
        ingest_cifar_binary(str(path))


def test_cifar_single_record_label_seven(tmp_path):
    (tmp_path / "train.bin").write_bytes(_record(7, pixel=128))
    (tmp_path / "test.bin").write_bytes(_record(7, pixel=128))
    ds = ingest_cifar_binary(str(tmp_path))
    assert ds.train_y.tolist() == [7] and ds.test_y.tolist() == [7]
    assert ds.train_x.shape == (1, 3, 32, 32)


def test_cifar_full_intensity_scales_to_one(tmp_path):
    # two records so the split keeps one for test; std=0 falls back to 1,
    # so standardized values are (1.0 - 1.0) = 0 but the scaling path is
    # observable through the mean
    train = tmp_path / "train.bin"
    train.write_bytes(_record(1, pixel=255) + _record(2, pixel=0))
    ds = ingest_cifar_binary(str(train))
    # records were [1.0, 0.0] before standardization; mean 0.5, std 0.5
    values = np.unique(np.concatenate([ds.train_x.ravel(), ds.test_x.ravel()]))
    npt.assert_allclose(sorted(values), [-1.0, 1.0], atol=1e-12)


def test_cifar_directory_layout_and_split(tmp_path):
    blob = b"".join(_record(c % 3, pixel=c) for c in range(30))
    (tmp_path / "train.bin").write_bytes(blob)
    ds = ingest_cifar_binary(str(tmp_path))  # no test.bin: 80/20 per class
    for c in range(3):
        assert (ds.train_y == c).sum() == 8
        assert (ds.test_y == c).sum() == 2


def test_cifar_class_subset(tmp_path):
    blob = b"".join(_record(c % 5, pixel=(10 * c) % 256) for c in range(50))
    (tmp_path / "train.bin").write_bytes(blob)
    ds = ingest_cifar_binary(str(tmp_path), classes=2)
    assert set(ds.train_y.tolist()) == {0, 1}
    assert set(ds.test_y.tolist()) == {0, 1}


def test_cifar_standardization_uses_train_stats(tmp_path):
    rng = np.random.default_rng(0)
    recs = []
    for i in range(20):
        px = bytes(rng.integers(0, 256, size=3072, dtype=np.uint8).tolist())
        recs.append(bytes([0, i % 2]) + px)
    (tmp_path / "train.bin").write_bytes(b"".join(recs))
    ds = ingest_cifar_binary(str(tmp_path))
    means = ds.train_x.mean(axis=(0, 2, 3))
    stds = ds.train_x.std(axis=(0, 2, 3))
    npt.assert_allclose(means, 0.0, atol=1e-12)
    npt.assert_allclose(stds, 1.0, atol=1e-12)
    # test split standardized with the same (train) statistics: nonzero mean
    assert abs(ds.test_x.mean()) > 0


def _cifar_blob(n, rng, labels=100):
    """``n`` records with random fine labels below ``labels`` and random pixels."""
    records = rng.integers(0, 256, size=(n, 3074), dtype=np.uint8)
    records[:, 1] = rng.integers(0, labels, size=n)
    return records.tobytes()


@pytest.mark.parametrize("layout", ["file", "dir", "dir_with_test"])
@pytest.mark.parametrize("classes", [None, 7])
def test_cifar_ingestion_equals_the_copying_oracle(tmp_path, layout, classes):
    rng = np.random.default_rng(5)
    (tmp_path / "train.bin").write_bytes(_cifar_blob(120, rng, labels=12))
    if layout == "dir_with_test":
        (tmp_path / "test.bin").write_bytes(_cifar_blob(40, rng, labels=12))
    path = str(tmp_path / "train.bin" if layout == "file" else tmp_path)
    ds = ingest_cifar_binary(path, classes=classes)
    _assert_splits_equal(ds, ingest_cifar_oracle(path, classes=classes))


@pytest.mark.parametrize("classes, bound", [(None, 2.0), (50, 2.3)])
def test_peak_memory_of_cifar_ingestion(tmp_path, classes, bound):
    # splits are picked on the uint8 records, then converted once each
    path = tmp_path / "train.bin"
    path.write_bytes(_cifar_blob(2000, np.random.default_rng(6)))
    ds, peak = _traced_peak(lambda: ingest_cifar_binary(str(path), classes=classes))
    assert peak <= bound * _split_bytes(ds), f"peak {peak / _split_bytes(ds):.2f}x the arrays"


def test_dataset_helpers():
    ds = Dataset(
        np.zeros((4, 1, 2, 2)), np.array([0, 0, 1, 1]),
        np.zeros((2, 1, 2, 2)), np.array([0, 1]),
    )
    assert np.unique(ds.train_y).tolist() == [0, 1]
    assert ds.input_shape == (1, 2, 2)
    npt.assert_array_equal(ds.train_indices_of(1), [2, 3])
