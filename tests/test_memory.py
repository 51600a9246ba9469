import copy

import numpy as np
import numpy.testing as npt
import pytest

from podlearn.errors import ContractError, FormatError, NumericError
from podlearn.memory import ExemplarMemory, PerClass, Total, herd_select
from podlearn.protocol import IncrementalRunner

from oracles import class_mean_oracle, herd_order_oracle


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -- herding -------------------------------------------------------------------


def test_herd_first_pick_is_closest_to_mean():
    rng = np.random.default_rng(0)
    feats = _unit_rows(rng.normal(size=(12, 6)))
    picks = herd_select(feats, 1)
    mu = feats.mean(axis=0)
    want = int(np.linalg.norm(feats - mu, axis=1).argmin())
    assert picks == [want]


def test_herd_identical_embeddings_tie_break_by_index():
    feats = np.tile([0.6, 0.8], (7, 1))
    assert herd_select(feats, 4) == [0, 1, 2, 3]


def test_herd_full_order_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        feats = _unit_rows(rng.normal(size=(n, 4)))
        got = herd_select(feats, n)
        want = herd_order_oracle(feats.tolist(), n)
        assert got == want


def test_herd_prefix_property():
    rng = np.random.default_rng(2)
    feats = _unit_rows(rng.normal(size=(15, 5)))
    full = herd_select(feats, 15)
    for m in range(1, 15):
        assert herd_select(feats, m) == full[:m]


def test_herd_contracts():
    feats = np.eye(3)
    with pytest.raises(ContractError):
        herd_select(feats, 0)
    with pytest.raises(ContractError):
        herd_select(feats, 4)


# -- budgets ---------------------------------------------------------------------


def test_per_class_budget_truncates_to_m():
    mem = ExemplarMemory(PerClass(20))
    mem.add_class(list(range(50)))
    mem.add_class(list(range(7)))
    assert mem.per_class[0] == list(range(20))
    assert mem.per_class[1] == list(range(7))  # min(20, available)


def test_total_budget_even_division():
    mem = ExemplarMemory(Total(2000))
    for _ in range(100):
        mem.add_class(list(range(40)))
    assert all(len(v) == 20 for v in mem.per_class)
    assert mem.total_stored() == 2000


def test_total_budget_remainder_goes_to_earliest():
    mem = ExemplarMemory(Total(2000))
    for _ in range(60):
        mem.add_class(list(range(40)))
    lengths = [len(v) for v in mem.per_class]
    assert lengths[:20] == [34] * 20
    assert lengths[20:] == [33] * 40
    assert sum(lengths) == 2000


def test_budget_safety_over_growth_trajectory():
    mem = ExemplarMemory(Total(100))
    for _ in range(30):
        mem.add_class(list(range(25)))
        assert mem.total_stored() <= 100
        n = len(mem.per_class)
        base, rem = divmod(100, n)
        for i, stored in enumerate(mem.per_class):
            want = base + (1 if i < rem else 0)
            assert len(stored) <= want
    # allocations shrink as classes arrive, so prefixes stay consistent
    assert mem.per_class[0] == list(range(len(mem.per_class[0])))


def test_truncation_is_prefix_of_herding_order():
    rng = np.random.default_rng(3)
    feats = _unit_rows(rng.normal(size=(30, 4)))
    order = herd_select(feats, 30)
    mem = ExemplarMemory(PerClass(8))
    mem.add_class(order)
    assert mem.per_class[0] == order[:8]


def test_budget_validation():
    with pytest.raises(ContractError):
        PerClass(0)
    with pytest.raises(ContractError):
        Total(-3)


# -- class means ---------------------------------------------------------------------


def test_single_exemplar_mean_is_its_unit_embedding():
    mem = ExemplarMemory(PerClass(5))
    mem.add_class([3])
    means = mem.class_means(np.array([[3.0, 4.0]]))
    assert means.shape == (1, 2)
    npt.assert_allclose(means[0], [0.6, 0.8], atol=1e-12)


def test_antipodal_exemplars_are_numeric_fault():
    mem = ExemplarMemory(PerClass(5))
    mem.add_class([0, 1])
    with pytest.raises(NumericError):
        mem.class_means(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_zero_norm_exemplar_is_numeric_fault():
    mem = ExemplarMemory(PerClass(5))
    mem.add_class([0])
    with pytest.raises(NumericError):
        mem.class_means(np.zeros((1, 3)))


def test_means_match_scalar_oracle():
    rng = np.random.default_rng(4)
    vecs = rng.normal(size=(5, 6))
    mem = ExemplarMemory(PerClass(5))
    mem.add_class(list(range(5)))
    means = mem.class_means(vecs)
    npt.assert_allclose(means[0], class_mean_oracle(vecs.tolist()), atol=1e-12)


def test_class_means_embed_every_exemplar_in_one_call():
    rng = np.random.default_rng(6)
    vecs = rng.normal(size=(12, 4))
    mem = ExemplarMemory(PerClass(3))
    mem.add_class([4, 1, 7])
    mem.add_class([0, 2])
    mem.add_class([11, 9, 3])
    assert mem.indices().tolist() == [4, 1, 7, 0, 2, 11, 9, 3]
    # one array holds the embeddings of every stored exemplar, in that order
    means = mem.class_means(vecs[mem.indices()])
    assert means.shape == (3, 4)
    for c, stored in enumerate(mem.per_class):
        npt.assert_allclose(means[c], class_mean_oracle(vecs[stored].tolist()), atol=1e-12)
    with pytest.raises(ContractError, match="^7 embeddings for 8 exemplars$"):
        mem.class_means(vecs[mem.indices()[:-1]])


def test_empty_class_rejected_in_means():
    mem = ExemplarMemory(Total(3))
    for c in range(4):  # 4 classes, budget 3: someone ends up empty
        mem.add_class([c])
    with pytest.raises(ContractError, match="^class 3 has no exemplars$"):
        mem.class_means(np.ones((3, 2)))


def test_memory_state_roundtrip(first_task_state):
    ds, sched, cfg, runner, state = first_task_state(budget=Total(10))
    memory = IncrementalRunner.from_state(sched, cfg, ds, state).memory
    assert memory.per_class == runner.memory.per_class
    assert [len(v) for v in memory.per_class] == [5, 5]
    assert memory.budget == Total(10)  # from the config


def test_memory_from_state_names_a_missing_field(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    del state["memory"]["per_class"]["1"]
    with pytest.raises(FormatError) as exc:
        IncrementalRunner.from_state(sched, cfg, ds, state)
    assert "runner.memory.per_class.1" in str(exc.value)


def test_memory_from_state_rejects_a_bad_exemplar_index(first_task_state):
    ds, sched, cfg, _, state = first_task_state()
    other_class = int(ds.train_indices_of(sched.class_order[1])[0])
    for bad in (10**6, -1, other_class, 1.5):
        broken = copy.deepcopy(state)
        broken["memory"]["per_class"]["0"][1] = bad
        with pytest.raises(FormatError, match=r"runner\.memory\.per_class\.0\b"):
            IncrementalRunner.from_state(sched, cfg, ds, broken)


def test_determinism_same_features_same_memory():
    rng = np.random.default_rng(5)
    feats = _unit_rows(rng.normal(size=(20, 4)))
    a = herd_select(feats.copy(), 10)
    b = herd_select(feats.copy(), 10)
    assert a == b
