"""Exemplar rehearsal memory: herding selection, budgets, class means.

Exemplar lists are kept in herding order, so shrinking a class's allocation
is a prefix truncation and the greedy selection never has to be redone.
Budgets come in two flavors: a fixed cap per old class, or one shared total
split evenly across classes (remainder to the earliest-added classes).
No class ever holds more than the budget's ``m``, and greedy picks do not
depend on how far herding runs, so a new class is herded only ``m`` deep.
Class means come out as one ``(C, D)`` matrix, row c for class position c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError
from .tensor import unit_vectors


@dataclass(frozen=True)
class PerClass:
    """At most ``m`` exemplars for every class."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ContractError(f"PerClass budget must be >= 1, got {self.m}")


@dataclass(frozen=True)
class Total:
    """A shared pool of ``m`` exemplars split across all classes."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ContractError(f"Total budget must be >= 1, got {self.m}")


Budget = PerClass | Total


def herd_select(features: np.ndarray, m: int) -> list[int]:
    """Greedy herding order: indices whose running mean best tracks the class mean.

    Step k picks the unpicked sample minimizing
    ``|| mean - (chosen_sum + f_x) / k ||``. Ties go to the lowest index.
    Features are expected row-normalized by the caller.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ContractError(f"herd_select: expected (N, D) features, got {features.shape}")
    n = features.shape[0]
    if not (1 <= m <= n):
        raise ContractError(f"herd_select: need 1 <= m <= {n}, got {m}")
    mu = features.mean(axis=0)
    picked: list[int] = []
    taken = np.zeros(n, dtype=bool)
    running = np.zeros_like(mu)
    for k in range(1, m + 1):
        cand = (running[None, :] + features) / k
        dist = np.linalg.norm(mu[None, :] - cand, axis=1)
        dist[taken] = np.inf
        # lowest index wins on ties, robust to last-ulp noise in the norms
        idx = int(np.flatnonzero(dist <= dist.min() + 1e-12)[0])
        picked.append(idx)
        taken[idx] = True
        running += features[idx]
    return picked


def _allocation(budget: Budget, n: int) -> list[int]:
    """Exemplars each of ``n`` classes may keep, in class order."""
    if isinstance(budget, PerClass):
        return [budget.m] * n
    base, rem = divmod(budget.m, n)
    return [base + (1 if i < rem else 0) for i in range(n)]


class ExemplarMemory:
    """Exemplar lists by class position, in herding order; only ``add_class`` changes them."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.per_class: list[list[int]] = []

    def total_stored(self) -> int:
        return sum(len(v) for v in self.per_class)

    def indices(self) -> np.ndarray:
        """Every stored index as one int64 array, class by class in herding order."""
        return np.array([i for v in self.per_class for i in v], dtype=np.int64)

    def add_class(self, herding_order: list[int]) -> None:
        """Store the herding order of the next class position, then cut every
        class list to its current allocation (a prefix cut)."""
        self.per_class.append([int(i) for i in herding_order])
        alloc = _allocation(self.budget, len(self.per_class))
        self.per_class = [order[:m] for order, m in zip(self.per_class, alloc)]

    def class_means(self, embeddings: np.ndarray) -> np.ndarray:
        """Unit-norm means of unit-norm exemplar embeddings, one row per class.

        ``embeddings`` holds the raw embeddings of ``indices()``, in that
        order, computed with the current model, so means track
        representation drift. A zero mean (e.g. antipodal exemplars) is a
        numeric fault, not a silent zero vector.
        """
        unit, alive, _ = unit_vectors(np.asarray(embeddings, dtype=np.float64))
        if len(unit) != self.total_stored():
            raise ContractError(f"{len(unit)} embeddings for {self.total_stored()} exemplars")
        bounds = np.cumsum([len(v) for v in self.per_class])
        means = np.empty((len(self.per_class), unit.shape[1]))
        for c, rows, ok in zip(range(len(means)), np.split(unit, bounds), np.split(alive, bounds)):
            if not rows.size:
                raise ContractError(f"class {c} has no exemplars")
            if not ok.all():
                raise NumericError(f"class {c}: zero-norm exemplar embedding")
            means[c], mean_ok, _ = unit_vectors(rows.mean(axis=0))
            if not mean_ok.all():
                raise NumericError(f"class {c}: exemplar mean is (near-)zero")
        return means
