"""Incremental-learning orchestration.

One run walks a task schedule: snapshot the previous model as a frozen
teacher, imprint proxies for the new classes, train on new data plus
rehearsal exemplars with the combined classification + distillation loss,
refresh the exemplar memory by herding, then evaluate on everything seen so
far with both inference modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, BackboneConfig
from .datasets import Dataset
from .errors import ContractError
from .lsc import (
    ProxyBank,
    cross_entropy_loss,
    imprint_new_classes,
    lsc_scores,
    nca_hinge_loss,
)
from .memory import Budget, ExemplarMemory, PerClass, herd_select
from .pod import PodConfig, pod_final
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class TaskSchedule:
    """Seeded class ordering carved into an initial task plus equal increments."""

    class_order: tuple[int, ...]
    initial_task_size: int
    increment: int

    def __post_init__(self):
        total = len(self.class_order)
        if sorted(self.class_order) != list(range(total)):
            raise ContractError("class_order must be a permutation of 0..N-1")
        if not (1 <= self.initial_task_size <= total):
            raise ContractError(f"bad initial_task_size {self.initial_task_size}")
        rest = total - self.initial_task_size
        if rest and (self.increment < 1 or rest % self.increment):
            raise ContractError(
                f"{rest} remaining classes do not divide into increments of {self.increment}"
            )

    @property
    def num_tasks(self) -> int:
        rest = len(self.class_order) - self.initial_task_size
        return 1 + (rest // self.increment if rest else 0)

    def task_classes(self, task: int) -> list[int]:
        """Original class ids introduced by task ``task`` (0-based)."""
        if not (0 <= task < self.num_tasks):
            raise ContractError(f"task {task} outside 0..{self.num_tasks - 1}")
        if task == 0:
            return list(self.class_order[: self.initial_task_size])
        lo = self.initial_task_size + (task - 1) * self.increment
        return list(self.class_order[lo : lo + self.increment])

    @classmethod
    def build(cls, class_count: int, initial_task_size: int, increment: int, seed: int):
        order = tuple(int(c) for c in np.random.default_rng(seed).permutation(class_count))
        return cls(order, initial_task_size, increment)


def average_incremental_accuracy(accs) -> float:
    """Arithmetic mean of the end-of-task accuracies, first task included."""
    accs = list(accs)
    if not accs:
        raise ContractError("no accuracies to average")
    return float(np.mean(accs))


def adaptive_scale(seen_classes: int, new_classes: int) -> float:
    """sqrt(seen / new): distillation weight grows as the run lengthens."""
    if seen_classes < 1 or new_classes < 1:
        raise ContractError("class counts must be >= 1")
    return math.sqrt(seen_classes / new_classes)


@dataclass
class RunMetrics:
    nme_accuracy: list[float] = field(default_factory=list)
    cnn_accuracy: list[float] = field(default_factory=list)
    seen_classes: list[int] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def avg_nme(self) -> float:
        return average_incremental_accuracy(self.nme_accuracy)

    @property
    def avg_cnn(self) -> float:
        return average_incremental_accuracy(self.cnn_accuracy)


@dataclass(frozen=True)
class RunConfig:
    backbone: BackboneConfig = BackboneConfig()
    pod: PodConfig = PodConfig()
    proxies_per_class: int = 10
    margin: float = 0.6
    eta_init: float = 1.0
    classifier_loss: str = "nca"  # "nca" or "ce"
    budget: Budget = PerClass(20)
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs_per_task: int = 60
    batch_size: int = 32
    balanced_finetune: bool = False
    finetune_epochs: int = 10
    finetune_lr: float = 0.005

    def __post_init__(self):
        if self.classifier_loss not in ("nca", "ce"):
            raise ContractError(f"unknown classifier_loss {self.classifier_loss!r}")
        if self.learning_rate <= 0 or not (0 <= self.momentum < 1):
            raise ContractError("bad optimizer settings")
        if self.epochs_per_task < 1 or self.batch_size < 1:
            raise ContractError("bad training settings")


# L2 weight decay of every task and finetune optimizer: 5e-4, the CIFAR100
# value in LUCIR's implementation details (Hou et al., CVPR 2019), whose
# recipe PODNet trains with. PAPER.md holds only PODNet's abstract, so the
# value cannot be checked against the paper text from this repository.
WEIGHT_DECAY = 5e-4


class SGD:
    """SGD with momentum and L2 weight decay; the caller sets lr per epoch.

    Each step is ``v <- momentum * v + grad + weight_decay * p`` followed by
    ``p <- p - lr * v`` (coupled decay, as in ``torch.optim.SGD``). Tensors in
    ``no_decay`` move by their gradient only. The runner passes the score
    scale eta there: it is floored at its init so that nothing drags it
    toward zero, and decay would. Leaving eta undecayed is this package's
    choice, not taken from the paper.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0, no_decay: tuple[Tensor, ...] = ()):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        skip = {id(t) for t in no_decay}
        self._decay = [0.0 if id(p) in skip else weight_decay for p in params]
        self._velocity = [np.zeros_like(p.data) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        for p, v, decay in zip(self.params, self._velocity, self._decay):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            if decay:
                v += decay * p.data
            p.data = p.data - self.lr * v


_SCORE_BLOCK = 1 << 14


def _cosine_lr(base: float, epoch: int, total_epochs: int) -> float:
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def _embed_all(model: Backbone, x: np.ndarray, batch: int = 64) -> np.ndarray:
    # chunks of 64 keep conv2d's column matrices (up to KW*KH times the size
    # of their input map) below the peak memory a training step reaches anyway
    chunks = []
    with no_grad():
        for i in range(0, x.shape[0], batch):
            chunks.append(model.embed(Tensor(x[i : i + batch])).data)
    return np.concatenate(chunks)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms > 1e-12, norms, 1.0)


def evaluate(
    model: Backbone,
    bank: ProxyBank,
    memory: ExemplarMemory,
    test_x: np.ndarray,
    test_y: np.ndarray,
    mode: str,
    train_x: np.ndarray | None = None,
) -> float:
    """Accuracy over the cumulative test set with NME or classifier inference.

    NME predicts the nearest (cosine) class mean of stored exemplars,
    recomputed with the current model from ``train_x``; CNN predicts the
    argmax of the classifier scores.
    """
    if mode not in ("nme", "cnn"):
        raise ContractError(f"unknown inference mode {mode!r}")
    test_y = np.asarray(test_y)
    if test_y.size == 0:
        raise ContractError("empty test set")
    if test_y.max() >= bank.num_classes or test_y.min() < 0:
        raise ContractError("test labels refer to unseen classes")

    emb = _embed_all(model, test_x)
    if mode == "nme":
        if train_x is None:
            raise ContractError("NME evaluation needs train_x for exemplar means")
        means = memory.class_means(lambda idx: _embed_all(model, train_x[np.asarray(idx)]))
        if sorted(means) != list(range(bank.num_classes)):
            raise ContractError("memory does not cover every seen class")
        mean_mat = np.stack([means[c] for c in range(bank.num_classes)])
        scores = _normalize_rows(emb) @ mean_mat.T
        preds = scores.argmax(axis=1)
    else:
        # score in row chunks whose (rows, C*K) similarity block stays near
        # _SCORE_BLOCK doubles, so the transient does not grow with the classes
        step = max(1, _SCORE_BLOCK // (bank.num_classes * bank.K))
        preds_chunks = []
        with no_grad():
            for i in range(0, emb.shape[0], step):
                scores = lsc_scores(Tensor(emb[i : i + step]), bank)
                preds_chunks.append(scores.data.argmax(axis=1))
        preds = np.concatenate(preds_chunks)
    return float((preds == test_y).mean())


class IncrementalRunner:
    """Drives one seeded run task by task; checkpointable between tasks."""

    def __init__(self, schedule: TaskSchedule, config: RunConfig, dataset: Dataset, seed: int):
        if dataset.class_count < len(schedule.class_order):
            raise ContractError(
                f"dataset has {dataset.class_count} classes, schedule needs "
                f"{len(schedule.class_order)}"
            )
        if dataset.input_shape != config.backbone.input_shape:
            raise ContractError(
                f"dataset shape {dataset.input_shape} != backbone input "
                f"{config.backbone.input_shape}"
            )
        self.schedule = schedule
        self.config = config
        self.dataset = dataset
        self.seed = seed
        model_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
        self.backbone = Backbone(config.backbone, seed=model_seed)
        self.bank = ProxyBank(
            config.backbone.embedding_dim,
            config.proxies_per_class,
            config.margin,
            config.eta_init,
        )
        self.memory = ExemplarMemory(config.budget)
        self.rng = np.random.default_rng(run_seed)
        self.class_map: list[int] = []  # original id at each dense position
        self.metrics = RunMetrics(
            metadata={"balanced_finetune": config.balanced_finetune}
        )
        self.task_cursor = 0

    @property
    def done(self) -> bool:
        return self.task_cursor >= self.schedule.num_tasks

    def _dense_labels(self, original: np.ndarray) -> np.ndarray:
        lookup = {c: i for i, c in enumerate(self.class_map)}
        return np.asarray([lookup[int(c)] for c in original], dtype=np.int64)

    def _class_embeddings(self, class_id: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.dataset.train_indices_of(class_id)
        emb = _embed_all(self.backbone, self.dataset.train_x[idx])
        return idx, _normalize_rows(emb)

    def run_next_task(self) -> dict:
        if self.done:
            raise ContractError("schedule already finished")
        t = self.task_cursor
        cfg = self.config
        new_classes = self.schedule.task_classes(t)
        try:
            distil = t > 0 and (cfg.pod.lambda_c > 0 or cfg.pod.lambda_f > 0)
            teacher = self.backbone.clone_frozen() if distil else None

            # imprint proxies for the incoming classes
            feats = [self._class_embeddings(c)[1] for c in new_classes]
            for c, proxies in zip(new_classes, imprint_new_classes(feats, self.bank.K, self.rng)):
                self.bank.add_class(proxies)
                self.class_map.append(c)

            seen = len(self.class_map)
            lam = adaptive_scale(seen, len(new_classes))
            self._train_task(new_classes, teacher, lam)

            # herd the new classes, then re-apply budgets everywhere
            for c in new_classes:
                idx, emb = self._class_embeddings(c)
                order = herd_select(emb, len(idx))
                self.memory.add_class(self.class_map.index(c), [int(idx[i]) for i in order])
            self.memory.rebuild()

            if cfg.balanced_finetune and t > 0:
                self._balanced_finetune()

            test_x, test_y = self._seen_test_set()
            nme = evaluate(
                self.backbone, self.bank, self.memory, test_x, test_y, "nme",
                train_x=self.dataset.train_x,
            )
            cnn = evaluate(self.backbone, self.bank, self.memory, test_x, test_y, "cnn")
        except Exception as err:
            err.args = (f"task {t}: {err}",)
            raise

        self.metrics.nme_accuracy.append(nme)
        self.metrics.cnn_accuracy.append(cnn)
        self.metrics.seen_classes.append(len(self.class_map))
        self.task_cursor += 1
        return {
            "task_index": t,
            "seen_classes": len(self.class_map),
            "nme_accuracy": nme,
            "cnn_accuracy": cnn,
        }

    def _task_train_pool(self, new_classes: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Indices and dense labels of the task's data: new classes + rehearsal."""
        parts = [self.dataset.train_indices_of(c) for c in new_classes]
        new_dense = {self.class_map.index(c) for c in new_classes}
        for dense_id, stored in self.memory.per_class.items():
            if dense_id not in new_dense:
                parts.append(np.asarray(stored, dtype=np.int64))
        indices = np.concatenate(parts)
        labels = self._dense_labels(self.dataset.train_y[indices])
        return indices, labels

    def _classifier_loss(self, yhat: Tensor, labels: np.ndarray) -> Tensor:
        if self.config.classifier_loss == "ce":
            return cross_entropy_loss(yhat, labels, self.bank.eta)
        return nca_hinge_loss(yhat, labels, self.bank.eta, self.bank.delta)

    def _sgd_epochs(self, params: list[Tensor], base_lr: float, epochs: int, n: int,
                    batch_loss) -> None:
        """Cosine-annealed SGD over ``n`` samples reshuffled every epoch.

        ``batch_loss(sel)`` returns the loss of the samples at positions ``sel``.
        """
        cfg = self.config
        opt = SGD(params, base_lr, cfg.momentum, WEIGHT_DECAY, (self.bank.eta,))
        for epoch in range(epochs):
            opt.lr = _cosine_lr(base_lr, epoch, epochs)
            perm = self.rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                # the previous batch's graph stays alive until this one is built;
                # freeing it first let the allocator hand memory back and fault it
                # in again (a5_podnet: 16k -> 582k minor page faults per schedule)
                loss = batch_loss(perm[lo : lo + cfg.batch_size])
                opt.zero_grad()
                loss.backward()
                opt.step()
                self.bank.clamp_eta()

    def _train_task(self, new_classes: list[int], teacher, lam: float) -> None:
        """Train backbone and classifier; distil from ``teacher`` unless it is None."""
        cfg = self.config
        if self.bank.num_classes < 2 and cfg.classifier_loss == "nca":
            raise ContractError("NCA loss needs >= 2 classes in the first task")
        indices, labels = self._task_train_pool(new_classes)

        def batch_loss(sel):
            x = Tensor(self.dataset.train_x[indices[sel]])
            outs = self.backbone.forward_with_stages(x)
            loss = self._classifier_loss(lsc_scores(outs.embedding, self.bank), labels[sel])
            if teacher is None:
                return loss
            return loss + pod_final(teacher.forward_with_stages(x), outs, cfg.pod, lam)

        self._sgd_epochs(self.backbone.parameters() + self.bank.parameters(),
                         cfg.learning_rate, cfg.epochs_per_task, indices.size, batch_loss)

    def _balanced_finetune(self) -> None:
        """Optional post-task pass over the (balanced) memory, classifier only."""
        cfg = self.config
        indices = np.concatenate(
            [np.asarray(v, dtype=np.int64) for v in self.memory.per_class.values()]
        )
        labels = self._dense_labels(self.dataset.train_y[indices])

        def batch_loss(sel):
            with no_grad():
                emb = self.backbone.embed(Tensor(self.dataset.train_x[indices[sel]]))
            return self._classifier_loss(lsc_scores(emb, self.bank), labels[sel])

        self._sgd_epochs(self.bank.parameters(), cfg.finetune_lr, cfg.finetune_epochs,
                         indices.size, batch_loss)

    def _seen_test_set(self) -> tuple[np.ndarray, np.ndarray]:
        mask = np.isin(self.dataset.test_y, self.class_map)
        return self.dataset.test_x[mask], self._dense_labels(self.dataset.test_y[mask])

    # -- checkpointable state ------------------------------------------------

    def to_state(self) -> dict:
        return {
            "task_cursor": self.task_cursor,
            "seed": self.seed,
            "class_map": list(self.class_map),
            "backbone": self.backbone.state(),
            "bank": self.bank.state(),
            "memory": self.memory.state(),
            "rng": self.rng.bit_generator.state,
            "metrics": {
                "nme_accuracy": self.metrics.nme_accuracy,
                "cnn_accuracy": self.metrics.cnn_accuracy,
                "seen_classes": self.metrics.seen_classes,
                "metadata": self.metrics.metadata,
            },
        }

    @classmethod
    def from_state(
        cls, schedule: TaskSchedule, config: RunConfig, dataset: Dataset, state: dict
    ) -> "IncrementalRunner":
        runner = cls(schedule, config, dataset, state["seed"])
        runner.task_cursor = state["task_cursor"]
        runner.class_map = [int(c) for c in state["class_map"]]
        runner.backbone = Backbone.from_state(state["backbone"])
        runner.bank = ProxyBank.from_state(state["bank"])
        runner.memory = ExemplarMemory.from_state(state["memory"])
        runner.rng.bit_generator.state = state["rng"]
        m = state["metrics"]
        runner.metrics = RunMetrics(
            list(m["nme_accuracy"]),
            list(m["cnn_accuracy"]),
            [int(s) for s in m["seen_classes"]],
            dict(m["metadata"]),
        )
        return runner


def run_schedule(
    schedule: TaskSchedule,
    config: RunConfig,
    dataset: Dataset,
    seed: int,
    on_task_end=None,
) -> RunMetrics:
    """Execute the whole schedule; optional callback fires after each task."""
    runner = IncrementalRunner(schedule, config, dataset, seed)
    while not runner.done:
        row = runner.run_next_task()
        if on_task_end is not None:
            on_task_end(runner, row)
    return runner.metrics
