"""Incremental-learning orchestration.

One run walks a task schedule: imprint proxies for the new classes, reduce
the previous task's model (the teacher) to its distillation targets over the
task's data, train on new data plus rehearsal exemplars with the combined
classification + distillation loss, refresh the exemplar memory by herding,
then evaluate on everything seen so far with both inference modes from one
embedding of the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backbone import Backbone, BackboneConfig
from .datasets import Dataset
from .checkpoint import read_field
from .errors import ContractError, FormatError
from .lsc import (
    ProxyBank,
    cross_entropy_loss,
    imprint_new_classes,
    lsc_scores,
    nca_hinge_loss,
)
from .memory import Budget, ExemplarMemory, PerClass, Total, herd_select
from .pod import PodConfig, pod_final, pod_targets
from .tensor import Tensor, no_grad, unit_vectors


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
        if self.increment < 1:
            raise ContractError(f"increment must be >= 1, got {self.increment}")
        rest = total - self.initial_task_size
        if rest % self.increment:
            raise ContractError(
                f"{rest} remaining classes do not divide into increments of {self.increment}"
            )

    @property
    def num_tasks(self) -> int:
        return 1 + (len(self.class_order) - self.initial_task_size) // self.increment

    def positions(self, task: int) -> range:
        """Schedule positions of the classes task ``task`` (0-based) introduces."""
        if not (0 <= task < self.num_tasks):
            raise ContractError(f"task {task} outside 0..{self.num_tasks - 1}")
        stop = self.initial_task_size + task * self.increment
        return range(stop - (self.increment if task else self.initial_task_size), stop)

    def task_classes(self, task: int) -> list[int]:
        """Original class ids introduced by task ``task`` (0-based)."""
        return [self.class_order[p] for p in self.positions(task)]

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
        if self.learning_rate <= 0 or self.finetune_lr <= 0 or not (0 <= self.momentum < 1):
            raise ContractError("bad optimizer settings")
        if self.proxies_per_class < 1:
            raise ContractError(f"proxies_per_class must be >= 1, got {self.proxies_per_class}")
        if not self.eta_init > 0:
            raise ContractError(f"eta_init must be > 0, got {self.eta_init}")
        if not self.margin >= 0:
            raise ContractError(f"margin must be >= 0, got {self.margin}")
        if self.epochs_per_task < 1 or self.finetune_epochs < 1 or self.batch_size < 1:
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


def _forward_rows(model: Backbone, x: np.ndarray, rows: np.ndarray, rows_of,
                  batch: int = 64) -> np.ndarray:
    """``rows_of(StageOutputs)`` for the rows ``x[rows]``, from no-grad forwards.

    Each chunk gathers its rows of ``x`` by index, and the chunks' results
    fill one array allocated from the first chunk, so only one chunk's input
    and stage maps are alive at a time and ``x[rows]`` is never copied whole.
    Zero rows still run one empty forward, which gives an empty array of the
    right width.
    """
    # chunks of 64 keep the backbone's column matrices (up to 9 times the size
    # of a conv's input map, one conv's at a time in a no-grad forward) below
    # the peak memory a training step reaches anyway
    out = None
    for lo in range(0, max(rows.size, 1), batch):
        with no_grad():
            chunk = rows_of(model.forward_with_stages(Tensor(x[rows[lo : lo + batch]])))
        if out is None:
            out = np.empty((rows.size, chunk.shape[1]))
        out[lo : lo + batch] = chunk
    return out


def _embed_all(model: Backbone, x: np.ndarray, rows: np.ndarray, batch: int = 64) -> np.ndarray:
    return _forward_rows(model, x, rows, lambda outs: outs.embedding.data, batch)


def evaluate(
    model: Backbone,
    bank: ProxyBank,
    memory: ExemplarMemory,
    test_x: np.ndarray,
    test_y: np.ndarray,
    train_x: np.ndarray,
) -> tuple[float, float]:
    """NME and CNN accuracy over the test rows of seen classes, from one embedding.

    The rows scored are those whose label is below ``bank.num_classes``;
    rows of classes not yet seen are left out of both accuracies. NME
    predicts the nearest (cosine) class mean of stored exemplars, recomputed
    with the current model from ``train_x``; CNN predicts the argmax of the
    classifier scores.
    """
    test_y = np.asarray(test_y)
    if test_y.size and test_y.min() < 0:
        raise ContractError("negative test labels")
    rows = np.flatnonzero(test_y < bank.num_classes)
    if rows.size == 0:
        raise ContractError("no test rows of a seen class")
    if len(memory.per_class) != bank.num_classes:
        raise ContractError("memory does not cover every seen class")
    means = memory.class_means(_embed_all(model, train_x, memory.indices()))

    emb = _embed_all(model, test_x, rows)
    labels = test_y[rows]
    nme_preds = (unit_vectors(emb)[0] @ means.T).argmax(axis=1)
    # score in row chunks whose (K, C, rows) similarity block stays near
    # _SCORE_BLOCK doubles, so the transient does not grow with the classes
    step = max(1, _SCORE_BLOCK // (bank.num_classes * bank.K))
    with no_grad():
        cnn_preds = np.concatenate([
            lsc_scores(Tensor(emb[i : i + step]), bank).data.argmax(axis=1)
            for i in range(0, emb.shape[0], step)
        ])
    return float((nme_preds == labels).mean()), float((cnn_preds == labels).mean())


class IncrementalRunner:
    """Drives one seeded run task by task; checkpointable between tasks."""

    def __init__(self, schedule: TaskSchedule, config: RunConfig, dataset: Dataset, seed: int):
        if dataset.input_shape != config.backbone.input_shape:
            raise ContractError(
                f"dataset shape {dataset.input_shape} != backbone input "
                f"{config.backbone.input_shape}"
            )
        n = len(schedule.class_order)
        if schedule.initial_task_size < 2 and config.classifier_loss == "nca":
            raise ContractError("NCA loss needs >= 2 classes in the first task")
        if isinstance(config.budget, Total) and config.budget.m < n:
            raise ContractError(f"Total budget of {config.budget.m} exemplars cannot keep one "
                                f"for each of the {n} classes")
        # every label as its class's position in the schedule, the one class
        # numbering the run uses; classes the schedule leaves out map to n
        position = np.append(np.argsort(schedule.class_order), n)
        self.train_y = position[np.minimum(dataset.train_y, n)]
        self.test_y = position[np.minimum(dataset.test_y, n)]
        empty = np.flatnonzero(np.bincount(self.train_y, minlength=n)[:n] == 0)
        if empty.size:
            raise ContractError(f"class {schedule.class_order[empty[0]]} has no training samples")
        if not (self.test_y < schedule.initial_task_size).any():
            raise ContractError(f"the first task's classes {schedule.task_classes(0)} have no "
                                f"test samples")
        self.schedule = schedule
        self.config = config
        self.dataset = dataset
        model_seed, run_seed = np.random.SeedSequence(seed).spawn(2)
        self.backbone = Backbone(config.backbone, seed=model_seed)
        self.bank = ProxyBank(config.backbone.embedding_dim, config.proxies_per_class,
                              config.eta_init)
        self.memory = ExemplarMemory(config.budget)
        self.rng = np.random.default_rng(run_seed)
        self.metrics = RunMetrics()

    @property
    def task_cursor(self) -> int:
        """The number of tasks scored so far, which is the next task's index."""
        return len(self.metrics.nme_accuracy)

    @property
    def done(self) -> bool:
        return self.task_cursor >= self.schedule.num_tasks

    def _class_embeddings(self, classes: range) -> list[tuple[np.ndarray, np.ndarray]]:
        """Train indices and unit embeddings of each class, from one forward."""
        parts = [np.flatnonzero(self.train_y == c) for c in classes]
        emb = _embed_all(self.backbone, self.dataset.train_x, np.concatenate(parts))
        return list(zip(parts, np.split(unit_vectors(emb)[0], np.cumsum([p.size for p in parts]))))

    def run_next_task(self) -> dict:
        if self.done:
            raise ContractError("schedule already finished")
        t = self.task_cursor
        cfg = self.config
        new_classes = self.schedule.positions(t)
        seen = new_classes.stop
        try:
            # imprint proxies for the incoming classes
            feats = [emb for _, emb in self._class_embeddings(new_classes)]
            for proxies in imprint_new_classes(feats, self.bank.K, self.rng):
                self.bank.add_class(proxies)

            lam = adaptive_scale(seen, len(new_classes))
            self._train_task(new_classes, lam)

            # herd the new classes as far as any budget can keep: no class ever
            # holds more than budget.m, and greedy picks do not depend on how
            # far herding runs; add_class re-applies the budgets everywhere
            for idx, emb in self._class_embeddings(new_classes):
                order = herd_select(emb, min(idx.size, cfg.budget.m))
                self.memory.add_class(idx[order].tolist())

            if cfg.balanced_finetune and t > 0:
                self._balanced_finetune()

            nme, cnn = evaluate(self.backbone, self.bank, self.memory,
                                self.dataset.test_x, self.test_y, self.dataset.train_x)
        except Exception as err:
            err.args = (f"task {t}: {err}",)
            raise

        self.metrics.nme_accuracy.append(nme)
        self.metrics.cnn_accuracy.append(cnn)
        return {
            "task_index": t,
            "seen_classes": seen,
            "nme_accuracy": nme,
            "cnn_accuracy": cnn,
        }

    def _task_train_pool(self, new_classes: range) -> tuple[np.ndarray, np.ndarray]:
        """Indices and labels of the task's data: new classes + rehearsal."""
        # the memory holds old classes only: new ones are herded after training
        parts = [np.flatnonzero(self.train_y == c) for c in new_classes]
        indices = np.concatenate(parts + [self.memory.indices()])
        return indices, self.train_y[indices]

    def _head_loss(self, emb: Tensor, labels: np.ndarray) -> Tensor:
        """The classification loss of the embeddings ``emb`` against ``labels``."""
        yhat = lsc_scores(emb, self.bank)
        if self.config.classifier_loss == "ce":
            return cross_entropy_loss(yhat, labels, self.bank.eta)
        return nca_hinge_loss(yhat, labels, self.bank.eta, self.config.margin)

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

    def _train_task(self, new_classes: range, lam: float) -> None:
        """Train backbone and classifier, distilling from the previous task's model."""
        cfg = self.config
        indices, labels = self._task_train_pool(new_classes)
        targets = None
        if self.task_cursor > 0 and (cfg.pod.lambda_c > 0 or cfg.pod.lambda_f > 0):
            # the teacher is the backbone before its first step of this task
            # (imprinting never touches it), and it stays frozen for the whole
            # task: reduce it to its POD targets over the pool once
            targets = _forward_rows(self.backbone, self.dataset.train_x, indices,
                                    lambda outs: pod_targets(outs, cfg.pod.mode))

        def batch_loss(sel):
            return self._step_loss(indices[sel], labels[sel],
                                   None if targets is None else targets[sel], lam)

        self._sgd_epochs(self.backbone.parameters() + self.bank.parameters(),
                         cfg.learning_rate, cfg.epochs_per_task, indices.size, batch_loss)

    def _step_loss(self, rows: np.ndarray, labels: np.ndarray, targets, lam: float) -> Tensor:
        """The loss one training step differentiates, for the train rows ``rows``.

        Classification of the rows' embeddings against their ``labels``, plus
        POD distillation at weight ``lam`` towards the teacher's ``targets``
        for the same rows; ``targets`` is None when there is no teacher.
        """
        outs = self.backbone.forward_with_stages(Tensor(self.dataset.train_x[rows]))
        loss = self._head_loss(outs.embedding, labels)
        if targets is None:
            return loss
        return loss + pod_final(targets, outs, self.config.pod, lam)

    def _balanced_finetune(self) -> None:
        """Optional post-task pass over the (balanced) memory, classifier only."""
        cfg = self.config
        indices = self.memory.indices()
        labels = self.train_y[indices]
        # the backbone is frozen here: embed the memory once
        emb = _embed_all(self.backbone, self.dataset.train_x, indices)

        def batch_loss(sel):
            return self._head_loss(Tensor(emb[sel]), labels[sel])

        self._sgd_epochs(self.bank.parameters(), cfg.finetune_lr, cfg.finetune_epochs,
                         indices.size, batch_loss)

    # -- checkpointable state ------------------------------------------------

    def to_state(self) -> dict:
        """The learned state: only what the schedule and config cannot rebuild."""
        return {
            "backbone": {"params": {
                name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
                for name, t in self.backbone.params.items()
            }},
            "bank": {"eta": float(self.bank.eta.data), "theta": self.bank.theta.data.tolist()},
            "memory": {"per_class": {str(c): list(v) for c, v in enumerate(self.memory.per_class)}},
            "rng": self.rng.bit_generator.state,
            "metrics": {
                "nme_accuracy": self.metrics.nme_accuracy,
                "cnn_accuracy": self.metrics.cnn_accuracy,
            },
        }

    @classmethod
    def from_state(
        cls, schedule: TaskSchedule, config: RunConfig, dataset: Dataset, state: dict
    ) -> "IncrementalRunner":
        """A fresh runner for ``config`` with the learned state of ``to_state`` loaded.

        Fields the config or schedule fix (margin, budget, shapes, the class
        order, the running class count) come from them; a stored copy, as older
        checkpoints hold, is ignored, and so are a stored seed and task cursor:
        the parameters and RNG state a seed would seed are loaded, and the
        number of NME accuracies is the cursor. Every field is read by
        ``read_field``; a missing, malformed or impossible one raises
        ``FormatError`` naming its dotted path.
        """
        nme, nme_at = read_field(state, ("metrics", "nme_accuracy"), (None,))
        cursor = nme.size  # the number of scored tasks
        if cursor > schedule.num_tasks:
            raise FormatError(f"checkpoint field {nme_at} holds {cursor} accuracies, more than "
                              f"the schedule's {schedule.num_tasks} tasks")
        cnn, cnn_at = read_field(state, ("metrics", "cnn_accuracy"), (cursor,))
        for acc, where in ((nme, nme_at), (cnn, cnn_at)):
            if ((acc < 0) | (acc > 1)).any():
                raise FormatError(f"checkpoint field {where} holds an accuracy outside [0, 1]")
        n_classes = schedule.positions(cursor - 1).stop if cursor else 0  # seen so far
        runner = cls(schedule, config, dataset, seed=0)
        runner.metrics = RunMetrics(nme.tolist(), cnn.tolist())

        # the fresh runner's parameters carry the expected names and shapes
        params, where = read_field(state, ("backbone", "params"))
        names = sorted(set(params) ^ set(runner.backbone.params))
        if names:
            raise FormatError(f"checkpoint field {where}: parameter names mismatch: {names}")
        for name, p in runner.backbone.params.items():
            path = ("backbone", "params", name)
            shape, where = read_field(state, path + ("shape",), (p.data.ndim,), integer=True)
            if tuple(shape) != p.shape:
                raise FormatError(f"checkpoint field {where} is {shape.tolist()}, "
                                  f"expected {list(p.shape)}")
            p.data = read_field(state, path + ("values",), (p.data.size,))[0].reshape(p.shape)

        bank = runner.bank
        eta, where = read_field(state, ("bank", "eta"), ())
        if eta < bank.eta_floor:
            raise FormatError(f"checkpoint field {where} is {eta}, below its floor "
                              f"eta_init = {bank.eta_floor}")
        theta, where = read_field(state, ("bank", "theta"), (n_classes, bank.K, bank.dim))
        if not unit_vectors(theta)[1].all():  # the rule lsc_scores applies
            raise FormatError(f"checkpoint field {where} holds a (near-)zero-norm proxy")
        bank.eta.data, bank.theta.data = eta, theta

        stored, stored_at = read_field(state, ("memory", "per_class"))
        train_y = runner.train_y
        for c in range(n_classes):
            idx, where = read_field(state, ("memory", "per_class", str(c)), (None,), integer=True)
            if idx.size == 0 or np.unique(idx).size < idx.size:
                raise FormatError(f"checkpoint field {where} is empty or repeats an index")
            bad = idx[(idx < 0) | (idx >= train_y.size)]
            if bad.size:
                raise FormatError(f"checkpoint field {where}: index {bad[0]} is outside the "
                                  f"{train_y.size} training samples")
            bad = idx[train_y[idx] != c]
            if bad.size:
                raise FormatError(f"checkpoint field {where}: index {bad[0]} is not a training "
                                  f"sample of class {schedule.class_order[c]}")
            # a run's budget cut: allocations never grow, so lists a run wrote load unchanged
            runner.memory.add_class(idx.tolist())
        if len(stored) != n_classes:
            raise FormatError(f"checkpoint field {stored_at} holds {len(stored)} classes, "
                              f"expected {n_classes}")

        rng, where = read_field(state, ("rng",))
        try:
            runner.rng.bit_generator.state = rng
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"checkpoint field {where} is not a generator state ({err!r})")
        return runner


def run_schedule(
    schedule: TaskSchedule,
    config: RunConfig,
    dataset: Dataset,
    seed: int,
) -> RunMetrics:
    """Execute the whole schedule."""
    runner = IncrementalRunner(schedule, config, dataset, seed)
    while not runner.done:
        runner.run_next_task()
    return runner.metrics
