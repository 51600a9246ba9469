"""Benchmark mechanics: environment record, set-up, timed schedules, checks.

The measured path is the library path that ``podlearn run`` drives:
``ExperimentConfig`` -> dataset generation -> ``IncrementalRunner`` ->
``run_next_task`` in a closed loop, with ``save_run_checkpoint`` after
every task. ``podlearn`` must be importable when this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import podlearn
from podlearn import checkpoint
from podlearn.config import ExperimentConfig
from podlearn.protocol import IncrementalRunner

from workloads import REFERENCE_TOL, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# name -> unit of every end-to-end metric, in report order
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 5


# -- environment ----------------------------------------------------------------


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str | None:
    """HEAD of the repository holding the benchmark, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "podlearn": podlearn.__version__,
    }


# -- set-up --------------------------------------------------------------------


@dataclass
class Setup:
    cfg: ExperimentConfig
    dataset: object
    schedule: object
    run_cfg: object

    def runner(self) -> IncrementalRunner:
        return IncrementalRunner(self.schedule, self.run_cfg, self.dataset, self.cfg.seed)


def build(workload: Workload, seed: int) -> Setup:
    """Config parse and dataset generation, as ``podlearn run`` does them."""
    cfg = ExperimentConfig.from_text(workload.config_text(seed))
    dataset = cfg.load_data()
    return Setup(cfg, dataset, cfg.schedule(), cfg.run_config(dataset.input_shape))


def time_fresh_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to a constructed runner.

    The child prints ``time.monotonic()`` once its runner exists; the
    monotonic clock is shared by all processes of the machine.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


# -- one schedule ----------------------------------------------------------------


@dataclass
class ScheduleResult:
    run_s: float
    train_samples: int
    tasks: int  # scheduled
    nme: list = field(default_factory=list)
    cnn: list = field(default_factory=list)
    task_s: list = field(default_factory=list)  # each task with its checkpoint save
    errors: list = field(default_factory=list)

    @property
    def accuracies(self) -> tuple[float, float] | None:
        if not self.nme:
            return None
        return float(np.mean(self.nme)), float(np.mean(self.cnn))


def run_schedule(setup: Setup, checkpoint_path: Path, tracer=None) -> ScheduleResult:
    """Run every task in order, checkpointing after each; time the whole loop."""
    runner = setup.runner()
    echo = setup.cfg.to_dict()
    epochs = setup.run_cfg.epochs_per_task
    result = ScheduleResult(0.0, 0, setup.schedule.num_tasks)
    start = time.perf_counter()
    while not runner.done:
        t = runner.task_cursor
        # the task's training pool: its new classes plus every stored exemplar
        pool = runner.memory.total_stored() + sum(
            setup.dataset.train_indices_of(c).size for c in setup.schedule.task_classes(t)
        )
        if tracer is not None:
            tracer.task_id = t
        task_start = time.perf_counter()
        try:
            row = runner.run_next_task()
            checkpoint.save_run_checkpoint(str(checkpoint_path), echo, runner.to_state())
        except Exception:  # a failed task is counted, not fatal to the report
            result.errors.append(traceback.format_exc())
            break
        result.task_s.append(time.perf_counter() - task_start)
        result.train_samples += epochs * pool
        result.nme.append(row["nme_accuracy"])
        result.cnn.append(row["cnn_accuracy"])
    result.run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.task_id = -1
    return result


# -- correctness -------------------------------------------------------------------


def failed_tasks(result: ScheduleResult) -> tuple[int, list[str]]:
    """Tasks that raised, never ran, or reported an accuracy outside [0, 1]."""
    problems = [f"raised: {err.strip().splitlines()[-1]}" for err in result.errors]
    bad = result.tasks - len(result.nme)
    if bad:
        problems.append(f"{bad} of {result.tasks} tasks did not complete")
    for t, pair in enumerate(zip(result.nme, result.cnn)):
        if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in pair):
            bad += 1
            problems.append(f"task {t}: accuracy {pair} not finite in [0, 1]")
    return bad, problems


def mismatch(accuracies, expected, tol: float = 0.0) -> str | None:
    """Why ``(avg_nme, avg_cnn)`` disagrees with ``expected``, or None."""
    if expected is None:
        return None
    for name, got, want in zip(("avg_nme", "avg_cnn"), accuracies, expected):
        if not abs(got - want) <= tol:
            return f"{name} {got!r} != {want!r} (tolerance {tol})"
    return None


def source_digest() -> str:
    """Fingerprint of the program and workload code, keying the accuracy log."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [BENCH_DIR / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def logged_accuracies(key: str, accuracies) -> tuple[float, float] | None:
    """Accuracies an earlier run logged under ``key``; logs these if none.

    The log lives in the benchmark's output directory, so repeated runs of
    one workload and seed on the same code are compared across processes.
    """
    path = OUT_DIR / "accuracy_log.json"
    log = json.loads(path.read_text()) if path.exists() else {}
    if key in log:
        return tuple(log[key])
    log[key] = list(accuracies)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(log, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def check_schedules(workload: Workload, seed: int, results: list[ScheduleResult],
                    log_key: str | None) -> tuple[int, int, list[str]]:
    """(attempted tasks, failed tasks, problems) over all schedules of a run.

    Every schedule of one workload and seed must give identical average
    accuracies: within the run, against earlier runs on the same code, and
    (within ``REFERENCE_TOL``) against the recorded reference for the seed.
    A schedule that disagrees counts all its tasks as failed.
    """
    attempted = failed = 0
    problems: list[str] = []
    expected = None
    for i, res in enumerate(results):
        attempted += res.tasks
        bad, why = failed_tasks(res)
        if not bad:
            acc = res.accuracies
            if expected is None and log_key is not None:
                expected = logged_accuracies(log_key, acc)
            diff = (mismatch(acc, expected)
                    or mismatch(acc, workload.reference.get(seed), REFERENCE_TOL))
            if diff:
                bad, why = res.tasks, [diff]
            expected = expected or acc
        failed += bad
        problems += [f"schedule {i}: {p}" for p in why]
    return attempted, failed, problems


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_samples: list[float], results: list[ScheduleResult]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(r.run_s for r in results),
        "train_samples_per_s": statistics.median(r.train_samples / r.run_s for r in results),
        "peak_rss_mb": peak_rss_mb(),
    }
