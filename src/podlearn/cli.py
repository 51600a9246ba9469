"""Experiment front door: run a config, generate datasets, merge summaries.

Exit codes, set in ``main`` alone: 0 success; 1 when an input (a config, a
spec, a dataset, a checkpoint or a summary) cannot be read or is invalid, and
the command stops before writing any output; 2 when a failure comes after the
inputs are accepted, output writes included, and the last checkpoint is kept.
After every task a run atomically rewrites ``metrics.csv`` (one row per
finished task) and a resumable ``checkpoint.json`` (the config echo plus the
learned state); at the end it writes ``summary.json`` plus ``plot_data.csv``.
``summary.json``'s ``wall_time_seconds`` is the time of the tasks this
invocation ran, ``timed_tasks`` of them: a resumed run times only its own part.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

from .checkpoint import atomic_file, load_run_checkpoint, save_run_checkpoint, write_text_atomic
from .config import ExperimentConfig, parse_synthetic_spec
from .datasets import generate_synthetic_dataset, save_dataset
from .errors import ConfigError, ContractError, FormatError, PodlearnError
from .protocol import IncrementalRunner

METRICS_HEADER = "task_index,seen_classes,nme_accuracy,cnn_accuracy"


def _write_metrics(path: str, runner: IncrementalRunner) -> None:
    """Rewrite ``metrics.csv`` atomically: the header, then one row per finished task."""
    m, positions = runner.metrics, runner.schedule.positions
    lines = [METRICS_HEADER + "\n"]
    for i, (nme, cnn) in enumerate(zip(m.nme_accuracy, m.cnn_accuracy)):
        lines.append(f"{i},{positions(i).stop},{nme!r},{cnn!r}\n")
    write_text_atomic(path, lines)


def _write_outputs(out_dir: str, cfg: ExperimentConfig, runner: IncrementalRunner,
                   timed_tasks: int, wall_time: float) -> None:
    m = runner.metrics
    summary = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "tasks": len(m.nme_accuracy),
        "avg_incremental_accuracy": {"nme": m.avg_nme, "cnn": m.avg_cnn},
        "eta": float(runner.bank.eta.data),
        "timed_tasks": timed_tasks,
        "wall_time_seconds": wall_time,
    }
    write_text_atomic(os.path.join(out_dir, "summary.json"),
                      json.JSONEncoder(indent=2).iterencode(summary))

    lines = ["mode,task_index,seen_classes,accuracy\n"]
    for mode, series in (("nme", m.nme_accuracy), ("cnn", m.cnn_accuracy)):
        for i, acc in enumerate(series):
            lines.append(f"{mode},{i},{runner.schedule.positions(i).stop},{acc!r}\n")
    write_text_atomic(os.path.join(out_dir, "plot_data.csv"), lines)


def cmd_run(args) -> None:
    cfg = ExperimentConfig.from_file(args.config)
    out_dir = args.output or cfg.output_dir
    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.json")
    try:
        dataset = cfg.load_data()
        schedule = cfg.schedule()
        run_cfg = cfg.run_config(dataset.input_shape)
        if args.resume and os.path.exists(ckpt_path):
            saved_cfg, state = load_run_checkpoint(ckpt_path)
            if saved_cfg != cfg.to_dict():
                raise ConfigError("checkpoint was produced by a different config")
            runner = IncrementalRunner.from_state(schedule, run_cfg, dataset, state)
        else:
            runner = IncrementalRunner(schedule, run_cfg, dataset, cfg.seed)
    except (ContractError, FormatError, OSError) as err:
        raise ConfigError(str(err))

    os.makedirs(out_dir, exist_ok=True)
    _write_metrics(metrics_path, runner)
    first, start = runner.task_cursor, time.monotonic()
    while not runner.done:
        row = runner.run_next_task()
        _write_metrics(metrics_path, runner)
        save_run_checkpoint(ckpt_path, cfg.to_dict(), runner.to_state())
        print(
            f"task {row['task_index']}: seen={row['seen_classes']} "
            f"nme={row['nme_accuracy']:.4f} cnn={row['cnn_accuracy']:.4f}"
        )
    _write_outputs(out_dir, cfg, runner, runner.task_cursor - first, time.monotonic() - start)
    print(
        f"avg incremental accuracy: nme={runner.metrics.avg_nme:.4f} "
        f"cnn={runner.metrics.avg_cnn:.4f}"
    )


def cmd_generate(args) -> None:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read spec {args.spec}: {err}")
    spec, seed = parse_synthetic_spec(text)
    try:
        dataset = generate_synthetic_dataset(spec, seed=seed)
    except ContractError as err:
        raise ConfigError(str(err))
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.train_y.size} train / {dataset.test_y.size} test samples to {args.out}")


def cmd_summarize(args) -> None:
    rows = []
    for d in args.dirs:
        path = os.path.join(d, "summary.json")
        try:
            with open(path, encoding="utf-8") as fh:
                s = json.load(fh)
        except (OSError, ValueError) as err:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"{path}: {err}")
        avg = s.get("avg_incremental_accuracy") if isinstance(s, dict) else None
        if not (isinstance(avg, dict) and "nme" in avg and "cnn" in avg):
            raise ConfigError(f"{path}: not a run summary (no avg_incremental_accuracy "
                              f"with nme and cnn)")
        rows.append({
            "directory": d,
            "seed": s.get("seed"),
            "tasks": s.get("tasks"),
            "avg_nme": avg["nme"],
            "avg_cnn": avg["cnn"],
            "timed_tasks": s.get("timed_tasks"),
            "wall_time_seconds": s.get("wall_time_seconds"),
        })
    with atomic_file(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="podlearn", description="Incremental-learning experiment runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the config's output_dir")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from checkpoint.json in the output dir")
    p_run.set_defaults(fn=cmd_run)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to an .npz file")
    p_gen.add_argument("spec")
    p_gen.add_argument("out")
    p_gen.set_defaults(fn=cmd_generate)

    p_sum = sub.add_parser("summarize", help="merge run summaries into one CSV")
    p_sum.add_argument("dirs", nargs="+")
    p_sum.add_argument("--out", help="write CSV here instead of stdout")
    p_sum.set_defaults(fn=cmd_summarize)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (OSError, PodlearnError) as err:
        # a run keeps the checkpoint of its last finished task for --resume
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
