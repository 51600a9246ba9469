"""Experiment front door: run a config, generate datasets, merge summaries.

Exit codes: 0 success, 1 configuration error, 2 runtime failure. After every
task a run atomically rewrites ``metrics.csv`` (one row per finished task)
and a resumable ``checkpoint.json``; at the end it writes ``summary.json``
plus ``plot_data.csv``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .checkpoint import load_run_checkpoint, save_run_checkpoint, write_text_atomic
from .config import ExperimentConfig, parse_synthetic_spec
from .datasets import generate_synthetic_dataset, save_dataset
from .errors import ConfigError, ContractError, PodlearnError
from .protocol import IncrementalRunner, RunMetrics

METRICS_HEADER = "task_index,seen_classes,nme_accuracy,cnn_accuracy"


def _write_metrics(path: str, m: RunMetrics) -> None:
    """Rewrite ``metrics.csv`` atomically: the header, then one row per finished task."""
    lines = [METRICS_HEADER + "\n"]
    for i, (seen, nme, cnn) in enumerate(zip(m.seen_classes, m.nme_accuracy, m.cnn_accuracy)):
        lines.append(f"{i},{seen},{nme!r},{cnn!r}\n")
    write_text_atomic(path, lines)


def _write_outputs(out_dir: str, cfg: ExperimentConfig, runner: IncrementalRunner,
                   wall_time: float) -> None:
    m = runner.metrics
    summary = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "tasks": len(m.nme_accuracy),
        "avg_incremental_accuracy": {"nme": m.avg_nme, "cnn": m.avg_cnn},
        "metadata": m.metadata,
        "wall_time_seconds": wall_time,
    }
    write_text_atomic(os.path.join(out_dir, "summary.json"),
                      json.JSONEncoder(indent=2).iterencode(summary))

    lines = ["mode,task_index,seen_classes,accuracy\n"]
    for mode, series in (("nme", m.nme_accuracy), ("cnn", m.cnn_accuracy)):
        for i, acc in enumerate(series):
            lines.append(f"{mode},{i},{m.seen_classes[i]},{acc!r}\n")
    write_text_atomic(os.path.join(out_dir, "plot_data.csv"), lines)


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_file(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    out_dir = args.output or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
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
        _write_metrics(metrics_path, runner.metrics)
    except (ConfigError, ContractError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    start = time.monotonic()
    try:
        while not runner.done:
            row = runner.run_next_task()
            _write_metrics(metrics_path, runner.metrics)
            save_run_checkpoint(ckpt_path, cfg.to_dict(), runner.to_state())
            print(
                f"task {row['task_index']}: seen={row['seen_classes']} "
                f"nme={row['nme_accuracy']:.4f} cnn={row['cnn_accuracy']:.4f}"
            )
    except PodlearnError as err:
        # checkpoint of the last finished task is retained for --resume
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    _write_outputs(out_dir, cfg, runner, time.monotonic() - start)
    print(
        f"avg incremental accuracy: nme={runner.metrics.avg_nme:.4f} "
        f"cnn={runner.metrics.avg_cnn:.4f}"
    )
    return 0


def cmd_generate(args) -> int:
    try:
        with open(args.spec) as fh:
            spec, seed = parse_synthetic_spec(fh.read())
    except OSError as err:
        print(f"config error: cannot read spec: {err}", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        dataset = generate_synthetic_dataset(spec, seed=seed)
        save_dataset(dataset, args.out)
    except (OSError, PodlearnError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    print(f"wrote {dataset.train_y.size} train / {dataset.test_y.size} test samples to {args.out}")
    return 0


def cmd_summarize(args) -> int:
    rows = []
    for d in args.dirs:
        path = os.path.join(d, "summary.json")
        try:
            with open(path) as fh:
                s = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"config error: {path}: {err}", file=sys.stderr)
            return 1
        rows.append({
            "directory": d,
            "seed": s.get("seed"),
            "tasks": s.get("tasks"),
            "avg_nme": s["avg_incremental_accuracy"]["nme"],
            "avg_cnn": s["avg_incremental_accuracy"]["cnn"],
            "wall_time_seconds": s.get("wall_time_seconds"),
        })
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0]) if rows else ["directory"])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
