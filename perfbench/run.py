"""podlearn benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload a5_podnet --seed 0 --seconds 20 --trace 0

Run from the repository root; podlearn is imported from ``src/``. BLAS and
OpenMP are pinned to one thread before numpy loads.

``--trace 0`` measures end to end. Five fresh interpreters each time the
set-up (import, config parse, dataset generation, runner construction);
then whole task schedules run back to back in a closed loop. A run always
completes one schedule and starts another only while the median schedule
time so far still fits in ``--seconds``. Times are medians over schedules.

``--trace 1`` runs one schedule with every public podlearn layer wrapped in
spans (see tracer.py) and reports time, self time and calls per layer.

Every run checks its outputs (see harness.check_schedules). Human-readable
lines come first; the last line of stdout is the JSON result. The full
record, and in traced runs the spans, are written under perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_harness():
    """The harness, with podlearn taken from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import harness
        import podlearn
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import podlearn from {SRC}: {err}")
    if Path(podlearn.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: podlearn resolved to {podlearn.__file__}, not {SRC}")
    return harness


def measure(h, workload, args) -> tuple[dict, list, dict]:
    """End-to-end run: set-up samples, then schedules until --seconds."""
    setup_samples = [h.time_fresh_setup(workload.name, args.seed)
                     for _ in range(h.SETUP_SAMPLES)]
    setup = h.build(workload, args.seed)
    ckpt = h.OUT_DIR / f"checkpoint-{workload.name}-seed{args.seed}.json"
    results = []
    start = time.monotonic()
    while True:
        results.append(h.run_schedule(setup, ckpt))
        if results[-1].errors:
            break
        projected = time.monotonic() - start + statistics.median(r.run_s for r in results)
        if projected > args.seconds:
            break
    metrics = h.end_to_end(setup_samples, results)
    units = h.END_TO_END
    return {k: (metrics[k], units[k]) for k in units}, results, {"setup_samples_s": setup_samples}


def measure_traced(h, workload, args) -> tuple[dict, list, dict]:
    """Traced run: one schedule with spans around every public layer."""
    import numpy as np

    from tracer import Tracer, result_metric_names

    tracer = Tracer()
    uninstall = tracer.install()
    try:
        setup = h.build(workload, args.seed)
        ckpt = h.OUT_DIR / f"checkpoint-{workload.name}-seed{args.seed}.json"
        result = h.run_schedule(setup, ckpt, tracer)
    finally:
        uninstall()
    np.savez(h.OUT_DIR / f"trace-{workload.name}-seed{args.seed}.npz", **tracer.arrays())
    shares = tracer.self_time_shares()
    total = sum(s for _, s in shares) or 1.0
    print("self time by layer (top 12):")
    for name, s in shares[:12]:
        print(f"  {name:40s} {s:9.3f} s  {100 * s / total:5.1f}%")
    return tracer.layer_metrics(result.run_s), [result], {
        "self_time_s": dict(shares), "result_metrics": result_metric_names()}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    h = import_harness()
    if args.setup_only:
        h.build(workload, args.seed).runner()
        print(time.monotonic())
        return 0

    h.OUT_DIR.mkdir(exist_ok=True)
    env = h.environment()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    run = measure_traced if args.trace else measure
    metrics, results, extra = run(h, workload, args)

    log_key = f"{workload.name}/seed{args.seed}/{h.source_digest()}"
    attempted, failed, problems = h.check_schedules(workload, args.seed, results, log_key)
    accuracies = results[0].accuracies
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"schedules {len(results)}, tasks attempted {attempted}, failed {failed}, "
          f"task_fail_ratio {failed / attempted:.4f}")
    if accuracies is not None:
        ref = workload.reference.get(args.seed)
        note = "" if ref is None else f" (seed reference {ref[0]!r} / {ref[1]!r})"
        print(f"avg_nme {accuracies[0]!r} ratio, avg_cnn {accuracies[1]!r} ratio{note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "config": workload.config_text(args.seed)},
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "schedules": [{"run_s": r.run_s, "train_samples": r.train_samples,
                       "task_s": r.task_s, "nme": r.nme, "cnn": r.cnn, "errors": r.errors} for r in results],
        "avg_nme": None if accuracies is None else accuracies[0],
        "avg_cnn": None if accuracies is None else accuracies[1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layer_map": LAYER_MAP,
        **extra,
    }
    out = h.OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    shown = extra.get("result_metrics", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: record["metrics"][k] for k in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
