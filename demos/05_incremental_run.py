"""The canonical incremental benchmark, with and without distillation.

Ten classes arrive as 5 + 5 single-class increments with 5 exemplars kept
per old class. The distilled run (pooled spatial + flat terms, multi-proxy
head) retains old classes far better than the plain cosine-classifier
baseline. One seed of the experiment the acceptance suite averages over
three; expect a couple of minutes.
"""

from podlearn import (
    PerClass,
    PodConfig,
    RunConfig,
    SyntheticSpec,
    TaskSchedule,
    generate_synthetic_dataset,
    run_schedule,
)

SEED = 0

dataset = generate_synthetic_dataset(SyntheticSpec(), seed=SEED)
schedule = TaskSchedule.build(10, 5, 1, seed=SEED)

configs = {
    "distilled": RunConfig(budget=PerClass(5)),
    "baseline": RunConfig(
        pod=PodConfig(lambda_c=0.0, lambda_f=0.0),
        proxies_per_class=1,
        budget=PerClass(5),
    ),
}

results = {}
for name, cfg in configs.items():
    print(f"running {name} ...")
    results[name] = run_schedule(schedule, cfg, dataset, seed=SEED)

print()
print(f"{'task':>5} {'seen':>5} {'distilled nme':>14} {'baseline nme':>14}")
for t in range(schedule.num_tasks):
    print(f"{t:>5} {schedule.positions(t).stop:>5} "
          f"{results['distilled'].nme_accuracy[t]:>14.3f} "
          f"{results['baseline'].nme_accuracy[t]:>14.3f}")

print()
for name, m in results.items():
    print(f"avg incremental accuracy ({name:>9}): nme={m.avg_nme:.3f} cnn={m.avg_cnn:.3f}")
gap = 100 * (results["distilled"].avg_nme - results["baseline"].avg_nme)
print(f"\ndistillation gain (nme): {gap:+.1f} points")
print("the baseline's early classes fade as new ones arrive; the pooled")
print("distillation terms hold the representation still enough for the")
print("exemplar means and proxies to stay valid.")
