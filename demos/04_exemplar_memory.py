"""Herding selection and budget bookkeeping for the rehearsal memory.

Herding greedily picks exemplars whose running average tracks the class
mean, so any prefix of the ordering is the best same-size summary the
greedy rule can give; budgets then reduce to prefix truncation.
"""

import numpy as np

from podlearn import ExemplarMemory, PerClass, Total, herd_select

rng = np.random.default_rng(2)
feats = rng.normal(size=(60, 16))
feats /= np.linalg.norm(feats, axis=1, keepdims=True)
mu = feats.mean(axis=0)

order = herd_select(feats, 60)
print("approximation of the class mean, herding prefix vs random subset:")
print(f"{'m':>4} {'herding':>10} {'random':>10}")
for m in (1, 2, 5, 10, 20, 40):
    herd_err = np.linalg.norm(mu - feats[order[:m]].mean(axis=0))
    rand_err = np.mean([
        np.linalg.norm(mu - feats[rng.choice(60, m, replace=False)].mean(axis=0))
        for _ in range(200)
    ])
    print(f"{m:>4} {herd_err:>10.4f} {rand_err:>10.4f}")

print()
print("budgets: a shared pool re-splits as classes arrive (earliest classes")
print("take the remainder), a per-class cap just truncates.")
shared = ExemplarMemory(Total(50))
for c in range(7):
    shared.add_class(list(range(30)))
    sizes = [len(stored) for stored in shared.per_class]
    print(f"  after class {c}: sizes={sizes} total={shared.total_stored()}")

capped = ExemplarMemory(PerClass(5))
capped.add_class(order)
print("per-class cap keeps the herding prefix:", capped.per_class[0] == order[:5])
