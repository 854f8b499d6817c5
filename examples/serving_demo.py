"""Serving demo: registry push, batched serving, hot swap.

Fits a small tunable-LNA model set, pushes two versions of it to a
versioned on-disk registry, serves a burst of mixed-state requests as
one `ModelService.predict_many` call, and hot-swaps to the second
version under load. Prints the registry listing and the service's
telemetry snapshot along the way.

Run:  python examples/serving_demo.py
"""

import tempfile

import numpy as np

from repro import MonteCarloEngine, TunableLNA
from repro.modelset import PerformanceModelSet
from repro.serving import ModelRegistry, ModelService


def main() -> None:
    # 1. Fit: a small tunable LNA, one model per metric.
    lna = TunableLNA(n_states=4, n_variables=None)
    data = MonteCarloEngine(lna, seed=2016).run(18)
    train, test = data.split(12)
    models = PerformanceModelSet.fit_dataset(train, method="cbmf", seed=0)
    print(f"fitted {len(models.metric_names)} metrics on "
          f"{lna.n_states} states x {lna.n_variables} variables")

    with tempfile.TemporaryDirectory() as root:
        # 2. Push: versions are immutable; a re-push makes v2.
        registry = ModelRegistry(root)
        registry.push("lna", models)
        retrained = PerformanceModelSet.fit_dataset(
            train, method="somp", seed=1
        )
        registry.push("lna", retrained)
        print("\nregistry contents:")
        for entry in registry.list_entries():
            print(f"  {entry.key:10s} {entry.kind:9s} "
                  f"metrics={','.join(entry.metrics)}")

        # 3. Serve: one bulk call; every row is computed, one matmul per
        #    state group.
        service = ModelService(registry)
        service.load("lna@v1")

        rng = np.random.default_rng(7)
        pool = rng.standard_normal((200, lna.n_variables))
        x = pool[rng.integers(0, 200, 2000)]
        states = rng.integers(0, lna.n_states, 2000)
        results = service.predict_many("lna", x, states)
        print(f"\nserved {len(results)} requests from lna@v1")
        sample = results[0]
        print("  first answer:", {
            metric: round(value, 4) for metric, value in sample.values.items()
        })

        # The served answers are the frozen models' answers.
        direct = models.predict_point(x[0], int(states[0]))
        worst = max(
            abs(sample.values[metric] - direct[metric]) for metric in direct
        )
        print(f"  max |served - direct| on request 0: {worst:.2e}")

        # 4. Hot swap: atomic under load.
        service.swap("lna@v2")
        swapped = service.predict("lna", x[0], int(states[0]))
        print(f"\nhot-swapped to version {swapped.version} "
              f"(answers now from the retrained S-OMP set)")

        # 5. Telemetry.
        snapshot = service.metrics.snapshot()
        print("\nservice telemetry:")
        print(f"  requests        {snapshot['requests']}")
        print(f"  batches         {snapshot['batches']} "
              f"(mean size {snapshot['mean_batch_size']:.1f})")
        print(f"  hot swaps       {snapshot['hot_swaps']}")


if __name__ == "__main__":
    main()
