"""Budget-aware VCO modeling with uncertainty-driven active fitting.

The paper fixes the simulation budget up front (480 vs. 1120 samples).
With C-BMF's posterior, the budget can instead be *discovered*: simulate in
batches chosen where the model's own predictive variance is largest, and
stop once that uncertainty falls below the accuracy target. This example
models a tunable LC VCO's oscillation frequency to a 0.25 % target with
``ActiveFitLoop`` (``variance`` acquisition, ``std_collapse`` stop) and
reports how many simulations that actually took, plus the calibration of
the error bars against held-out truth.

Run:  python examples/adaptive_vco.py
"""

import numpy as np

from repro import MonteCarloEngine, TunableVCO
from repro.active import (
    ActiveFitConfig,
    ActiveFitLoop,
    CircuitOracle,
    StoppingRule,
)
from repro.evaluation.error import modeling_error_percent
from repro.evaluation.report import format_active_history

TARGET_PERCENT = 0.25


def main() -> None:
    vco = TunableVCO(n_states=8)
    print(f"circuit: {vco.name}, {vco.n_states} bands, "
          f"{vco.n_variables} process variables")

    # The loop stops on an absolute predictive std, so express the
    # percentage target in GHz against the bands' nominal frequencies.
    nominal_ghz = np.mean([vco.nominal(s)["freq_ghz"] for s in vco.states])
    target_ghz = TARGET_PERCENT / 100.0 * nominal_ghz
    config = ActiveFitConfig(
        metric="freq_ghz",
        strategy="variance",
        init_per_state=4,
        batch_per_round=32,
        n_candidates=48,
        holdout_per_state=25,
        stopping=StoppingRule(max_rounds=6, std_collapse=target_ghz),
        seed=3,
    )
    loop = ActiveFitLoop(CircuitOracle(vco, "freq_ghz"), config)
    result = loop.run()
    print()
    print(format_active_history(result.history))
    verdict = (
        "converged"
        if result.history.stop_reason == "std_collapse"
        else "budget exhausted"
    )
    print(f"→ {verdict} at {result.total_samples} simulations "
          f"(target std {target_ghz * 1e3:.1f} MHz)")

    # Validate against fresh simulations the loop never saw.
    test = MonteCarloEngine(vco, seed=999).run(40)
    predictions, stds, truths = [], [], []
    for k in range(vco.n_states):
        design = loop.basis.expand(test.states[k].x)
        predictions.append(result.model.predict(design, k))
        stds.append(result.model.predict_std(design, k, include_noise=True))
        truths.append(test.states[k].y["freq_ghz"])
    measured = modeling_error_percent(predictions, truths)
    print(f"\nmeasured held-out error: {measured:.3f} % "
          f"(target was {TARGET_PERCENT} %)")

    residuals = np.concatenate(
        [np.abs(p - t) for p, t in zip(predictions, truths)]
    )
    sigma = np.concatenate(stds)
    coverage = float(np.mean(residuals <= sigma))
    print(f"error-bar calibration: {coverage:.0%} of held-out points "
          f"within 1 predictive sigma (ideal ≈ 68%)")


if __name__ == "__main__":
    main()
