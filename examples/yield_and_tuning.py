"""Yield estimation and post-silicon tuning from fitted models.

This is the downstream workflow the paper motivates: once per-state
performance models exist, a designer can (cheaply, on the model)

1. estimate the parametric yield of every knob state against the specs,
2. quantify how much *tunability* buys: the yield when each die selects
   its own best state after manufacturing,
3. validate the model-based yield against direct circuit Monte Carlo.

Run:  python examples/yield_and_tuning.py
"""

from repro import CBMF, LinearBasis, MonteCarloEngine, TunableLNA
from repro.applications import Specification, TuningPolicy, monte_carlo_yield


def main() -> None:
    lna = TunableLNA(n_states=8, n_variables=None)
    data = MonteCarloEngine(lna, seed=7).run(30)
    basis = LinearBasis(lna.n_variables)
    designs = basis.expand_states(data.inputs())

    print("fitting one C-BMF model per metric ...")
    models = {
        metric: CBMF(seed=0).fit(designs, data.targets(metric))
        for metric in lna.metric_names
    }

    # Specs chosen a bit inside the nominal spread so yield is interesting.
    # The gain *window* (a realistic AGC-range requirement) is what makes
    # tunability pay: a fast-corner die overshoots the window at high bias
    # and selects a lower state, a slow die does the opposite.
    specs = [
        Specification("nf_db", 1.25, "max"),
        Specification("gain_db", 25.2, "min"),
        Specification("gain_db", 26.8, "max"),
        Specification("iip3_dbm", -3.0, "min"),
    ]
    print("specs:", ", ".join(
        f"{s.metric} {'<=' if s.kind == 'max' else '>='} {s.bound:g}"
        for s in specs
    ))

    # One draw of 50k dies, every state evaluated on each die: the
    # per-state yields and the tuned yield come from the same samples.
    policy = TuningPolicy(models, basis, specs)
    summary = policy.summarize(n_samples=50_000, seed=1)
    yields = summary.state_yields
    print("\nper-state yield (model-based, 50k MC):")
    for state, value in enumerate(yields):
        bar = "#" * int(40 * value)
        print(f"  state {state:2d}: {value:6.1%}  {bar}")

    print(f"\nbest fixed state: {summary.best_fixed_state} "
          f"with {summary.best_fixed_yield:.1%} yield")
    print(f"tuned yield (each die picks its state): {summary.tuned_yield:.1%}")
    print(f"tuning gain: +{summary.tuning_gain:.1%}")

    # Validate the model against the 'simulator' on one state.
    state = summary.best_fixed_state
    direct = monte_carlo_yield(lna, state, specs, n_samples=400, seed=3)
    print(f"\nvalidation, state {state}: model {yields[state]:.1%} "
          f"vs direct circuit MC {direct:.1%} (400 simulations)")


if __name__ == "__main__":
    main()
