"""Property tests: both fast posterior paths vs the dense oracle.

``compute_posterior`` runs the cached/vectorized dual-space algebra
(shared ``MultiStateData``, trace identities, a covariance kept as
``C⁻¹``); ``compute_posterior_dense`` materializes the literal eq. 18-22
matrices. They must agree to tight tolerance for *every* shape —
including ragged per-state sample counts and random column subsets of
the designs — and so must the M-step statistics
the dual path reads from ``C⁻¹`` against the oracle's literal einsums.

The same oracle also pins the second production fast path: the
Kronecker solver for state-balanced designs (``method="kron"``), again
on random shapes including column subsets. Deeper Kronecker
coverage (dispatch policy, M-step factors, memory contract) lives in
``tests/core/test_kronecker.py``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.multistate import MultiStateData
from repro.core.posterior import (
    compute_posterior,
    compute_posterior_dense,
)
from repro.core.prior import CorrelatedPrior, ar1_correlation

RTOL = 1e-7


def make_problem(seed, n_states, n_basis, counts, r0, noise_var):
    rng = np.random.default_rng(seed)
    designs = [
        rng.standard_normal((count, n_basis)) for count in counts
    ]
    targets = [rng.standard_normal(count) for count in counts]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.05, 2.0, n_basis),
        correlation=ar1_correlation(n_states, r0),
    )
    return designs, targets, prior


def assert_posteriors_match(fast, dense, rtol=RTOL):
    """Entry-wise rtol plus an atol tied to each quantity's own scale.

    The oracle itself goes through ``np.linalg.inv``, so tiny entries of
    a matrix whose largest entries are O(1) can only agree to
    ``rtol × scale`` — a pure relative test on them measures the oracle's
    cancellation error, not a fast-path bug."""
    mean_scale = float(np.abs(dense.mean).max(initial=1e-12))
    np.testing.assert_allclose(
        fast.mean, dense.mean, rtol=rtol, atol=rtol * mean_scale
    )
    dense_blocks = dense.covariance_blocks()
    block_scale = float(np.abs(dense_blocks).max(initial=1e-12))
    np.testing.assert_allclose(
        fast.covariance_blocks(),
        dense_blocks,
        rtol=rtol,
        atol=rtol * block_scale,
    )
    np.testing.assert_allclose(fast.nll, dense.nll, rtol=rtol, atol=1e-10)
    np.testing.assert_allclose(
        fast.trace_dsd, dense.trace_dsd, rtol=rtol, atol=1e-10
    )
    # ‖residual‖² inherits a cancellation error ∝ ‖y‖² when the fit is
    # near-interpolating, so its floor scales with the data magnitude.
    np.testing.assert_allclose(
        fast.residual_sq, dense.residual_sq, rtol=1e-6, atol=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(2, 5),
    n_basis=st.integers(1, 8),
    base_count=st.integers(2, 7),
    ragged=st.booleans(),
    r0=st.floats(0.0, 0.95),
    noise_var=st.floats(1e-3, 2.0),
)
def test_fast_matches_dense_random_shapes(
    seed, n_states, n_basis, base_count, ragged, r0, noise_var
):
    """Mean, covariance blocks, nll, trace_dsd agree for random K/M/N."""
    counts = [
        base_count + (k % 3 if ragged else 0) for k in range(n_states)
    ]
    designs, targets, prior = make_problem(
        seed, n_states, n_basis, counts, r0, noise_var
    )
    fast = compute_posterior(
        designs, targets, prior, noise_var, want_blocks=True
    )
    dense = compute_posterior_dense(designs, targets, prior, noise_var)
    assert_posteriors_match(fast, dense)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(2, 4),
    n_basis=st.integers(3, 9),
    noise_var=st.floats(1e-3, 1.0),
)
def test_fast_matches_dense_with_pruned_columns(
    seed, n_states, n_basis, noise_var
):
    """A solve on a random column subset of the designs equals a dense
    solve on the same subset."""
    counts = [5] * n_states
    designs, targets, prior = make_problem(
        seed, n_states, n_basis, counts, 0.7, noise_var
    )
    rng = np.random.default_rng(seed + 1)
    n_active = int(rng.integers(1, n_basis + 1))
    active = np.sort(
        rng.choice(n_basis, size=n_active, replace=False)
    )

    sub_prior = CorrelatedPrior(
        lambdas=prior.lambdas[active], correlation=prior.correlation
    )
    fast = compute_posterior(
        MultiStateData.from_states([d[:, active] for d in designs], targets),
        prior=sub_prior,
        noise_var=noise_var,
        want_blocks=True,
    )
    dense = compute_posterior_dense(
        [d[:, active] for d in designs], targets, sub_prior, noise_var
    )
    assert_posteriors_match(fast, dense)


def assert_mstep_matches_dense(fast, dense, correlation, scale, rtol):
    """Both M-step statistics of ``fast`` against the oracle's literal
    einsums, entry-wise rtol plus an atol tied to each statistic's own
    scale (as in :func:`assert_posteriors_match`)."""
    pairs = list(
        zip(
            fast.mstep_lambda_stats(correlation),
            dense.mstep_lambda_stats(correlation),
        )
    )
    pairs.append(
        (fast.mstep_scaled_moment(scale), dense.mstep_scaled_moment(scale))
    )
    for name, (got, want) in zip(("quad", "traces", "moment"), pairs):
        np.testing.assert_allclose(
            got,
            want,
            rtol=rtol,
            atol=rtol * float(np.abs(want).max(initial=1e-12)),
            err_msg=name,
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(1, 5),
    n_basis=st.integers(1, 8),
    base_count=st.integers(1, 5),
    ragged=st.booleans(),
    r0=st.floats(0.0, 0.95),
    noise_var=st.floats(1e-3, 2.0),
    zero_lambda=st.booleans(),
    pruned=st.booleans(),
)
def test_dual_mstep_stats_match_dense(
    seed, n_states, n_basis, base_count, ragged, r0, noise_var,
    zero_lambda, pruned,
):
    """The dual path's factored M-step statistics — ``Tr(R⁻¹Σ^m)`` and
    ``Σ_m Σ^m/ℓ_m`` read from C⁻¹ through full-width products — equal
    the literal einsums over the oracle's blocks, at K = 1, single-row
    states, λ_m = 0 and on column subsets of the designs."""
    counts = [
        base_count + (k % 3 if ragged else 0) for k in range(n_states)
    ]
    designs, targets, prior = make_problem(
        seed, n_states, n_basis, counts, r0, noise_var
    )
    rng = np.random.default_rng(seed + 1)
    lambdas = prior.lambdas.copy()
    if zero_lambda:
        lambdas[rng.integers(n_basis)] = 0.0
    active = np.arange(n_basis)
    if pruned:
        n_active = int(rng.integers(1, n_basis + 1))
        active = np.sort(rng.choice(n_basis, size=n_active, replace=False))
    sub_prior = CorrelatedPrior(
        lambdas=lambdas[active], correlation=prior.correlation
    )
    fast = compute_posterior(
        MultiStateData.from_states([d[:, active] for d in designs], targets),
        prior=sub_prior,
        noise_var=noise_var,
        method="dual",
    )
    assert fast.solver == "dual"
    dense = compute_posterior_dense(
        [d[:, active] for d in designs], targets, sub_prior, noise_var
    )
    scale = rng.uniform(0.05, 2.0, active.size)
    assert_mstep_matches_dense(
        fast, dense, sub_prior.correlation, scale, rtol=1e-8
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(2, 6),
    n_basis=st.integers(1, 8),
    n_per=st.integers(2, 7),
    r0=st.floats(0.0, 0.95),
    noise_var=st.floats(1e-3, 2.0),
)
def test_kron_matches_dense_random_balanced_shapes(
    seed, n_states, n_basis, n_per, r0, noise_var
):
    """The second fast path — the Kronecker solver for state-balanced
    data — is pinned to the same oracle on random shapes."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n_per, n_basis))
    designs = [design] * n_states
    targets = [rng.standard_normal(n_per) for _ in range(n_states)]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.05, 2.0, n_basis),
        correlation=ar1_correlation(n_states, r0),
    )
    fast = compute_posterior(
        designs, targets, prior, noise_var, want_blocks=True, method="kron"
    )
    assert fast.solver == "kron"
    dense = compute_posterior_dense(designs, targets, prior, noise_var)
    np.testing.assert_allclose(
        fast.mean,
        dense.mean,
        rtol=RTOL,
        atol=RTOL * float(np.abs(dense.mean).max(initial=1e-12)),
    )
    dense_blocks = dense.covariance_blocks()
    block_scale = float(np.abs(dense_blocks).max(initial=1e-12))
    np.testing.assert_allclose(
        fast.covariance_blocks(),
        dense_blocks,
        rtol=RTOL,
        atol=RTOL * block_scale,
    )
    np.testing.assert_allclose(fast.nll, dense.nll, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(
        fast.trace_dsd, dense.trace_dsd, rtol=RTOL, atol=1e-10
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_states=st.integers(2, 5),
    n_basis=st.integers(3, 9),
    noise_var=st.floats(1e-3, 1.0),
)
def test_kron_matches_dense_with_pruned_columns(
    seed, n_states, n_basis, noise_var
):
    """A column subset of balanced designs stays balanced, so it stays on
    the Kronecker solver — and must still match a dense solve on the
    same subset."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((5, n_basis))
    designs = [design] * n_states
    targets = [rng.standard_normal(5) for _ in range(n_states)]
    prior = CorrelatedPrior(
        lambdas=rng.uniform(0.05, 2.0, n_basis),
        correlation=ar1_correlation(n_states, 0.7),
    )
    n_active = int(rng.integers(1, n_basis + 1))
    active = np.sort(rng.choice(n_basis, size=n_active, replace=False))

    sub_prior = CorrelatedPrior(
        lambdas=prior.lambdas[active], correlation=prior.correlation
    )
    fast = compute_posterior(
        MultiStateData.from_states([d[:, active] for d in designs], targets),
        prior=sub_prior,
        noise_var=noise_var,
        want_blocks=True,
        method="kron",
    )
    assert fast.solver == "kron"
    dense = compute_posterior_dense(
        [d[:, active] for d in designs], targets, sub_prior, noise_var
    )
    np.testing.assert_allclose(
        fast.mean,
        dense.mean,
        rtol=RTOL,
        atol=RTOL * float(np.abs(dense.mean).max(initial=1e-12)),
    )
    dense_blocks = dense.covariance_blocks()
    block_scale = float(np.abs(dense_blocks).max(initial=1e-12))
    np.testing.assert_allclose(
        fast.covariance_blocks(),
        dense_blocks,
        rtol=RTOL,
        atol=RTOL * block_scale,
    )


def test_em_with_pruning_matches_dense_per_iteration():
    """Drive ``run_em`` and check every posterior it computed against the
    dense oracle."""
    from repro.core import em as em_module
    from repro.core.em import EmConfig, run_em

    rng = np.random.default_rng(42)
    n_states, n_basis, count = 3, 10, 8
    designs = [
        rng.standard_normal((count, n_basis)) for _ in range(n_states)
    ]
    coef = np.zeros((n_states, n_basis))
    coef[:, [1, 4]] = rng.standard_normal((n_states, 2)) * 2.0
    targets = [
        d @ coef[k] + 0.05 * rng.standard_normal(count)
        for k, d in enumerate(designs)
    ]
    prior = CorrelatedPrior(
        lambdas=np.full(n_basis, 1.0),
        correlation=ar1_correlation(n_states, 0.5),
    )

    checked = []
    original = em_module.compute_posterior

    def checking(data, targets_arg=None, prior=None, noise_var=None, *,
                 want_blocks=True):
        result = original(
            data, targets_arg, prior=prior, noise_var=noise_var,
            want_blocks=want_blocks,
        )
        if want_blocks:
            dense = compute_posterior_dense(
                list(data.designs), list(data.targets), prior, noise_var
            )
            # Late EM iterations shrink the noise estimate toward the true
            # 0.05², so cond(C) grows and the dense-inverse oracle itself
            # drifts — one decade of slack keeps the check meaningful.
            assert_posteriors_match(result, dense, rtol=1e-7)
            # Both M-step statistics, the moment at the updated λ that
            # this iteration's R update divides by.
            quad, traces = dense.mstep_lambda_stats(prior.correlation)
            scale = np.maximum((quad + traces) / data.n_states, 1e-12)
            assert_mstep_matches_dense(
                result, dense, prior.correlation, scale, rtol=1e-7
            )
            checked.append(data.n_basis)
        return result

    em_module.compute_posterior = checking
    try:
        run_em(designs, targets, prior, 0.01, EmConfig(max_iterations=8))
    finally:
        em_module.compute_posterior = original

    assert checked, "EM never exercised the blocks path"
