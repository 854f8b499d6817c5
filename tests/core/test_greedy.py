"""Tests for the shared greedy selection scan."""

import numpy as np
import pytest

from repro.core.greedy import select_shared_support


def least_squares_solver(sub_designs, targets):
    columns = []
    for design, target in zip(sub_designs, targets):
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        columns.append(solution)
    return np.column_stack(columns)


def shared_sparse_problem(seed=0, n_states=4, n_basis=30, n=20):
    rng = np.random.default_rng(seed)
    support = [3, 11, 17]
    designs = [rng.standard_normal((n, n_basis)) for _ in range(n_states)]
    targets = []
    for k, design in enumerate(designs):
        coef = np.zeros(n_basis)
        for m in support:
            coef[m] = rng.uniform(1.0, 3.0) * (1 if k % 2 else -1)
        targets.append(design @ coef + 0.01 * rng.standard_normal(n))
    return designs, targets, support


class TestSelection:
    def test_recovers_shared_support(self):
        designs, targets, support = shared_sparse_problem()
        found, _ = select_shared_support(
            designs, targets, 3, least_squares_solver
        )
        assert sorted(found) == sorted(support)

    def test_no_duplicate_selection(self):
        designs, targets, _ = shared_sparse_problem(1)
        found, _ = select_shared_support(
            designs, targets, 10, least_squares_solver
        )
        assert len(found) == len(set(found)) == 10

    def test_coefficients_shape(self):
        designs, targets, _ = shared_sparse_problem(2)
        _, coefficients = select_shared_support(
            designs, targets, 5, least_squares_solver
        )
        assert coefficients.shape == (5, len(designs))

    def test_on_step_called_every_iteration(self):
        designs, targets, _ = shared_sparse_problem(3)
        sizes = []
        select_shared_support(
            designs,
            targets,
            4,
            least_squares_solver,
            on_step=lambda support, coef: sizes.append(len(support)),
        )
        assert sizes == [1, 2, 3, 4]

    def test_residual_decreases(self):
        designs, targets, _ = shared_sparse_problem(4)
        norms = []

        def track(support, coefficients):
            total = 0.0
            for k, design in enumerate(designs):
                r = targets[k] - design[:, support] @ coefficients[:, k]
                total += float(r @ r)
            norms.append(total)

        select_shared_support(
            designs, targets, 6, least_squares_solver, on_step=track
        )
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_rejects_bad_n_select(self):
        designs, targets, _ = shared_sparse_problem(5)
        with pytest.raises(ValueError):
            select_shared_support(designs, targets, 0, least_squares_solver)
        with pytest.raises(ValueError):
            select_shared_support(
                designs, targets, 999, least_squares_solver
            )

    def test_solver_shape_validated(self):
        designs, targets, _ = shared_sparse_problem(6)
        with pytest.raises(AssertionError, match="solver"):
            select_shared_support(
                designs, targets, 2, lambda d, t: np.zeros((1, 1))
            )


# ----------------------------------------------------------------------
# Balanced (one GEMM per step) vs per-state scans
# ----------------------------------------------------------------------
def balanced_problem(seed=0, n_states=24, n_basis=30, n=20):
    """Every state fitted on one shared design, correlated coefficients."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, n_basis))
    base = np.zeros(n_basis)
    base[[3, 11, 17]] = rng.uniform(1.0, 3.0, 3)
    targets = [
        design @ (base * (1.0 + 0.1 * k)) + 0.01 * rng.standard_normal(n)
        for k in range(n_states)
    ]
    return [design] * n_states, targets


def reference_scan(designs, targets, n_select, solver, aggregate):
    """Literal eq. 33-34: per-state correlations, products and residuals."""
    incremental = hasattr(solver, "begin")
    if incremental:
        solver.begin(designs, targets)
    support, steps = [], []
    residuals = [t.copy() for t in targets]
    for _ in range(n_select):
        score = np.zeros(designs[0].shape[1])
        for design, residual in zip(designs, residuals):
            xi = design.T @ residual
            score += np.abs(xi) if aggregate == "l1" else xi * xi
        score[support] = -np.inf
        chosen = int(np.argmax(score))
        support.append(chosen)
        subs = [design[:, support] for design in designs]
        coefficients = (
            solver.extend(chosen) if incremental else solver(subs, targets)
        )
        residuals = [
            target - sub @ coefficients[:, k]
            for k, (sub, target) in enumerate(zip(subs, targets))
        ]
        steps.append((list(support), coefficients.copy()))
    return support, coefficients, steps


def _make_greedy_solver(name):
    from repro.core.somp_init import (
        IncrementalBayesSolver,
        KroneckerBayesSolver,
    )

    if name == "plain":
        return least_squares_solver
    if name == "woodbury":
        return IncrementalBayesSolver(0.8, 0.2)
    return KroneckerBayesSolver(0.8, 0.2)


_PROBLEMS = {
    "balanced": lambda: balanced_problem(7),
    "unbalanced": lambda: shared_sparse_problem(7, n_states=6)[:2],
}


class TestBalancedParity:
    """The scan on ``MultiStateData`` matches the per-state loop."""

    @pytest.mark.parametrize("aggregate", ["l1", "l2"])
    @pytest.mark.parametrize(
        "kind, solver_name",
        [
            ("balanced", "plain"),
            ("balanced", "woodbury"),
            ("balanced", "kron"),  # needs one shared design
            ("unbalanced", "plain"),
            ("unbalanced", "woodbury"),
        ],
    )
    def test_matches_per_state_reference(self, kind, solver_name, aggregate):
        designs, targets = _PROBLEMS[kind]()
        steps = []
        support, coefficients = select_shared_support(
            designs,
            targets,
            8,
            _make_greedy_solver(solver_name),
            on_step=lambda s, c: steps.append((list(s), c.copy())),
            aggregate=aggregate,
        )
        ref_support, ref_coefficients, ref_steps = reference_scan(
            designs, targets, 8, _make_greedy_solver(solver_name), aggregate
        )
        assert support == ref_support
        assert [s for s, _ in steps] == [s for s, _ in ref_steps]
        for (_, got), (_, want) in zip(steps, ref_steps):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            coefficients, ref_coefficients, rtol=0, atol=1e-12
        )

    def test_balanced_problem_takes_the_balanced_path(self):
        from repro.core.multistate import MultiStateData

        designs, targets = balanced_problem(1)
        assert MultiStateData.from_states(designs, targets).state_balanced
        designs, targets = shared_sparse_problem(1)[:2]
        assert not MultiStateData.from_states(designs, targets).state_balanced


class TestRowOps:
    """``predict_rows``/``correlate``/``split`` agree on both paths."""

    @pytest.mark.parametrize("kind", sorted(_PROBLEMS))
    def test_predict_and_correlate_match_per_state(self, kind):
        from repro.core.multistate import MultiStateData

        designs, targets = _PROBLEMS[kind]()
        data = MultiStateData.from_states(designs, targets)
        rng = np.random.default_rng(0)
        columns = [4, 0, 9]
        mean = rng.standard_normal((len(columns), len(designs)))
        want = np.concatenate(
            [d[:, columns] @ mean[:, k] for k, d in enumerate(designs)]
        )
        np.testing.assert_allclose(
            data.predict_rows(mean, columns), want, rtol=1e-13, atol=1e-13
        )
        values = rng.standard_normal(data.n_rows)
        want = np.stack(
            [d.T @ v for d, v in zip(designs, np.split(
                values, np.cumsum([d.shape[0] for d in designs])[:-1]
            ))]
        )
        np.testing.assert_allclose(
            data.correlate(values), want, rtol=1e-13, atol=1e-13
        )

    def test_shared_split_stays_balanced_without_a_check(self, monkeypatch):
        from repro.core.multistate import MultiStateData

        designs, targets = balanced_problem(2)
        data = MultiStateData.from_states(designs, targets)
        assert data.state_balanced
        calls = []
        monkeypatch.setattr(
            MultiStateData, "_check_balanced",
            lambda self: calls.append(1) or True,
        )
        rows = np.array([5, 1, 7])
        train, test = data.split([rows] * data.n_states)
        assert train.state_balanced and test.state_balanced
        assert calls == []
        np.testing.assert_array_equal(test.shared_design, designs[0][rows])
        np.testing.assert_array_equal(test.targets[3], targets[3][rows])
        assert train.n_rows == data.n_states * (designs[0].shape[0] - 3)

    def test_per_state_split_is_checked_lazily(self):
        from repro.core.multistate import MultiStateData

        designs, targets = balanced_problem(3, n_states=3)
        data = MultiStateData.from_states(designs, targets)
        train, test = data.split([np.array([0]), np.array([1]),
                                  np.array([0])])
        assert not train.state_balanced
        np.testing.assert_array_equal(test.designs[1], designs[1][[1]])
