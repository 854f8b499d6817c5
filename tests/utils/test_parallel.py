"""Tests for the deterministic process-pool map and the BLAS scope."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.utils import parallel
from repro.utils.parallel import (
    derive_seeds,
    one_blas_thread,
    openblas_thread_counts,
    parallel_map,
    resolve_workers,
)


# Cells must be module-level to pickle under the spawn start method.
def _square(x):
    return x * x


def _scale(x, payload):
    return x * payload["factor"]


def _draw(seed_seq, payload):
    rng = np.random.default_rng(seed_seq)
    return float(rng.standard_normal())


def _blas_counts(x):
    return sorted(openblas_thread_counts().values())


class TestResolveWorkers:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_clamped_to_items(self):
        assert resolve_workers(8, n_items=3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestDeriveSeeds:
    def test_count(self):
        assert len(derive_seeds(0, 5)) == 5

    def test_reproducible(self):
        a = [s.generate_state(2).tolist() for s in derive_seeds(7, 4)]
        b = [s.generate_state(2).tolist() for s in derive_seeds(7, 4)]
        assert a == b

    def test_accepts_generator(self):
        gen = np.random.default_rng(3)
        seeds = derive_seeds(gen, 2)
        assert len(seeds) == 2

    def test_children_differ(self):
        states = [
            tuple(s.generate_state(2).tolist()) for s in derive_seeds(0, 6)
        ]
        assert len(set(states)) == 6

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, []) == []

    def test_serial(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_with_shared(self):
        out = parallel_map(_scale, [1, 2], shared={"factor": 10})
        assert out == [10, 20]

    def test_parallel_matches_serial(self):
        serial = parallel_map(_square, list(range(8)), max_workers=1)
        pooled = parallel_map(_square, list(range(8)), max_workers=4)
        assert serial == pooled

    def test_parallel_shared_matches_serial(self):
        items = list(range(6))
        serial = parallel_map(
            _scale, items, shared={"factor": 3}, max_workers=1
        )
        pooled = parallel_map(
            _scale, items, shared={"factor": 3}, max_workers=3
        )
        assert serial == pooled

    def test_seeded_cells_bit_identical(self):
        seeds = derive_seeds(11, 6)
        serial = parallel_map(_draw, seeds, shared={}, max_workers=1)
        pooled = parallel_map(_draw, seeds, shared={}, max_workers=3)
        assert serial == pooled

    def test_env_activates_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert parallel_map(_square, [2, 3]) == [4, 9]


def _mapped_openblas_paths():
    with open("/proc/self/maps") as handle:
        return {
            line.split()[-1]
            for line in handle
            if len(line.split()) >= 6 and "openblas" in line.lower()
        }


def _numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"
        ]
    except Exception:  # older numpy without the dict form
        return ""


class _FakeControl:
    """Stands in for one library's thread getter/setter."""

    def __init__(self, path, threads):
        self.path = path
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads


@pytest.fixture
def fake_blas(monkeypatch):
    """Two fake libraries at 3 and 2 threads behind the lookup."""
    controls = [_FakeControl("a.so", 3), _FakeControl("b.so", 2)]
    monkeypatch.setattr(parallel, "_openblas_controls", lambda: controls)
    return controls


@pytest.fixture
def real_blas_at_two():
    """Every loaded OpenBLAS set to 2 threads for the test, so the
    restore is observable even on a 1-core host; reset afterwards."""
    import scipy.linalg  # noqa: F401  (loads scipy's copy)

    controls = parallel._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    saved = [(control, control.get()) for control in controls]
    for control in controls:
        control.set(2)
    yield {control.path: 2 for control in controls}
    for control, threads in saved:
        control.set(threads)


def _threads(controls):
    return [control.threads for control in controls]


class TestOneBlasThreadLogic:
    """The save/cap/restore bookkeeping, on fake libraries."""

    def test_caps_inside_and_restores(self, fake_blas):
        with one_blas_thread():
            assert _threads(fake_blas) == [1, 1]
        assert _threads(fake_blas) == [3, 2]

    def test_restores_on_exception(self, fake_blas):
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert _threads(fake_blas) == [3, 2]

    def test_nested_restores_only_at_last_exit(self, fake_blas):
        with one_blas_thread():
            with one_blas_thread():
                assert _threads(fake_blas) == [1, 1]
            assert _threads(fake_blas) == [1, 1]
        assert _threads(fake_blas) == [3, 2]

    def test_library_loaded_inside_scope_is_capped(self, monkeypatch):
        controls = [_FakeControl("a.so", 3)]
        monkeypatch.setattr(parallel, "_openblas_controls", lambda: controls)
        with one_blas_thread():
            controls.append(_FakeControl("late.so", 4))
            with one_blas_thread():
                assert _threads(controls) == [1, 1]
            assert _threads(controls) == [1, 1]
        assert _threads(controls) == [3, 4]

    def test_overlapping_threads_restore_at_last_exit(self, fake_blas):
        a_entered, b_entered = threading.Event(), threading.Event()
        a_left, b_may_leave = threading.Event(), threading.Event()
        seen = {}

        def first():
            with one_blas_thread():
                a_entered.set()
                b_entered.wait(10)
            a_left.set()

        def second():
            a_entered.wait(10)
            with one_blas_thread():
                b_entered.set()
                b_may_leave.wait(10)
                seen["while_b_holds"] = _threads(fake_blas)

        threads = [
            threading.Thread(target=first),
            threading.Thread(target=second),
        ]
        for thread in threads:
            thread.start()
        assert a_left.wait(10)
        # A entered first and left first: B still holds the scope.
        assert _threads(fake_blas) == [1, 1]
        b_may_leave.set()
        for thread in threads:
            thread.join(10)
        assert seen["while_b_holds"] == [1, 1]
        assert _threads(fake_blas) == [3, 2]

    def test_many_threads_keep_the_depth_count(self, fake_blas):
        """More threads than cores entering and leaving at a tiny switch
        interval: a lost depth update would leave the fakes capped or
        restore them while a thread is still inside."""
        errors = []

        def churn():
            for _ in range(200):
                with one_blas_thread():
                    if _threads(fake_blas) != [1, 1]:
                        errors.append(_threads(fake_blas))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert parallel._blas_depth == 0
        assert _threads(fake_blas) == [3, 2]

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(parallel, "_openblas_controls", lambda: [])
        before = openblas_thread_counts()
        with one_blas_thread():
            assert openblas_thread_counts() == before
        assert openblas_thread_counts() == before

    def test_decorator_keeps_metadata(self, fake_blas):
        @one_blas_thread()
        def work(x):
            """Doc."""
            return _threads(fake_blas), x

        assert work.__name__ == "work" and work.__doc__ == "Doc."
        assert work(5) == ([1, 1], 5)
        assert _threads(fake_blas) == [3, 2]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
)
class TestOneBlasThreadLibraries:
    """The real OpenBLAS copies numpy and scipy load."""

    def test_lookup_finds_every_loaded_openblas(self):
        import scipy.linalg  # noqa: F401

        if "openblas" not in _numpy_blas_name().lower():
            pytest.skip("numpy is not built against OpenBLAS")
        mapped = _mapped_openblas_paths()
        found = {control.path for control in parallel._openblas_controls()}
        # A wheel that renamed its thread setter must fail here, not turn
        # the scope into a silent no-op.
        assert mapped, "pip numpy on Linux maps an OpenBLAS"
        assert found == mapped

    def test_caps_and_restores_real_libraries(self, real_blas_at_two):
        with one_blas_thread():
            assert set(openblas_thread_counts().values()) == {1}
        assert openblas_thread_counts() == real_blas_at_two

    def test_restores_real_libraries_on_exception(self, real_blas_at_two):
        with pytest.raises(ValueError):
            with one_blas_thread():
                raise ValueError("boom")
        assert openblas_thread_counts() == real_blas_at_two

    def test_parallel_map_cells_run_on_one_thread(self, real_blas_at_two):
        inline = parallel_map(_blas_counts, [0, 1], max_workers=1)
        pooled = parallel_map(_blas_counts, [0, 1, 2], max_workers=2)
        for counts in inline + pooled:
            assert counts and set(counts) == {1}
        assert openblas_thread_counts() == real_blas_at_two


def _tiny_problem(seed=0, n_states=3, n=12):
    from repro.basis.polynomial import LinearBasis

    rng = np.random.default_rng(seed)
    basis = LinearBasis(3)
    designs = [
        basis.expand(rng.standard_normal((n, 3))) for _ in range(n_states)
    ]
    coef = rng.standard_normal(basis.n_basis)
    targets = [d @ coef + 0.01 * rng.standard_normal(n) for d in designs]
    return basis, designs, targets


class TestScopedEntryPoints:
    """``CBMF.fit`` and ``compute_yield_report`` run on one thread and
    hand the caller's thread counts back, whether they return or raise."""

    def _small_fit(self):
        from repro.core.cbmf import CBMF
        from repro.core.somp_init import InitConfig

        config = InitConfig(
            r0_grid=(0.5,), sigma0_grid=(0.1,), n_basis_grid=(2,), n_folds=2
        )
        return CBMF(init_config=config, seed=0)

    def test_fit_runs_on_one_thread_and_restores(
        self, real_blas_at_two, monkeypatch
    ):
        import repro.core.cbmf as cbmf

        seen = []
        original = cbmf.run_em

        def spy(*args, **kwargs):
            seen.append(set(openblas_thread_counts().values()))
            return original(*args, **kwargs)

        monkeypatch.setattr(cbmf, "run_em", spy)
        _, designs, targets = _tiny_problem()
        self._small_fit().fit(designs, targets)
        assert seen == [{1}]
        assert openblas_thread_counts() == real_blas_at_two

    def test_fit_restores_when_it_raises(self, real_blas_at_two):
        _, designs, targets = _tiny_problem()
        targets[1] = targets[1].copy()
        targets[1][0] = np.nan
        with pytest.raises(ValueError):
            self._small_fit().fit(designs, targets)
        assert openblas_thread_counts() == real_blas_at_two

    def test_yield_report_restores_on_return_and_raise(
        self, real_blas_at_two
    ):
        from repro.applications.yield_estimation import Specification
        from repro.yields import compute_yield_report

        basis, designs, targets = _tiny_problem()
        model = self._small_fit().fit(designs, targets)
        models = {"y": model}
        report = compute_yield_report(
            models, basis, [Specification("y", 0.0, "min")], n_samples=50
        )
        assert report.n_states == 3
        assert openblas_thread_counts() == real_blas_at_two
        with pytest.raises(KeyError):
            compute_yield_report(
                models, basis, [Specification("nope", 0.0, "min")]
            )
        assert openblas_thread_counts() == real_blas_at_two
