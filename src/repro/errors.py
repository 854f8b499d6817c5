"""Structured exception taxonomy for the fit/serve pipeline.

Every long-running path in the repo — ``CBMF.fit`` with process-pool CV,
the budgeted ``ActiveFitLoop``, the serving engine — can
fail in ways that deserve different handling: a transient simulator
crash should be retried, a non-finite sample quarantined, a Cholesky
breakdown surfaced as a numerical problem, a half-written checkpoint
detected before it silently corrupts a resumed run. The taxonomy makes
those cases distinguishable at the caller:

``ReproError``
    Root of everything this package raises deliberately.
``SimulationError``
    A simulation endpoint (circuit evaluation, oracle observation)
    failed or kept returning non-finite values past its retry budget.
``NumericalError``
    Dense linear algebra broke down (e.g. a matrix stayed indefinite
    through the whole jitter ladder, or an uncertainty estimate came
    back non-finite). Also subclasses ``numpy.linalg.LinAlgError`` so
    existing ``except np.linalg.LinAlgError`` handlers keep working.
``CheckpointError``
    A checkpoint failed to write or load cleanly — the message names
    the offending file so operators know what to delete or restore.
``ServingError``
    The serving layer failed an operation (e.g. a hot swap) in a way it
    degraded around rather than crashed on. The cluster gateway refines
    it into :class:`ShedError` (admission control turned the request
    away), :class:`DeadlineError` (the per-request deadline expired
    before an answer arrived) and :class:`ShardCrashError` (the shard
    process serving the request died mid-flight) — all still
    ``ServingError`` so existing handlers keep working.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "CheckpointError",
    "DeadlineError",
    "NumericalError",
    "ReproError",
    "ServingError",
    "ShardCrashError",
    "ShedError",
    "SimulationError",
]


class ReproError(Exception):
    """Base class of every deliberate failure this package raises."""


class SimulationError(ReproError):
    """A simulation call failed or returned non-finite values.

    Raised after the retry budget is exhausted; the message names the
    state/row when the caller knows them.
    """


class NumericalError(ReproError, np.linalg.LinAlgError):
    """Dense linear algebra broke down despite stabilization.

    Subclasses ``np.linalg.LinAlgError`` so pre-existing handlers that
    catch the numpy exception continue to work unchanged.
    """


class CheckpointError(ReproError):
    """A checkpoint is missing, unreadable, or internally inconsistent.

    Parameters
    ----------
    message:
        Human-readable description; should name the offending file.
    path:
        Optional path of the corrupt or missing file, kept as an
        attribute for programmatic handling.
    """

    def __init__(self, message: str, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None


class ServingError(ReproError):
    """A serving operation failed (the service degrades, not crashes)."""


class ShedError(ServingError):
    """Admission control rejected a request (shard queue too deep).

    A shed is an explicit, structured refusal — never a silent drop:
    the caller knows immediately that the request was not (and will not
    be) processed, and the gateway counts it per shard and per version.
    """


class DeadlineError(ServingError):
    """A request's deadline expired before its answer arrived.

    Raised by the gateway when a shard is too slow (or hung): the
    request is abandoned, the expiry is counted, and any late answer
    from the shard is discarded.
    """


class ShardCrashError(ServingError):
    """The shard process serving a request died with it in flight.

    The gateway fails every in-flight request of the dead shard with
    this error (well before any deadline), then respawns the shard with
    the shared-memory model store remapped.
    """
