"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by library code derives from
:class:`ReproError` so callers can catch reproduction-specific failures with
a single ``except`` clause while letting programming errors (``TypeError``,
``ValueError`` from numpy, ...) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """A geometric computation failed (degenerate input, solver failure)."""


class EmptyRegionError(GeometryError):
    """An operation required a non-empty polytope but the region is empty.

    This typically signals inconsistent user feedback: the intersection of
    the learned half-spaces with the utility simplex contains no vector.
    """


class LPError(GeometryError):
    """A linear program could not be solved to optimality."""


class VertexEnumerationError(GeometryError):
    """Extreme-point enumeration failed for a polytope."""


class DataError(ReproError):
    """A dataset is malformed (wrong shape, values outside (0, 1], ...)."""


class InteractionError(ReproError):
    """The interaction protocol was violated.

    Examples: asking for a question after the session terminated, or
    feeding an answer when no question is pending.
    """


class ConfigurationError(ReproError):
    """An algorithm or experiment was configured with invalid parameters."""


class PersistenceError(ReproError):
    """A session snapshot could not be captured, stored or restored.

    Examples: snapshotting an algorithm family that does not implement
    the state protocol, loading a snapshot written by an incompatible
    format version, or resuming an RL session without its agent.
    """


class SessionFailedError(ReproError):
    """A served session ended with ``status == "failed"``.

    Raised by :meth:`repro.core.session.SessionResult.raise_for_status`
    for callers that prefer an exception over inspecting the ``status``
    field; the message carries the original error's type and text.
    """
