"""Exception types shared across the toolkit."""

from __future__ import annotations


class HFactorError(Exception):
    """Base class for all toolkit errors."""


class EmptyGraph(HFactorError):
    """Operation requires at least one vertex."""


class DegenerateSet(HFactorError):
    """Vertex set too small (or empty) for the requested quantity."""


class OverlappingSets(HFactorError):
    """Vertex sets were required to be disjoint but are not."""


class BadSizes(HFactorError):
    """Invalid class-size vector for a multipartite constructor."""


class PatternTooLarge(HFactorError):
    """Pattern graph exceeds the exhaustive-enumeration cap."""


class BadParameter(HFactorError):
    """Constructor or procedure parameters violate a precondition."""


class Timeout(HFactorError):
    """Search exceeded its time budget. Distinct from a proven negative.

    ``stages`` is the stage trace when run_pipeline raised it, else None.
    """

    stages: list[dict] | None = None


class Stuck(HFactorError):
    """A cleanup step could not complete; carries the failing stage.

    Copy realization and matching are exhaustive: their Stuck proves none fits."""

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        self.detail = detail
        super().__init__(f"stuck at stage '{stage}'" + (f": {detail}" if detail else ""))


class InternalError(HFactorError):
    """A structural identity that should be impossible to violate was violated."""
