"""Exception hierarchy shared by all modules.

Every error carries a stable ``kind`` string (its class name) so the CLI can
emit machine-readable error reports without maintaining a separate table.
"""

from __future__ import annotations


class UpseError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


# geometry
class NotGeneralPosition(UpseError):
    """Point set violates general position (equal y or three collinear points)."""


class NotConvex(UpseError):
    """Point set is not in convex position."""


# digraph
class NotATree(UpseError):
    """Underlying undirected graph is not a tree."""


class Cyclic(UpseError):
    """Digraph contains a directed cycle."""


# embedder
class NotSwitchTree(UpseError):
    """Digraph is not a switch tree."""


class NotSink(UpseError):
    """Designated vertex is not a sink."""


class NotSource(UpseError):
    """Designated vertex is not a source."""


class NotOneSided(UpseError):
    """Convex point set is two-sided where a one-sided set is required."""


class SizeMismatch(UpseError):
    """Vertex count and point count disagree."""


class InternalNonConsecutiveResidual(UpseError):
    """Internal invariant failed: a residual hull window does not match its subtree's size."""


# constructions
class BadN(UpseError):
    """Size parameter outside the valid range."""


class BadParameters(UpseError):
    """Parameter combination outside the valid range."""


class InvalidInstance(UpseError):
    """Number-partition instance violates its invariants."""


class PropertyCheckFailed(UpseError):
    """A generated object failed one of its guaranteed structural properties."""


class InvalidSolution(UpseError):
    """Claimed partition solution is not a valid one for the instance."""


class NotAValidUPSE(UpseError):
    """Mapping fails verification where a valid embedding is required."""


class ExtractionFailed(UpseError):
    """Embedding does not decompose into per-group paths as required."""


# file handling
class FormatError(UpseError):
    """Input file violates its documented JSON schema."""
