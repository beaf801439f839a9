"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: schema/integrity/file problems -> 2,
geometry density (cut locus) problems -> 3, verification failures -> 4.
"""


class GeomwaveError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class SchemaError(GeomwaveError):
    """A file cannot be read, written or parsed, or metadata is inconsistent
    (wrong predictor, corrupted pyramid, non-unit points)."""

    exit_code = 2


class BaseMismatchError(SchemaError):
    """Stored detail base point disagrees with the recomputed prediction."""


class CutLocusError(GeomwaveError):
    """A geometry operation was asked to cross (or get too close to) the
    cut locus; the data is not dense enough.  ``index`` is the first
    failing entry of an array call (None for a single point)."""

    exit_code = 3

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index

    def _location(self):
        return [] if self.index is None else [f"index {self.index}"]

    def __str__(self):
        base = super().__str__()
        loc = self._location()
        return f"{base} ({', '.join(loc)})" if loc else base


class DensityError(CutLocusError):
    """Cut-locus failure inside a multiscale transform, annotated with the
    level and index where it occurred."""

    def __init__(self, message, level=None, index=None):
        super().__init__(message, index)
        self.level = level

    def _location(self):
        level = [] if self.level is None else [f"level {self.level}"]
        return level + super()._location()


class VerificationFailure(GeomwaveError):
    """One or more verification checks did not meet their threshold."""

    exit_code = 4
