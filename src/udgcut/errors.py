"""Exception hierarchy shared across the package."""


class UdgcutError(Exception):
    """Base class for all package errors."""


class InputError(UdgcutError, ValueError):
    """Malformed or unsupported input (CLI exit code 2)."""


class PreconditionError(InputError):
    """An operation's documented precondition was violated."""


class ParityError(InputError):
    """A bisection was requested on an odd number of vertices."""


class UndefinedPrecisionError(InputError):
    """Precision is undefined for models with fewer than two points."""


class DegenerateOverlapError(UdgcutError):
    """Two collinear segments overlap in more than a point (invalid drawing)."""


class SizeLimitError(InputError):
    """Instance too large for exhaustive enumeration; use the DP solver."""


class WidthLimitError(InputError):
    """Tree decomposition width exceeds the configured DP ceiling."""


class InconsistencyError(UdgcutError):
    """Cut accounting produced an impossible value (reduction bug)."""


class ConstructionError(UdgcutError):
    """Internal validation of a constructed object failed (CLI exit code 1)."""
