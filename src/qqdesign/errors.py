"""Exception types shared across the package."""


class QQDesignError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QQDesignError, ValueError):
    """An argument or data value lies outside the documented domain."""


class StructureError(QQDesignError, ValueError):
    """A design violates a structural requirement; the message names it."""


class CapacityError(QQDesignError, RuntimeError):
    """A computation would exceed a configured size cap."""


class ParseError(QQDesignError, ValueError):
    """A design file or a command-line value is malformed; the message locates the problem."""


class DriftError(QQDesignError, RuntimeError):
    """An incrementally tracked value disagrees with its full recomputation."""
