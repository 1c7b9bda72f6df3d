"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`QualUtilError`, so callers
(notably the command line driver) can distinguish domain errors from bugs.
"""

from __future__ import annotations


class QualUtilError(Exception):
    """Base class for all errors raised by this package."""


class InfiniteValue(QualUtilError):
    """A standard part was requested of a value with an infinite component."""


class InvalidParameter(QualUtilError, ValueError):
    """A value is outside its domain -- a size that is not an ``int``, a
    grid denominator below 2, a negative closure depth, no lotteries, fewer than two ranked outcomes, a
    lottery, belief or utility assignment that is not one, an unknown
    certificate kind -- or command-line text is not the number it must be."""


class InvalidWeight(QualUtilError, ValueError):
    """A mixture weight lies outside the open unit interval, or is
    nonstandard in a regime that requires standard weights."""


class MissingUtility(QualUtilError, LookupError):
    """A lottery mentions an outcome the utility assignment does not cover."""


class UnknownState(QualUtilError, LookupError):
    """An act or belief was queried at a state outside the state space."""


class PreconditionViolated(QualUtilError):
    """An operation was called outside its documented domain."""


class RegimeMismatch(QualUtilError):
    """A check or operation was applied under a regime it does not support."""


class MissingModel(QualUtilError):
    """An act-level check was requested on a structure without a model."""


class IndexOutOfRange(QualUtilError, IndexError):
    """An outcome index lies outside the ranked outcome set."""


class IndexOrder(QualUtilError, ValueError):
    """Outcome indices passed to the worst-case comparison rule were not
    strictly increasing."""


class ParseError(QualUtilError, ValueError):
    """A literal failed to parse.  ``position`` is a 0-based offset into the
    input text."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroDenominator(ParseError):
    """A rational literal had denominator zero."""


class SchemaError(QualUtilError, ValueError):
    """A model document is malformed.  ``path`` names the offending section
    or assignment, e.g. ``"lottery two/magazine"``."""

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class UnknownIdentifier(QualUtilError, LookupError):
    """A lottery, act, or state id is not defined by the loaded model."""


class ClosureTooLarge(QualUtilError):
    """The mixture closure holds more lotteries than the audit admits.  The
    checks walk classes of indifferent lotteries and decide most postulates
    by rules on leading exponents; only ``NS_UTIL`` values of both signs are
    scanned over all pairs and triples.  Lower the closure depth or the grid
    denominator, or audit fewer generators."""


class SweepTooLarge(QualUtilError):
    """An exhaustive maximin sweep would make more comparisons than the
    documented limit allows.  Use fewer outcomes or a smaller grid
    denominator, or compare chosen bets with ``--compare``."""


class ConsistencyError(QualUtilError):
    """An analytic decision rule disagreed with the definitional check that
    guards it.  Indicates a bug, not bad input."""
