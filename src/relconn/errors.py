"""Exception types shared across the package."""

from __future__ import annotations


class RelconnError(Exception):
    """Base class for all errors raised by this package."""


class RelationError(RelconnError):
    """Malformed relation or illegal relation operation."""


class PatternError(RelationError):
    """Argument pattern does not fit the relation it is applied to."""


class ArityLimitError(RelationError):
    """Operation would enumerate beyond the configured arity bound."""


class FormulaError(RelconnError):
    """Malformed formula or illegal formula operation."""


class FormulaParseError(FormulaError):
    """Unreadable relation or formula text."""


class ClauseExtractionError(FormulaError):
    """A constraint relation is outside the requested clause class."""


class VarsLimitError(RelconnError):
    """Formula has too many variables for exhaustive enumeration."""


class DiameterLimitError(VarsLimitError):
    """A solution graph component is too large for the diameter pass."""


class NotASolutionError(RelconnError):
    """An endpoint passed to a path query does not satisfy the formula."""


class HornStructureError(RelconnError):
    """Clause set violates a structural precondition (e.g. has positive units)."""


class NonCpssError(RelconnError):
    """Relation set is outside the class handled by the projection algorithm."""


class ReductionInputError(RelconnError):
    """Input formula is not of the shape the reduction accepts."""


class TriviallySatisfiableError(ReductionInputError):
    """Input has no ternary clause, so satisfiability is immediate."""


class ExpressionError(RelconnError):
    """The expression procedure could not complete on the given relation."""
