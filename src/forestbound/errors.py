"""Exception hierarchy for forestbound.

Everything raised on bad input derives from ForestError so callers (and the
CLI) can catch one base class.
"""


class ForestError(Exception):
    """Base class for all forestbound input/validation errors."""


class SizeMismatchError(ForestError):
    """Atom sizes do not describe a partition of the m hypotheses."""


class DuplicateRegionError(ForestError):
    """The same (i, j) interval appears twice in a region list."""


class OverlapError(ForestError):
    """Two region intervals partially overlap (neither disjoint nor nested)."""


class ZetaRangeError(ForestError):
    """A region budget is negative or exceeds the region size."""


class UnknownRegionError(ForestError, KeyError):
    """A region key is not part of the family."""


class IncompleteFamilyError(ForestError):
    """An operation requiring a complete family got an incomplete one."""


class IndexOutOfRangeError(ForestError):
    """A hypothesis or atom index is outside the valid range."""


class NotAPermutationError(ForestError):
    """A selection path repeats an index or leaves the range 1..m."""


class InvalidProbabilityError(ForestError):
    """A p-value is not a finite number in [0, 1]."""


class FormatError(ForestError):
    """A serialized family, path, or table does not match its schema."""
