"""Exception types shared across the package."""


class WebWorldsError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(WebWorldsError):
    """JSON-style input does not have the expected shape or value types."""


class InconsistentResult(WebWorldsError):
    """Two exact routes to one quantity disagree: a defect in the library."""


class InvalidDiagram(WebWorldsError):
    """Edge data does not describe a well-formed diagram."""


class PegOrderViolation(InvalidDiagram):
    """An edge does not run from a lower-numbered peg to a higher one."""


class DuplicateSlot(InvalidDiagram):
    """Two edge endpoints occupy the same (peg, height) slot."""


class HeightNotPermutation(InvalidDiagram):
    """Heights on some peg are not exactly 1..p for p endpoints."""


class EdgeNotInDiagram(WebWorldsError):
    """A requested edge subset contains an edge the diagram lacks."""


class ArityMismatch(WebWorldsError):
    """A per-peg permutation family does not match the diagram's pegs."""


class LengthMismatch(WebWorldsError):
    """A colouring's length differs from the diagram's edge count."""


class NotSurjective(WebWorldsError):
    """A colouring fails to use every colour in 1..colours."""


class BadRange(WebWorldsError):
    """A numeric argument lies outside its valid range."""


class DifferentWorlds(WebWorldsError):
    """Two diagrams do not belong to a common web world."""


class WorldTooLarge(WebWorldsError):
    """A world or matrix would exceed the configured size guard."""


class BoundsTooLarge(WebWorldsError):
    """An enumeration request exceeds the configured bounds."""


class RepeatedBlocks(WebWorldsError):
    """A decomposition contains two identical blocks, so the diagonal
    closed forms do not apply."""


class LabelNotOne(WebWorldsError):
    """The web graph carries a multiplicity label above one, so the
    poset trace formulas do not apply."""


class NotTransitive(WebWorldsError):
    """A represent matrix fails the transitivity property."""


class IsolatedPeg(WebWorldsError):
    """A peg that must carry an edge endpoint has none."""
