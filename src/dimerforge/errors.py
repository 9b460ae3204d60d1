"""Exception hierarchy.

Every failure mode of the engine raises a named subclass of DimerforgeError,
so callers (and the suite runner) can report *which* precondition broke.
"""


class DimerforgeError(Exception):
    """Base class for all errors raised by this package."""


# --- graph loading / validation -------------------------------------------

class ParseError(DimerforgeError):
    pass


class NumberTooLong(DimerforgeError):
    """A rational to be written has more digits than ``int`` converts to text."""


class EmbeddingError(DimerforgeError):
    """Straight-line embedding is inconsistent (crossings, Euler failure)."""


class NotSimple(DimerforgeError):
    pass


class Disconnected(DimerforgeError):
    pass


# --- marked boundary / symmetry -------------------------------------------

class NotAPath(DimerforgeError):
    pass


class NotOnInfiniteFace(DimerforgeError):
    pass


class BadDegree(DimerforgeError):
    pass


class NotSymmetric(DimerforgeError):
    pass


class WeightMismatch(DimerforgeError):
    pass


class NotOnAxis(DimerforgeError):
    pass


# --- graph surgery ----------------------------------------------------------

class PreconditionViolated(DimerforgeError):
    pass


class ReembeddingFailed(DimerforgeError):
    pass


class NotDegreeTwo(DimerforgeError):
    pass


class SharedFace(DimerforgeError):
    pass


class NotAPeak(DimerforgeError):
    pass


class BelowDiagonal(DimerforgeError):
    pass


# --- bijections -------------------------------------------------------------

class CycleDetected(DimerforgeError):
    """A glide revisited a vertex; the input violated a precondition."""


class NotAlternating(DimerforgeError):
    pass


class RootNotOnInfiniteFace(DimerforgeError):
    pass


class NotAMatching(DimerforgeError):
    """An edge set is not a perfect matching of the graph it names."""


class ConstraintPathMismatch(DimerforgeError):
    pass


class ConditionViolated(DimerforgeError):
    """One of the marked-boundary conditions (i)-(iv) failed."""

    def __init__(self, which: str, message: str = ""):
        self.which = which
        super().__init__(f"condition ({which}) violated" + (f": {message}" if message else ""))


class LiftFailed(DimerforgeError):
    pass


# --- forests ----------------------------------------------------------------

class NotBanded(DimerforgeError):
    pass


class ClassificationFailed(DimerforgeError):
    pass


class BandPairingViolated(DimerforgeError):
    pass


class ChannelPairingViolated(DimerforgeError):
    pass


class HypothesisViolated(DimerforgeError):
    pass


# --- cli / generators -------------------------------------------------------

class ConfigError(DimerforgeError):
    pass


class GenerationExhausted(DimerforgeError):
    pass
