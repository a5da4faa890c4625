"""Exception hierarchy for the package.

Every structured failure mode gets its own class so callers (and the CLI's
exit table) can dispatch on type rather than on message text; `BAD_INPUT` is
what reading untrusted JSON (a spec file, a batch line, a cache entry) raises.
"""


class AutSplitError(Exception):
    """Base class for all package errors."""


# --- group specification validation ---

class SpecError(AutSplitError, ValueError):
    """Invalid group specification."""


class NonPrime(SpecError):
    pass


class NonIncreasingExponents(SpecError):
    pass


class ZeroRank(SpecError):
    pass


class EmptyBlocks(SpecError):
    pass


# --- shape / compatibility ---

class ShapeMismatch(AutSplitError):
    """Operands do not conform to the expected block shapes."""


class SpecMismatch(AutSplitError):
    """Operands belong to different group specifications."""


class ConstraintViolation(AutSplitError):
    """An entry is not an integer, or a divisibility (Hom) constraint fails."""


class NotAUnit(AutSplitError):
    """Operation requires an automorphism but the endomorphism is not one."""


# --- derived-structure preconditions ---

class TrivialResult(AutSplitError):
    """The derived group would be trivial."""


class SingleBlock(AutSplitError):
    """Operation needs at least two blocks."""


class PreconditionGap(AutSplitError):
    """Exponent-gap precondition of the corner map fails."""


class PreconditionViolation(AutSplitError):
    """An oracle was invoked outside its stated parameter range."""


class RankTooSmall(AutSplitError):
    """No transvection exists in a rank-1 leading block."""


# --- budgets and search control flow ---

class BudgetExceeded(AutSplitError):
    """An enumeration or search exceeded a budget; the message names which."""


class Overflow(AutSplitError):
    """A Cayley graph (`endo.gl_bfs` or `endo.cayley_graph`) passed its cap."""


# --- splitting / certificates ---

class NotSplitBlock(AutSplitError):
    """A section was requested for a block that does not split."""


class VerificationFailed(AutSplitError):
    """A certificate failed verification; carries the first counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


#: Bad UTF-8, bad JSON, an integer literal past the digit limit and a
#: SpecError are all ValueErrors; JSON nested too deeply is a RecursionError.
BAD_INPUT = (OSError, ValueError, RecursionError)
