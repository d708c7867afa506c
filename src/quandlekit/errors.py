"""Exception hierarchy shared across the package."""


class QuandleKitError(Exception):
    """Base class for all errors raised by quandlekit."""


class MalformedTableError(QuandleKitError):
    """Input table is structurally broken (ragged rows, out-of-range entries).

    Distinct from an axiom violation: a malformed table is not even a
    candidate quandle.  ``code`` is one of ``"ragged-rows"``,
    ``"entry-out-of-range"``, ``"bad-structure"``.
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class AxiomViolationError(QuandleKitError):
    """A well-formed table fails one of the three quandle axioms."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class EmptyQuandleError(QuandleKitError):
    """A constructor was asked for a quandle of size n < 1.

    A table of size n < 1 is a MalformedTableError instead.
    """


class NonUnitParameterError(QuandleKitError):
    """Alexander parameter t is not a unit mod n."""


class GroupAxiomError(QuandleKitError):
    """A claimed Cayley table is not a group table."""


class CapacityError(QuandleKitError):
    """A configurable size/budget cap was exceeded."""


class NotInvariantError(QuandleKitError):
    """Subset is not invariant under the given action."""


class DimensionMismatchError(QuandleKitError):
    """Vector/matrix dimensions do not match."""


class DomainMismatchError(QuandleKitError):
    """Operands live over different coefficient domains."""


class ContainmentError(QuandleKitError):
    """Quotient requested for B not contained in A."""


class NonSplitError(QuandleKitError):
    """Field characteristic divides an orbit size; the summand does not split."""


class PreconditionError(QuandleKitError):
    """A stated arithmetic precondition fails (e.g. p does not divide n-1)."""
