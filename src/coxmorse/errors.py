"""Exception hierarchy.

Two families: ``InputError`` for bad arguments, unmet preconditions and
configuration limits, and ``Falsification`` for runtime violations of
verified structural claims.  The CLI maps them to distinct exit codes.
"""


class CoxmorseError(Exception):
    pass


class InputError(CoxmorseError):
    """Bad input, unmet precondition, or configured limit exceeded."""


class Falsification(CoxmorseError):
    """A verified structural claim failed on a concrete instance.

    Raising one of these means either a genuine counterexample or a
    convention error in the caller; the message carries the witness.
    """


class InvalidMatrix(InputError):
    pass


class GroupTooLarge(InputError):
    pass


class InvalidSubset(InputError):
    pass


class OverlappingSubsets(InputError):
    pass


class NotComparable(InputError):
    pass


class NotPure(InputError):
    pass


class IntervalTooLarge(InputError):
    pass


class NotReducedWordOfW0(InputError):
    pass


class EmptyInterval(InputError):
    pass


class NotMinimalCosetRep(InputError):
    pass


class CapExceeded(InputError):
    pass


class OrderTooLarge(InputError):
    """Past ``posets.MAX_ORDER_BYTES``: a packed order, or Z's cells at their price."""


class CyclicMatching(Falsification):
    pass


class NotAMatching(Falsification):
    pass


class ELViolation(Falsification):
    pass


class TheoremFalsified(Falsification):
    pass


class LemmaFalsified(Falsification):
    pass


class PropositionFalsified(Falsification):
    pass


class CorollaryFalsified(Falsification):
    pass


class NonUniqueMaximum(Falsification):
    pass


class NonUniqueOptimum(Falsification):
    pass


class AnchorViolation(Falsification):
    pass
