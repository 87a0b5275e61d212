"""Exception types shared across the toolkit."""


class NumidealError(Exception):
    """Base class for all toolkit errors."""


class ParseError(NumidealError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ArityError(NumidealError):
    """An evaluation point or a change of coordinates does not match the
    number of variables."""


class PreconditionError(NumidealError):
    """An operation's stated precondition is violated (reported which)."""


class SanityViolation(NumidealError):
    """A structural property guaranteed for stable inputs failed.

    Signals that the input polynomial was not actually stable (or not
    smooth at the origin).  Carries a witness describing the failure.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class TruncationError(NumidealError):
    """Working order too small to decide; raise the order and retry."""


class NoMonomializationFound(NumidealError):
    """No linear change made the input comparable to a sum of even monomials.

    Carries a witness when the input is negative near 0 (`closure.monomialize`),
    else None.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)
