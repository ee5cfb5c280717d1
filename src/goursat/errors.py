"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed term, identity, or input file; carries a position."""

    def __init__(self, message, pos=None, line=None):
        detail = message
        if line is not None:
            detail = f"line {line}: {message}"
        elif pos is not None:
            detail = f"{message} (at position {pos})"
        super().__init__(detail)
        self.pos = pos
        self.line = line


class EvalError(ValueError):
    """Term evaluation failed: unbound variable or symbol not in the algebra."""


class SignatureMismatchError(ValueError):
    """Operands declared over different signatures."""


class SizeMismatchError(ValueError):
    """Relations or partitions over carriers of different sizes."""


class NotCongruenceError(ValueError):
    """A partition fails compatibility with an operation.

    ``symbol`` names the operation, ``pair`` is a pair of argument tuples
    that are related coordinatewise but have unrelated images.
    """

    def __init__(self, symbol, pair):
        super().__init__(
            f"not a congruence: {symbol} on {pair[0]} vs {pair[1]} gives unrelated values"
        )
        self.symbol = symbol
        self.pair = pair


class CarrierBoundError(RuntimeError):
    """Carrier size exceeds the configured enumeration bound.

    ``n`` is the size, or the text ``2**k`` for a power too large to write out.
    """

    def __init__(self, n, bound):
        super().__init__(
            f"carrier size {n} exceeds enumeration bound {bound}"
        )
        self.n = n
        self.bound = bound


class GoursatHypothesisError(RuntimeError):
    """The composite-based closure formula broke down on this algebra.

    Raised when a relational composite that should be an equivalence
    relation (under the 3-permutability hypothesis) is not, or when the
    two composite forms disagree.
    """
