"""Exceptions raised by the q-expansion engine.

Everything derives from QModularError so callers can catch the whole
family at once; the CLI maps them to exit code 2 with a one-line message,
except NotInSpan, which exits 1 like a failed verify or bench.
"""


class QModularError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPrecision(QModularError):
    """A precision bound that cannot hold any information (or too small
    for the requested operation)."""


class NotInvertible(QModularError):
    """Inversion of a series whose leading coefficient is unknown
    (nothing below the precision bound) or absent."""


class UnsupportedTwist(QModularError):
    """q -> -q twist requested for an exponent denominator not dividing 2."""


class PoleAtArgument(QModularError):
    """A torsion-value expansion was requested at a pole of the function."""


class FractionalExponent(QModularError):
    """An eta quotient whose leading exponent does not live in (1/2)Z."""


class UnsupportedWeight(QModularError):
    """Odd weight, or a weight outside the supported range."""


class UnknownLevel(QModularError):
    """Level outside 1..10."""


class UnknownGenerator(QModularError):
    """No registered generator for the requested (level, weight, index)."""


class EmptySpace(QModularError):
    """Basis requested for a space of dimension zero."""


class InvalidRegistryEntry(QModularError):
    """A registered generator whose expansion is not unitary at its claimed
    valuation (leading coefficient != 1, wrong valuation, or half-integer
    exponents surviving in the combination)."""


class InsufficientPrecision(QModularError):
    """Not enough known coefficients to complete a basis or reduction."""


class NotInSpan(QModularError):
    """Reduction failed: the input is not in the span of the basis.

    Carries the first exponent at which the residual is nonzero.
    """

    def __init__(self, exponent):
        self.exponent = exponent
        super().__init__(f"not in span: first unmatched exponent {exponent}")


class WeightMismatch(QModularError):
    """Sum of expressions whose weights differ, or an expression reduced in
    a space of another weight."""


class UnknownIdentity(QModularError):
    """No identity registered under the requested name."""


class ParseError(QModularError):
    """Malformed expression text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
