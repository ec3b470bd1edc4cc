"""The expression parser as it was before it lexed with one regex, kept to
test cli.parse_expr against.

A lexer that walks the source one character at a time into (kind, text,
position) triples, and a recursive descent that calls peek/eat_op per
token and finds every position as it goes.  Three changes from that
parser, all made in cli.parse_expr too: an int token is a run of isdecimal
characters (isdigit let '²' in, which int() then refused), an integer
literal longer than int() converts raises a ParseError at its position, and
an exponent may be negative ('^' '-' int), which Power takes on an eta base
or a nonzero scalar and refuses on any other.
"""

from __future__ import annotations

from fractions import Fraction

from qmodular.cli import _EISENSTEIN_NAMES, _MAX_DEPTH, _MAX_EXPONENT, _MAX_WEIGHT
from qmodular.errors import ParseError, QModularError
from qmodular.expr import (
    DeltaRef,
    EisensteinAtom,
    EtaAtom,
    FormExpr,
    GeneratorRef,
    HalfTwist,
    PhiAtom,
    Power,
    Product,
    Scalar,
    Sum,
    WpAtom,
    WptAtom,
    weight,
)
from qmodular.levels import _resolve_ref


def _tokenize(src: str) -> list:
    """Every (kind, text, position) token of src, in order, ending with
    ("eof", "", len(src)).  Kinds: "int" (a run of decimal digits), "name" (a
    letter, then letters and digits) and "op" (any other single character);
    whitespace separates tokens."""
    tokens = []
    pos, n = 0, len(src)
    while True:
        while pos < n and src[pos].isspace():
            pos += 1
        if pos >= n:
            tokens.append(("eof", "", n))
            return tokens
        ch = src[pos]
        j = pos + 1
        if ch.isdecimal():
            kind = "int"
            while j < n and src[j].isdecimal():
                j += 1
        elif ch.isalpha():
            kind = "name"
            while j < n and src[j].isalnum():
                j += 1
        else:
            kind = "op"
        tokens.append((kind, src[pos:j], pos))
        pos = j


class _Parser:
    """Recursive descent over the tokens of the source, lexed once.  A token
    is consumed (self.i += 1) only after peek has shown it is not the
    closing "eof", so the cursor never runs past the end."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        """(kind, text, position) of the next token without consuming it."""
        return self.tokens[self.i]

    def fail(self, message, pos=None):
        raise ParseError(message, self.peek()[2] if pos is None else pos)

    def eat_op(self, ch) -> bool:
        kind, text, _ = self.peek()
        if kind == "op" and text == ch:
            self.i += 1
            return True
        return False

    def expect_op(self, ch):
        if not self.eat_op(ch):
            self.fail(f"expected {ch!r}")

    def expect_int(self) -> int:
        kind, text, pos = self.peek()
        if kind != "int":
            self.fail("expected an integer")
        try:
            n = int(text)
        except ValueError:  # longer than int() converts
            self.fail(f"integer literal of {len(text)} digits is too long", pos)
        self.i += 1
        return n

    def expect_capped_int(self, what: str, cap: int) -> int:
        """An integer at most cap; a larger one fails at its position."""
        pos = self.peek()[2]
        n = self.expect_int()
        if n > cap:
            self.fail(f"{what} {n} exceeds the cap {cap}", pos)
        return n

    def parse(self) -> FormExpr:
        e = self.parse_sum()
        kind, text, pos = self.peek()
        if kind != "eof":
            self.fail(f"unexpected {text!r}", pos)
        return _as_node(e)

    def parse_sum(self) -> FormExpr | Fraction:
        terms = []
        sign = -1 if self.eat_op("-") else 1
        terms.append(self.parse_term(sign))
        while True:
            if self.eat_op("+"):
                terms.append(self.parse_term(1))
            elif self.eat_op("-"):
                terms.append(self.parse_term(-1))
            else:
                break
        if len(terms) == 1 and terms[0][1] is None:
            return terms[0][0]
        s = Sum((c, Scalar(1) if core is None else core) for c, core in terms)
        weight(s)  # raises WeightMismatch on mixed weights
        return s

    def parse_term(self, sign: int):
        """(coefficient, core) of one term; the core is None when every
        factor is a number."""
        coeff = Fraction(sign)
        cores = []
        while True:
            f = self.parse_factor()
            if isinstance(f, Fraction):
                coeff *= f
            else:
                cores.append(f)
            if not self.eat_op("*"):
                break
        return (coeff, Product(cores) if cores else None)

    def parse_factor(self) -> FormExpr | Fraction:
        base = self.parse_atom()
        if not self.eat_op("^"):
            return base
        pos = self.peek()[2]
        sign = -1 if self.eat_op("-") else 1
        n = sign * self.expect_int()
        if abs(n) > _MAX_EXPONENT:
            self.fail(f"exponent {n} exceeds the cap {_MAX_EXPONENT}", pos)
        if n == 0:
            return Fraction(1)
        if isinstance(base, Fraction) and n > 0:
            return base**n
        try:
            return Power(_as_node(base), n)
        except ValueError as exc:
            self.fail(str(exc), pos)

    def parse_rational(self) -> Fraction:
        sign = -1 if self.eat_op("-") else 1
        num = self.expect_int()
        if self.eat_op("/"):
            den = self.expect_int()
            if den == 0:
                self.fail("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def parse_torsion_argument(self, role: str) -> Fraction:
        """A torsion offset or phase: a rational with denominator 1 or 2."""
        pos = self.peek()[2]
        x = self.parse_rational()
        if x.denominator not in (1, 2):
            self.fail(f"{role} {x} must have denominator 1 or 2", pos)
        return x

    def parse_atom(self) -> FormExpr | Fraction:
        kind, text, pos = self.peek()
        if kind == "int":
            return self.parse_rational()
        if kind == "op" and text == "(":
            self.i += 1
            return self.parse_nested(pos)
        if kind != "name":
            self.fail(f"expected an expression, found {text!r}" if text else "unexpected end of input")
        self.i += 1
        if text in _EISENSTEIN_NAMES:
            return EisensteinAtom(_EISENSTEIN_NAMES[text], 1)
        if text == "twist":
            self.expect_op("(")
            return HalfTwist(_as_node(self.parse_nested(pos)))
        if text == "Delta":
            return self.build(pos, DeltaRef, *self.parse_args(1))
        if text == "E":
            w, n, s = self.parse_args(3)
            # resolved here, so a name with no registered generator fails
            # at every bound, not only at bounds past its index
            self.build(pos, _resolve_ref, n, w, s)
            return GeneratorRef(n, w, s)
        if text == "Eis":
            self.expect_op("(")
            k = self.expect_capped_int("weight", _MAX_WEIGHT)
            self.expect_op(",")
            m = self.expect_int()
            self.expect_op(")")
            return self.build(pos, EisensteinAtom, k, m)
        if text == "Phi":
            return self.build(pos, PhiAtom, *self.parse_args(1))
        if text == "PhiDiv":
            return self.build(pos, PhiAtom, *self.parse_args(1), "divisor")
        if text == "eta":
            (m,) = self.parse_args(1)
            return self.build(pos, EtaAtom, ((m, 1),))
        if text in ("wp", "wpt"):
            self.expect_op("(")
            a = self.parse_torsion_argument("offset")
            self.expect_op(",")
            b = self.parse_torsion_argument("phase")
            self.expect_op(",")
            m = self.expect_int()
            self.expect_op(")")
            return self.build(pos, WpAtom if text == "wp" else WptAtom, a, b, m)
        self.fail(f"unknown name {text!r}", pos)

    def build(self, pos, make, *args):
        """make(*args) for the atom named at pos.  Its arguments are checked
        there, so one outside the atom's domain fails at every bound, not
        only at bounds past the atom's valuation, and the error names pos."""
        try:
            return make(*args)
        except (QModularError, ValueError) as exc:
            self.fail(str(exc), pos)

    def parse_nested(self, pos) -> FormExpr | Fraction:
        """The expression after an opening '(' at pos, and its ')'."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(f"expression nested deeper than {_MAX_DEPTH} levels", pos)
        e = self.parse_sum()
        self.expect_op(")")
        self.depth -= 1
        return e

    def parse_args(self, count: int):
        self.expect_op("(")
        out = [self.expect_int()]
        for _ in range(count - 1):
            self.expect_op(",")
            out.append(self.expect_int())
        self.expect_op(")")
        return out


def _as_node(e) -> FormExpr:
    """A parsed value as a node: a number becomes a Scalar."""
    return Scalar(e) if isinstance(e, Fraction) else e


def parse_expr(src: str) -> FormExpr:
    """Parse the expression grammar into a FormExpr tree."""
    return _Parser(src).parse()
