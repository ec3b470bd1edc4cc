"""Command-line front end.

Subcommands: basis, dims, expand, reduce, verify, bench, dump-levels.
Documents go to stdout (or --out); diagnostics and timings go to stderr.
Exit codes: 0 on success, 1 when a verification fails (an identity
mismatch, a benchmark mismatch, a reduction that leaves a residual), 2 on
usage errors (malformed expressions, unknown names, precision too small, a
reduce expression whose weight is not --weight).

The expression grammar, parsed by recursive descent:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := rational | '(' expr ')'
            | 'Delta' '(' uint ')'
            | 'E' '(' uint ',' uint ',' uint ')'      -- weight, level, index
            | 'wp' '(' rat ',' rat ',' uint ')'
            | 'wpt' '(' rat ',' rat ',' uint ')'
            | 'eta' '(' uint ')'
            | 'Eis' '(' uint ',' uint ')'
            | 'E4' | 'E6' | 'E8' | 'E10' | 'E12'
            | 'Phi' '(' uint ')' | 'PhiDiv' '(' uint ')'
            | 'twist' '(' expr ')'

Scalar factors fold into sum coefficients, so print_expr round-trips
through this parser for any tree the grammar can produce.  Parentheses and
twist(...) may nest at most _MAX_DEPTH deep, '^' exponents are at most
_MAX_EXPONENT, Eis weights at most _MAX_WEIGHT, and --prec is at most
_MAX_PREC.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import identities
from .errors import (
    InvalidPrecision,
    NotInSpan,
    ParseError,
    QModularError,
    WeightMismatch,
)
from .eta import DELTA_TABLE
from .expr import (
    SHORT_EISENSTEIN_WEIGHTS,
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
    WpAtom,
    WptAtom,
    make_sum,
    print_expr,
    val_lower,
    weight,
)
from .levels import _resolve_ref, basis, dimension, expand_expr, reduce

# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_EISENSTEIN_NAMES = {f"E{k}": k for k in SHORT_EISENSTEIN_WEIGHTS}

# Nesting cap for '(' and 'twist(': printed registry, anchor and basis
# expressions nest at most 4 deep, and the recursive descent (and the
# recursive evaluators after it) stay far from the interpreter's recursion
# limit at this depth.
_MAX_DEPTH = 100

# Size caps: the '^' exponent and --prec size the coefficient lists, so one
# request could otherwise allocate without limit.  Both sit far above the
# largest sizes in use (the stress product's ^336 below q^2028).
_MAX_EXPONENT = 10_000
_MAX_PREC = 100_000

# Weight cap for Eis(k, m): the Bernoulli number B_k behind it comes from an
# O(k^2) recurrence on growing Fractions, and B_700 takes about a second
# (0.95 s on a 2-vCPU x86-64 host, CPython 3.11).  The package itself uses
# k <= 12.
_MAX_WEIGHT = 700


def _tokenize(src: str) -> list:
    """Every (kind, text, position) token of src, in order, ending with
    ("eof", "", len(src)).  Kinds: "int" (a run of digits), "name" (a
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
        if ch.isdigit():
            kind = "int"
            while j < n and src[j].isdigit():
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
        kind, text, _ = self.peek()
        if kind != "int":
            self.fail("expected an integer")
        self.i += 1
        return int(text)

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
        return make_sum((c, Scalar(1) if core is None else core) for c, core in terms)

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
        if not cores:
            return (coeff, None)
        core = cores[0] if len(cores) == 1 else Product(cores)
        return (coeff, core)

    def parse_factor(self) -> FormExpr | Fraction:
        base = self.parse_atom()
        if self.eat_op("^"):
            n = self.expect_capped_int("exponent", _MAX_EXPONENT)
            if isinstance(base, Fraction):
                return base**n
            return Power(base, n)
        return base

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


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _rat_pair(x):
    x = Fraction(x)
    return [str(x.numerator), str(x.denominator)]


def _emit(doc: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    e = parse_expr(args.expr)
    prec = args.prec if args.prec is not None else math.ceil(val_lower(e)) + 10
    ser = expand_expr(e, prec)
    if args.format == "json":
        doc = _json_doc(
            {
                "expr": print_expr(e),
                "weight": str(weight(e)),
                "precision": str(ser.bound),
                "terms": [
                    [str(Fraction(ser.val + i, ser.den)), str(c)]
                    for i, c in enumerate(ser.coeffs)
                    if c
                ],
            }
        )
    else:
        doc = ser.to_text() + "\n"
    return 0, doc


def _cmd_basis(args):
    d = dimension(args.level, args.weight)
    prec = args.prec if args.prec is not None else d + 5
    b = basis(args.level, args.weight, prec)
    if args.format == "json":
        return 0, _json_doc(b.to_json())
    lines = [
        f"M_{args.weight}(Gamma0({args.level})): dimension {d}, precision {prec}"
    ]
    for el in b.elements:
        lines.append(f"[{el.index}] {el.label} = {el.series.to_text()}")
    return 0, "\n".join(lines) + "\n"


def _cmd_dims(args):
    if args.weight is not None and args.level is None:
        raise QModularError("--weight without --level: pick a level")
    if args.level is not None and args.weight is not None:
        d = dimension(args.level, args.weight)
        if args.format == "json":
            return 0, _json_doc(
                {"level": args.level, "weight": args.weight, "dimension": d}
            )
        return 0, f"{d}\n"
    levels = [args.level] if args.level is not None else sorted(DELTA_TABLE)
    rows = [
        {
            "level": n,
            "dims": {str(w): dimension(n, w) for w in range(2, 17, 2)},
        }
        for n in levels
    ]
    if args.format == "json":
        return 0, _json_doc(rows if args.level is None else rows[0])
    lines = []
    for row in rows:
        cells = " ".join(str(row["dims"][str(w)]) for w in range(2, 17, 2))
        lines.append(f"N={row['level']}: {cells}")
    return 0, "\n".join(lines) + "\n"


def _cmd_reduce(args):
    e = parse_expr(args.expr)
    d = dimension(args.level, args.weight)
    # the written expression's weight decides, so 0 and E4-E4 are of weight
    # 0 and 4, not of every weight
    if weight(e) != args.weight:
        raise WeightMismatch(
            f"the expression has weight {weight(e)} but --weight is {args.weight}"
        )
    prec = args.prec if args.prec is not None else d + 6
    f = expand_expr(e, prec)
    coords = reduce(f, args.level, args.weight)
    if args.format == "json":
        doc = _json_doc(
            {
                "level": args.level,
                "weight": args.weight,
                "coordinates": [_rat_pair(c) for c in coords],
            }
        )
    else:
        doc = ", ".join(str(c) for c in coords) + "\n"
    return 0, doc


def _cmd_verify(args):
    if args.identity in (None, "all"):
        reports = identities.check_all(args.prec)
    else:
        reports = [identities.check(args.identity, args.prec)]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        doc = _json_doc([r.to_json() for r in reports])
    else:
        doc = "\n".join(r.describe() for r in reports) + "\n"
    return (0 if ok else 1), doc


# The weight-2018 stress product, expanded below q^2028, and ten of its
# leading coefficients.
# The stored values were cross-checked by two expansions at different
# working precisions and by an out-of-band reconstruction from scratch
# (pentagonal-number eta products, classical Weierstrass series, direct
# convolution of the three factor windows).
_BENCH_EXPR = Product(
    (
        GeneratorRef(10, 4, 2),
        Power(GeneratorRef(10, 2, 0), 335),
        Power(DeltaRef(10), 336),
    )
)
_BENCH_PREC = 2028
_BENCH_COEFFS = [
    1,
    -672,
    226131,
    -50806116,
    8574211132,
    -1159385836896,
    130843082948319,
    -12676560614152160,
    1076314597159060977,
    -81359425707034726336,
]


def _cmd_bench(args):
    t0 = time.perf_counter()
    ser = expand_expr(_BENCH_EXPR, _BENCH_PREC)
    elapsed = time.perf_counter() - t0
    print(f"bench: expanded below q^{_BENCH_PREC} in {elapsed:.3f}s", file=sys.stderr)
    v = int(ser.valuation)
    got = [ser.coefficient(v + i) for i in range(10)]
    ok = v == 2018 and got == _BENCH_COEFFS
    if args.format == "json":
        doc = _json_doc(
            {
                "expr": print_expr(_BENCH_EXPR),
                "precision": _BENCH_PREC,
                "status": "pass" if ok else "fail",
                "terms": [
                    [str(v + i), str(c)] for i, c in enumerate(got)
                ],
            }
        )
    else:
        lines = [f"{print_expr(_BENCH_EXPR)}", ser.to_text()]
        lines.append("verified" if ok else "MISMATCH against stored coefficients")
        doc = "\n".join(lines) + "\n"
    return (0 if ok else 1), doc


def _cmd_dump_levels(args):
    rows = [
        {
            "N": n,
            "rho": u.rho,
            "nu": u.nu,
            "eta": [[m, e] for m, e in u.quotient.factors],
        }
        for n, u in sorted(DELTA_TABLE.items())
    ]
    return 0, _json_doc(rows)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(p, *, fmt=True, out=True, prec=True):
    if prec:
        p.add_argument("--prec", type=int, default=None, help="expansion bound")
    if fmt:
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    if out:
        p.add_argument("--out", default=None, help="write the document to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmodular",
        description="exact q-expansions of modular forms on Gamma0(N), N <= 10",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="unitary upper-triangular basis of a space")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    _add_common(p)
    p.set_defaults(run=_cmd_basis)

    p = sub.add_parser("dims", help="dimension table")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    _add_common(p, prec=False)
    p.set_defaults(run=_cmd_dims)

    p = sub.add_parser("expand", help="q-expansion of an expression")
    p.add_argument("--expr", required=True)
    _add_common(p)
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("reduce", help="basis coordinates of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    _add_common(p)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("verify", help="check one or all registered identities")
    p.add_argument("--identity", default="all", help="identity name, or 'all'")
    _add_common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("bench", help="expand the stored stress product and verify it")
    _add_common(p, prec=False)
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("dump-levels", help="the level-unit registry as JSON")
    _add_common(p, fmt=False, prec=False)
    p.set_defaults(run=_cmd_dump_levels)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if (getattr(args, "prec", None) or 0) > _MAX_PREC:
            raise InvalidPrecision(f"--prec {args.prec} exceeds the cap {_MAX_PREC}")
        code, doc = args.run(args)
    except NotInSpan as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QModularError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(doc, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
