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
    factor := atom ['^' ['-'] uint]     -- a negative exponent on eta only
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

One regular expression, run once by re.findall, lexes the source.  A token
is a whole call with integer arguments (E(w,N,s), Delta(N), Eis(k,m),
Phi(N), PhiDiv(N), eta(m)), a whole wp/wpt(a,b,m), '^' with its signed
exponent, an integer or p/q rational, a name, or any other single
character; whitespace separates tokens and may stand between any two
grammar symbols.  The descent indexes the token list and keeps each term's
coefficient as an int pair.  No source position is kept: one is found
only to raise a ParseError, by matching the tokens again with
re.finditer, and a malformed call is read again one integer, name or
character at a time, so that the error names the first bad unit.

The parser builds every node through the expr constructors, which are the
only canonicalizer (see the expr module docstring), so the parse of
print_expr(e) is e for every tree of one weight.  It folds number literals
and any factor to the power 0 into a term's coefficient itself, so that
they make no Scalar node.  Parentheses and twist(...) may nest at most
_MAX_DEPTH deep, '^' exponents are at most _MAX_EXPONENT in size, Eis
weights at most _MAX_WEIGHT, and --prec, or the default precision that
stands in for it, is at most _MAX_PREC.
"""

from __future__ import annotations

import argparse
import math
import re
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
    Sum,
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


# The lexer: one match per token, after the whitespace before it.  Tuple
# slots of re.findall: 0-1 a call with integer arguments (name, arguments),
# 2-3 wp/wpt and their three arguments, 4 the signed exponent of '^', 5-6 an
# integer and its optional '/' denominator, 7 a name, 8 any other single
# character.  Every call the grammar accepts is one token, so a call name
# read on its own begins a malformed call.
_ARG = r"-?\s*\d+(?:\s*/\s*\d+)?"
_TOKEN = (
    r"\s*(?:(E|Delta|Eis|Phi|PhiDiv|eta)\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)"
    rf"|(wpt?)\s*\(\s*({_ARG}\s*,\s*{_ARG}\s*,\s*\d+)\s*\)"
    r"|\^\s*(-?\s*\d+)|(\d+)(?:\s*/\s*(\d+))?|([^\W\d_][^\W_]*)|(\S))"
)
_EOF = ("",) * 9
# One integer, name or character per token: the units an error names.
_UNIT = r"\s*(\d+|[^\W\d_][^\W_]*|\S)"


def _generator(w, n, s):
    """E(w,N,s), resolved here, so a name with no registered generator
    fails at every bound, not only at bounds past its index."""
    _resolve_ref(n, w, s)
    return GeneratorRef(n, w, s)


# name -> (argument kinds, constructor).  Kinds: i an integer, w a weight
# (an integer at most _MAX_WEIGHT), o/p a torsion offset/phase.
_CALLS = {
    "E": ("iii", _generator),
    "Delta": ("i", DeltaRef),
    "Eis": ("wi", EisensteinAtom),
    "Phi": ("i", PhiAtom),
    "PhiDiv": ("i", lambda n: PhiAtom(n, "divisor")),
    "eta": ("i", lambda m: EtaAtom(((m, 1),))),
    "wp": ("opi", WpAtom),
    "wpt": ("opi", WptAtom),
}


class _Parser:
    """Recursive descent over the token tuples, lexed once by re.findall and
    ended by _EOF; each method takes a token index and returns the index
    after what it read.  Positions are found only to raise (position)."""

    def __init__(self, src: str):
        self.src = src
        self.toks = [*re.findall(_TOKEN, src), _EOF]
        self.depth = 0

    def position(self, i, group=0):
        """Source position of token i (of its group, if given); past the
        last token, the end of the source."""
        for k, m in enumerate(re.finditer(_TOKEN, self.src)):
            if k == i:
                return m.start(group) if group else m.end() - len(m[0].lstrip())
        return len(self.src)

    def fail(self, message, i, group=0):
        raise ParseError(message, self.position(i, group))

    def fail_unit(self, message, i):
        """Fail at token i, naming its first unit: message % repr(unit)."""
        m = re.compile(_UNIT).match(self.src, self.position(i))
        text = m[1] if m else ""
        self.fail(message % repr(text) if text else "unexpected end of input", i)

    def parse(self) -> FormExpr:
        e, i = self.sum(0)
        if self.toks[i] is not _EOF:
            self.fail_unit("unexpected %s", i)
        return _as_node(e)

    def sum(self, i):
        """The sum at token i: a node, or a Fraction when no term has a
        form factor.  Each term's coefficient is kept as an int pair and
        made a Fraction once."""
        toks = self.toks
        terms = []
        sign = 1
        if toks[i][8] == "-":
            sign = -1
            i += 1
        while True:
            num, den, cores = sign, 1, []
            while True:
                t = toks[i]
                i += 1
                f = None
                if t[5]:
                    p = int(t[5])
                    q = int(t[6]) if t[6] else 1
                    if not q:
                        self.fail("zero denominator", i)
                    if not t[6] and toks[i][8] == "/":
                        self.fail("expected an integer", i + 1)
                elif t[0]:
                    f = self.call(i - 1)
                else:
                    f, i = self.atom(i - 1)
                x = toks[i]
                if x[4]:
                    # int() takes the space around its digits, not after a '-'
                    n = -int(x[4][1:]) if x[4][0] == "-" else int(x[4])
                    if abs(n) > _MAX_EXPONENT:
                        self.fail(f"exponent {n} exceeds the cap {_MAX_EXPONENT}", i, 5)
                    if n < 0 and (f is None or type(f) is Fraction):
                        f = Scalar(Fraction(p, q) if f is None else f)  # Power refuses it
                    if n == 0:
                        f, p, q = None, 1, 1
                    elif f is None:
                        p, q = p**n, q**n
                    elif type(f) is Fraction:
                        f = f**n
                    else:
                        # Power folds an eta base and refuses any other base
                        # with a negative exponent
                        try:
                            f = Power(f, n)
                        except ValueError as exc:
                            self.fail(str(exc), i, 5)
                    i += 1
                    x = toks[i]
                elif x[8] == "^":
                    # past a '-' after the '^': the sign is part of the exponent
                    self.fail("expected an integer", i + 1 + (toks[i + 1][8] == "-"))
                if f is None:
                    num *= p
                    den *= q
                elif type(f) is Fraction:
                    num *= f.numerator
                    den *= f.denominator
                else:
                    cores.append(f)
                if x[8] != "*":
                    break
                i += 1
            terms.append((Fraction(num, den), cores))
            op = toks[i][8]
            if op != "+" and op != "-":
                break
            sign = 1 if op == "+" else -1
            i += 1
        if len(terms) == 1 and not terms[0][1]:
            return terms[0][0], i
        s = Sum((c, Product(cores) if cores else Scalar(1)) for c, cores in terms)
        weight(s)  # raises WeightMismatch on mixed weights
        return s, i

    def atom(self, i):
        """The atom at token i, which is not a number; sum reads the calls
        with integer arguments itself."""
        t = self.toks[i]
        if t[2] or t[7] in _CALLS:
            return self.call(i), i + 1
        if t[8] == "(":
            return self.nested(i, i + 1)
        name = t[7]
        if name in _EISENSTEIN_NAMES:
            return EisensteinAtom(_EISENSTEIN_NAMES[name], 1), i + 1
        if name == "twist":
            if self.toks[i + 1][8] != "(":
                self.fail("expected '('", i + 1)
            e, i = self.nested(i, i + 2)
            return HalfTwist(_as_node(e)), i
        if name:
            self.fail(f"unknown name {name!r}", i)
        self.fail_unit("expected an expression, found %s", i)

    def call(self, i) -> FormExpr:
        """The atom of the call at token i, its arguments read from the
        token.  When that fails (a call name on its own, a wrong count, a
        literal too long, a zero denominator, an argument out of range)
        reject reads them again and raises at the first that is wrong."""
        t = self.toks[i]
        kinds, make = _CALLS[t[0] or t[2] or t[7]]
        args = ()
        try:
            if t[0]:
                args = list(map(int, t[1].split(",")))
            elif t[2]:
                a, b, m = t[3].split(",")
                args = [Fraction("".join(a.split())), Fraction("".join(b.split())), int(m)]
        except (ValueError, ZeroDivisionError):  # too long, or p/0
            pass
        if (
            len(args) != len(kinds)
            or kinds[0] == "w" and args[0] > _MAX_WEIGHT
            or kinds[0] == "o" and max(args[0].denominator, args[1].denominator) > 2
        ):
            self.reject(i, kinds)
        # the arguments are checked when the atom is made, so one outside
        # its domain fails at every bound, not only past its valuation
        try:
            return make(*args)
        except (QModularError, ValueError) as exc:
            self.fail(str(exc), i)

    def reject(self, i, kinds) -> None:
        """Raise at the first argument of the call at token i that is
        malformed or out of range, read unit by unit as the grammar reads
        them and each checked when read.  call asks only about a call
        whose token it could not read, and each of those has a wrong
        argument or a wrong count, which fails at a '(', ',' or ')'."""
        units = [(m[1], m.start(1)) for m in re.compile(_UNIT).finditer(self.src, self.position(i))]
        units = [("", len(self.src)), *reversed(units[1:])]  # a stack, past the name

        def take(want):
            """The next unit, which must be want, or an integer for int."""
            text, pos = units.pop()
            if want is int and text[:1].isdecimal():
                return int(text)
            if text != want:
                raise ParseError("expected an integer" if want is int else f"expected {want!r}", pos)

        for k, kind in enumerate(kinds):
            take("," if k else "(")
            pos = units[-1][1]
            if kind in "iw":
                x = take(int)
                if kind == "w" and x > _MAX_WEIGHT:
                    raise ParseError(f"weight {x} exceeds the cap {_MAX_WEIGHT}", pos)
            else:
                minus = units[-1][0] == "-"
                if minus:
                    units.pop()
                x = Fraction(-take(int) if minus else take(int))
                if units[-1][0] == "/":
                    units.pop()
                    d = take(int)
                    if not d:
                        raise ParseError("zero denominator", units[-1][1])
                    x /= d
                if x.denominator > 2:
                    role = "offset" if kind == "o" else "phase"
                    raise ParseError(f"{role} {x} must have denominator 1 or 2", pos)
        take(")")

    def nested(self, at, i):
        """The expression at token i, inside the '(' or 'twist(' at token
        at, and its ')'."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail(f"expression nested deeper than {_MAX_DEPTH} levels", at)
        e, i = self.sum(i)
        if self.toks[i][8] != ")":
            self.fail("expected ')'", i)
        self.depth -= 1
        return e, i + 1


def _as_node(e) -> FormExpr:
    """A parsed value as a node: a number becomes a Scalar."""
    return Scalar(e) if type(e) is Fraction else e


def parse_expr(src: str) -> FormExpr:
    """Parse the expression grammar into a FormExpr tree."""
    try:
        return _Parser(src).parse()
    except ValueError:
        # only int() raises it here: the first literal it refuses is the
        # first in the source, since the descent reads left to right
        for m in re.finditer(_UNIT, src):
            if m[1][:1].isdecimal():
                try:
                    int(m[1])
                except ValueError:
                    msg = f"integer literal of {len(m[1])} digits is too long"
                    raise ParseError(msg, m.start(1)) from None
        raise


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
    import json  # only a --format json request pays for it

    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _prec(args, default=None):
    """The effective --prec: the one given, else the command's default; the
    cap applies to either, and its error says which it was.  main checks an
    explicit --prec first, basis and reduce their default."""
    prec = default if args.prec is None else args.prec
    if prec is not None and prec > _MAX_PREC:
        name = "the default precision" if args.prec is None else "--prec"
        raise InvalidPrecision(f"{name} {prec} exceeds the cap {_MAX_PREC}")
    return prec


def _cmd_expand(args):
    e = parse_expr(args.expr)
    # the default asks for ten terms past the valuation, however high that
    # lies, so it is not capped
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
    prec = _prec(args, d + 5)
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
    prec = _prec(args, d + 6)
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
        # an explicit --prec past the cap fails before any other input check
        if hasattr(args, "prec"):
            _prec(args)
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
