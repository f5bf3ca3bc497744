"""Affine expressions and constraints over named rational symbols.

Grammar for the textual form used in system and relation files:

    expr ::= term (("+" | "-") term)*
    term ::= rational "*" name | rational | name
    rational ::= integer | integer "/" integer

Names are variable names, "t" for time, or the endpoint symbols
B_c, E_c, B_a, E_a.  Constraints are two expressions joined by one of
=, <=, >=, <, >.  Every other number of a file or a flag is read by
read_rational, which bounds its size before Fraction expands it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import cached_property

from .errors import ParseError
from .records import record
from .time_core import Q, exact

__all__ = ["LinExpr", "AffineConstraint", "parse_expr", "parse_constraint", "read_rational"]

ENDPOINT_SYMBOLS = ("B_c", "E_c", "B_a", "E_a")

# a constraint's op as a comparison of its left side with 0
COMPARE = {"=": operator.eq, "<=": operator.le, ">=": operator.ge,
           "<": operator.lt, ">": operator.gt}


@record(frozen=True)
class LinExpr:
    coefs: tuple  # sorted (symbol, Fraction) pairs, zero coefs dropped
    const: Fraction

    @staticmethod
    def make(coefs=None, const=0) -> "LinExpr":
        coefs = coefs or {}
        items = tuple(sorted((k, Q(v)) for k, v in coefs.items() if Q(v) != 0))
        return LinExpr(items, Q(const))

    @staticmethod
    def constant(c) -> "LinExpr":
        return LinExpr((), Q(c))

    @staticmethod
    def var(name) -> "LinExpr":
        return LinExpr.make({name: 1})

    def symbols(self) -> set:
        return {k for k, _ in self.coefs}

    def eval(self, env) -> Fraction:
        total = self.const
        for k, v in self.coefs:
            total += v * exact(env[k])
        return total

    @cached_property
    def int_terms(self) -> tuple:
        """((numerator, denominator) of const, ((symbol, numerator,
        denominator), ...) of coefs): the integers the window kernel and
        the schema step of generation read, taken once per expression."""
        c = self.const
        return (c.numerator, c.denominator), tuple(
            (k, v.numerator, v.denominator) for k, v in self.coefs)

    def subst(self, env) -> "LinExpr":
        """Replace symbols found in env (symbol -> LinExpr or rational)."""
        coefs: dict = {}
        const = self.const
        for k, v in self.coefs:
            if k not in env:
                coefs[k] = coefs.get(k, Q(0)) + v
                continue
            rep = env[k]
            if isinstance(rep, LinExpr):
                const += v * rep.const
                for k2, v2 in rep.coefs:
                    coefs[k2] = coefs.get(k2, Q(0)) + v * v2
            else:
                const += v * Q(rep)
        return LinExpr.make(coefs, const)

    def plus(self, other: "LinExpr") -> "LinExpr":
        coefs = dict(self.coefs)
        for k, v in other.coefs:
            coefs[k] = coefs.get(k, Q(0)) + v
        return LinExpr.make(coefs, self.const + other.const)

    def scaled(self, factor) -> "LinExpr":
        factor = Q(factor)
        return LinExpr.make({k: v * factor for k, v in self.coefs}, self.const * factor)

    def minus(self, other: "LinExpr") -> "LinExpr":
        return self.plus(other.scaled(-1))

    def __repr__(self):
        parts = [f"{v}*{k}" for k, v in self.coefs]
        parts.append(str(self.const))
        return " + ".join(parts)


@record(frozen=True)
class AffineConstraint:
    """lhs OP 0 with OP in =, <=, >=, <, >."""

    lhs: LinExpr
    op: str

    def __post_init__(self):
        if self.op not in COMPARE:
            raise ValueError(f"unknown comparison {self.op!r}")

    def symbols(self) -> set:
        return self.lhs.symbols()

    def holds(self, env) -> bool:
        return self.check_value(self.lhs.eval(env))

    def check_value(self, v) -> bool:
        return COMPARE[self.op](v, 0)

    def __repr__(self):
        return f"{self.lhs!r} {self.op} 0"


# a number's text may hold at most MAX_DIGITS digits and a decimal
# exponent of magnitude at most MAX_EXPONENT: Fraction would expand
# "1e-1000000" into a denominator of a million digits
MAX_DIGITS = 1000
MAX_EXPONENT = 1000


def read_rational(value, where: str):
    """The rational an integer, a Fraction or a string such as "1/3" or
    "1e-3" gives: the one reader of numbers in files, JSON decimals
    (cli._read) and command-line values (cli._q).  A float is refused:
    its value is the binary neighbour of the decimal written, so a file
    is read with JSON decimals parsed here, and 0.1 is 1/10.  A string
    past MAX_DIGITS or MAX_EXPONENT is refused before Fraction reads
    it, and so is one Fraction cannot read."""
    if isinstance(value, bool) or not isinstance(value, (int, Q, str)):
        raise ParseError(f"{where}: expected an integer, a Fraction or a string"
                         f" (a float is not exact), not {value!r}")
    if isinstance(value, str):
        shown = value if len(value) <= 40 else value[:40] + "..."
        if sum(map(str.isdigit, value)) > MAX_DIGITS:
            raise ParseError(f"{where}: {shown!r} has more than {MAX_DIGITS} digits")
        _, e, exponent = value.lower().partition("e")
        try:
            too_large = bool(e) and abs(int(exponent)) > MAX_EXPONENT
        except ValueError:
            too_large = False  # not an exponent; Fraction refuses the text
        if too_large:
            raise ParseError(f"{where}: {shown!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        return Q(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r}: {exc}") from exc


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coef>-?\d+(?:/\d+)?)\s*\*\s*(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>-?\d+(?:/\d+)?)"
    r"|(?P<bare>[A-Za-z_][A-Za-z0-9_]*))\s*$"
)


def parse_expr(text: str) -> LinExpr:
    # split into signed terms at top level
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"empty expression: {text!r}")
    chunks = re.split(r"(?<![*/+\-])\s*([+-])\s*", stripped)
    if chunks[0] == "":
        chunks = chunks[1:]  # leading sign
    terms = []
    sign = 1
    for chunk in chunks:
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        terms.append((sign, chunk))
        sign = 1
    coefs: dict = {}
    const = Q(0)
    for sign, chunk in terms:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"bad term {chunk!r} in {text!r}")
        if m.group("var"):
            coefs[m.group("var")] = coefs.get(m.group("var"), Q(0)) + sign * Q(m.group("coef"))
        elif m.group("bare"):
            coefs[m.group("bare")] = coefs.get(m.group("bare"), Q(0)) + sign
        else:
            const += sign * Q(m.group("num"))
    return LinExpr.make(coefs, const)


def parse_constraint(text: str) -> AffineConstraint:
    for op in ("<=", ">=", "=", "<", ">"):
        if op in text:
            left, right = text.split(op, 1)
            return AffineConstraint(parse_expr(left).minus(parse_expr(right)), op)
    raise ParseError(f"no comparison operator in {text!r}")
