"""Text format for polynomial systems.

::

    p = 7
    vars = x,y
    x - y^2
    y^3 - 2

Header: a prime modulus line and an ordered variable list; body: one
polynomial per line.  Operators +, -, *, ^ with precedence ^ > * > (+,-);
parentheses allowed; integer literals reduced modulo p; NO implicit
multiplication (write 2*x, not 2x).  A minus sign may open an expression or
a parenthesized group; it is not a general unary operator.  Errors carry
1-based line and column numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPrimeModulus, ParseError, UnknownVariable
from .field import PrimeField
from .poly import MAX_EXPONENT, Polynomial, to_string


@dataclass
class ParsedSystem:
    field: PrimeField
    varnames: list[str]
    polys: list[Polynomial]

    @property
    def n(self) -> int:
        return len(self.varnames)


@dataclass
class _Token:
    kind: str   # "int" | "name" | "op" | "end"
    text: str
    col: int


def _tokenize(line: str, lineno: int) -> list[_Token]:
    out = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdecimal():
            j = i
            while j < len(line) and line[j].isdecimal():
                j += 1
            out.append(_Token("int", line[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                j += 1
            out.append(_Token("name", line[i:j], col))
            i = j
        elif ch in "+-*^()":
            out.append(_Token("op", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    out.append(_Token("end", "", len(line) + 1))
    return out


class _ExprParser:
    """Recursive descent over one polynomial line.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' int]
    atom   := int | variable | '(' expr ')'
    """

    def __init__(self, tokens: list[_Token], lineno: int,
                 field: PrimeField, varindex: dict[str, int]):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno
        self.field = field
        self.varindex = varindex
        self.n = len(varindex)

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, what: str):
        shown = tok.text if tok.kind != "end" else "end of line"
        raise ParseError(f"expected {what}, found {shown!r}" if tok.kind != "end"
                         else f"expected {what} but the line ended",
                         self.lineno, tok.col)

    def parse(self) -> Polynomial:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", self.lineno, tok.col)
        return poly

    def expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.fail(tok, "an integer exponent")
            self.take()
            e = int(tok.text)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}",
                                 self.lineno, tok.col)
            base = base ** e
        return base

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return Polynomial.constant(self.field, self.n, int(tok.text))
        if tok.kind == "name":
            self.take()
            if tok.text not in self.varindex:
                raise UnknownVariable(f"unknown variable {tok.text!r}",
                                      self.lineno, tok.col)
            return Polynomial.variable(self.field, self.n, self.varindex[tok.text])
        if tok.kind == "op" and tok.text == "(":
            self.take()
            inner = self.expr()
            closer = self.peek()
            if not (closer.kind == "op" and closer.text == ")"):
                self.fail(closer, "')'")
            self.take()
            return inner
        self.fail(tok, "a number, a variable, or '('")


def _valid_name(name: str) -> bool:
    return (bool(name) and (name[0].isalpha() or name[0] == "_")
            and all(c.isalnum() or c == "_" for c in name))


def parse_system(text: str) -> ParsedSystem:
    """Full file: modulus line, variable line, then one polynomial per line.
    Blank lines are ignored.  Raises ParseError / UnknownVariable with
    positions, NonPrimeModulus for a composite or out-of-range modulus."""
    lines = [(no, raw) for no, raw in enumerate(text.splitlines(), 1) if raw.strip()]
    if not lines:
        raise ParseError("empty input", 1, 1)
    it = iter(lines)

    no, raw = next(it)
    parts = raw.split("=", 1)
    if len(parts) != 2 or parts[0].strip() != "p":
        raise ParseError("expected a 'p = <prime>' header line", no, 1)
    pstr = parts[1].strip()
    if not pstr.isdecimal():
        raise ParseError(f"modulus must be a positive integer, got {pstr!r}", no, 1)
    field = PrimeField(int(pstr))  # NonPrimeModulus on bad modulus

    try:
        no, raw = next(it)
    except StopIteration:
        raise ParseError("expected a 'vars = ...' header line", no + 1, 1) from None
    parts = raw.split("=", 1)
    if len(parts) != 2 or parts[0].strip() != "vars":
        raise ParseError("expected a 'vars = ...' header line", no, 1)
    varnames = [v.strip() for v in parts[1].split(",")]
    if not all(_valid_name(v) for v in varnames):
        raise ParseError("variable names must be identifiers", no, 1)
    if len(set(varnames)) != len(varnames):
        raise ParseError("duplicate variable name", no, 1)
    varindex = {v: i for i, v in enumerate(varnames)}

    polys = []
    for no, raw in it:
        tokens = _tokenize(raw, no)
        polys.append(_ExprParser(tokens, no, field, varindex).parse())
    if not polys:
        raise ParseError("no polynomials after the header", no, 1)
    return ParsedSystem(field, varnames, polys)


def format_system(system: ParsedSystem) -> str:
    """Inverse of parse_system up to whitespace and term order: the output
    re-parses to an identical polynomial list."""
    lines = [f"p = {system.field.p}", "vars = " + ",".join(system.varnames)]
    lines.extend(to_string(f, system.varnames) for f in system.polys)
    return "\n".join(lines) + "\n"
