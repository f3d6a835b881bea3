"""Polynomial expression parsing and canonical printing.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | 'x' ('^' uint)? | '(' expr ')' ('^' uint)? | '-' factor
    rational := uint ('/' uint)?

Signs reach numbers through the '-' factor production, so "-3/4*x" means
(-(3/4)) * x, and "-(x+1)^2" means -((x+1)^2).  An exponent above
MAX_DEGREE, or a power or product of degree above MAX_DEGREE, is a syntax
error at its exponent or '*' token, checked before anything is expanded.

Degree alone does not bound a power of a constant, so the powers of
parenthesized expressions in one input share a budget of MAX_POWER_BITS.
With D the lcm of the denominators of p and H the largest |D*c| over its
coefficients, size(p) = bits(D) + bits(H) bounds every numerator and
denominator of p, and size(p^e) <= e * (size(p) + bits(deg p + 1)), since
D^e clears the denominators of p^e and ((deg p + 1) * H)^e bounds the
cleared coefficients.  Each power is charged that bound at its exponent
token before it is expanded, and the input is a syntax error there once the
charges pass the budget: '((3/7)^64)^64' stops at its second exponent.  Sums
and products add sizes, so outside the powers coefficients grow only with
the length of the input.  No input expands into a huge polynomial.

format_poly is the canonical inverse: parse_poly(format_poly(p)) returns p
for every polynomial of degree at most MAX_DEGREE.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EmptyInput, PolySyntaxError
from .polynomials import UPoly

_SYMBOLS = "+-*/^()x"
MAX_DEGREE = 64
MAX_POWER_BITS = 8192


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, lexeme, position); kind is "num" or the symbol itself
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolySyntaxError(i, "digit, 'x', operator, or parenthesis")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.power_bits = 0  # the size bounds charged by '(' expr ')' '^' uint

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected: str):
        tok = self._peek()
        at = tok[2] if tok is not None else len(self.text)
        raise PolySyntaxError(at, expected)

    def _accept(self, kind: str) -> tuple[str, str, int] | None:
        tok = self._peek()
        if tok is not None and tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def _expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        tok = self._accept(kind)
        if tok is None:
            self._fail(expected)
        return tok

    def parse(self) -> UPoly:
        if not self.tokens:
            raise EmptyInput("empty polynomial expression")
        result = self.expr()
        if self._peek() is not None:
            self._fail("end of input")
        return result

    def expr(self) -> UPoly:
        acc = self.term()
        while True:
            if self._accept("+"):
                acc = acc + self.term()
            elif self._accept("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> UPoly:
        acc = self.factor()
        while (star := self._accept("*")) is not None:
            rhs = self.factor()
            if acc.degree + rhs.degree > MAX_DEGREE:
                raise PolySyntaxError(
                    star[2], f"product of degree at most {MAX_DEGREE}"
                )
            acc = acc * rhs
        return acc

    def factor(self) -> UPoly:
        if self._accept("-"):
            return -self.factor()
        tok = self._accept("num")
        if tok is not None:
            num = int(tok[1])
            if self._accept("/"):
                den_tok = self._expect("num", "denominator")
                den = int(den_tok[1])
                if den == 0:
                    raise PolySyntaxError(den_tok[2], "nonzero denominator")
                return UPoly([Fraction(num, den)])
            return UPoly([num])
        if self._accept("x"):
            return UPoly.monomial(self._exponent())
        if self._accept("("):
            inner = self.expr()
            self._expect(")", "closing parenthesis")
            return inner ** self._exponent(inner)
        self._fail("rational, 'x', '(', or '-'")

    def _exponent(self, base: UPoly | None = None) -> int:
        # the uint after an optional '^', else 1; x^e needs e <= MAX_DEGREE,
        # a parenthesized base also a degree of base^e at most MAX_DEGREE and
        # room in the budget for the size bound of base^e
        if not self._accept("^"):
            return 1
        tok = self._expect("num", "exponent")
        e = int(tok[1])
        if e > MAX_DEGREE:
            raise PolySyntaxError(tok[2], f"exponent at most {MAX_DEGREE}")
        if base is not None:
            if base.degree * e > MAX_DEGREE:
                raise PolySyntaxError(tok[2], f"power of degree at most {MAX_DEGREE}")
            self.power_bits += e * (_size(base) + (base.degree + 1).bit_length())
            if self.power_bits > MAX_POWER_BITS:
                raise PolySyntaxError(
                    tok[2], f"powers of at most {MAX_POWER_BITS} coefficient bits in all"
                )
        return e


def _size(p: UPoly) -> int:
    # bits(D) + bits(H): D the lcm of the denominators, H the largest |D*c|
    D = math.lcm(*(c.denominator for c in p.coeffs))
    H = max((abs(c.numerator) * (D // c.denominator) for c in p.coeffs), default=0)
    return D.bit_length() + H.bit_length()


def parse_poly(text: str) -> UPoly:
    """Parse a polynomial expression in x with exact rational coefficients."""
    if not text.strip():
        raise EmptyInput("empty polynomial expression")
    return _Parser(text).parse()


def _rat_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _terms(coeffs, var: str, order) -> str:
    parts = []
    for d in order:
        c = coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = _rat_str(mag)
        else:
            power = var if d == 1 else f"{var}^{d}"
            body = power if mag == 1 else f"{_rat_str(mag)}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts) if parts else "0"


def format_poly(p: UPoly) -> str:
    """Canonical printer, highest degree first; round-trips through parse_poly."""
    if p.is_zero:
        return "0"
    return _terms(p.coeffs, "x", range(p.degree, -1, -1))


def format_elem(coeffs) -> str:
    """Power-basis element as a polynomial in θ, constant term first."""
    return _terms([Fraction(c) for c in coeffs], "θ", range(len(coeffs)))
