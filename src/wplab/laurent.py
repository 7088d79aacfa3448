"""Exact Laurent polynomials over Q in named generators.

The arithmetic of presentations: a value maps monomials to nonzero
Fractions, a monomial being a tuple of (name, nonzero exponent) pairs
sorted by name.  `parse` reads the value grammar of presentations:
integers, rationals and decimals (all exact, read by quadfield._rational),
generator names, + - * /, ** with an integer exponent, unary minus and
parentheses.  Division is by monomials only.  A monomial prints as sympy's
str(simplify(.)) prints it, so records keep their bytes, and every printed
value parses back to itself.  `_sympy_` lets a value combine with sympy
expressions; sympy is imported there only.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidConfiguration
from .quadfield import _rational

# |k| above which ** refuses a base other than a generator power (times
# +-1): a sum raised that far expands into too many terms to be a value
POWER_MAX = 64


def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for name, k in b:
        exps[name] = exps.get(name, 0) + k
    return tuple(sorted((name, k) for name, k in exps.items() if k))


def _power(name: str, k: int) -> str:
    return name if k == 1 else f"{name}**{k}"


def _monomial_str(mono: tuple, c: Fraction) -> str:
    """sympy's str of c times the monomial: the sign, the numerator's
    integer and positive powers, then the denominator's integer and
    negative powers, parenthesised when more than one."""
    if c == 1 and len(mono) == 1 and mono[0][1] < -1:
        return f"{mono[0][0]}**({mono[0][1]})"  # a bare Pow, printed as one
    sign, c = ("-", -c) if c < 0 else ("", c)
    num = [str(c.numerator)] * (c.numerator != 1) + \
        [_power(n, k) for n, k in mono if k > 0]
    den = [str(c.denominator)] * (c.denominator != 1) + \
        [_power(n, -k) for n, k in mono if k < 0]
    text = sign + ("*".join(num) or "1")
    if len(den) > 1:
        return f"{text}/({'*'.join(den)})"
    return f"{text}/{den[0]}" if den else text


def _coerce(x):
    if isinstance(x, Laurent):
        return x
    if isinstance(x, (int, Fraction)):
        return Laurent({(): x})
    return None


class Laurent:
    """A Laurent polynomial over Q: {monomial: nonzero Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mono: Fraction(c) for mono, c in (terms or {}).items()
                      if c}

    @classmethod
    def gen(cls, name: str) -> "Laurent":
        return cls({((name, 1),): 1})

    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self.terms == other.terms

    __hash__ = None

    def __neg__(self):
        return Laurent({mono: -c for mono, c in self.terms.items()})

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Laurent(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Laurent(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Laurent":
        """1/self for a nonzero monomial; ValueError for a sum."""
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if len(self.terms) > 1:
            raise ValueError("division by a sum")
        (mono, c), = self.terms.items()
        return Laurent({tuple((n, -k) for n, k in mono): 1 / c})

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** -k
        if len(self.terms) == 1:
            (mono, c), = self.terms.items()
            if k == 0:
                return Laurent({(): 1})
            return Laurent({tuple((n, e * k) for n, e in mono): c ** k})
        out = Laurent({(): 1})
        for _ in range(k):
            out = out * self
        return out

    def diff(self, name: str) -> "Laurent":
        """The partial derivative in the generator `name`."""
        terms = {}
        for mono, c in self.terms.items():
            k = dict(mono).get(name, 0)
            if k:
                terms[_mono_mul(mono, ((name, -1),))] = c * k
        return Laurent(terms)

    def exponent_terms(self, names) -> list:
        """(exponent tuple over `names`, coefficient) for each term, the
        exponents lex-descending: the order of sympy's Poly.terms()."""
        index = {name: i for i, name in enumerate(names)}
        out = []
        for mono, c in self.terms.items():
            exps = [0] * len(index)
            for name, k in mono:
                exps[index[name]] = k
            out.append((tuple(exps), c))
        return sorted(out, reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        text = " + ".join(_monomial_str(mono, c) for mono, c
                          in sorted(self.terms.items(), reverse=True))
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Laurent({str(self)!r})"

    def _sympy_(self):
        import sympy

        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(sympy.Symbol(n) ** k for n, k in mono))
            for mono, c in self.terms.items()))


# -- the value grammar ---------------------------------------------------------

_TOKEN = re.compile(r"(\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?)"
                    r"|([A-Za-z_]\w*)|(\*\*|\S)")


class _Parser:
    """Recursive descent over Python's precedence: + and - below * and /,
    below unary minus, below **, whose exponent may carry its own sign."""

    def __init__(self, text: str, names, field: str):
        self.text, self.names, self.field = text, frozenset(names), field
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def fail(self, reason: str):
        return InvalidConfiguration(
            f"{self.field}: cannot read {self.text!r}: {reason}")

    def peek(self) -> str:
        """The next token's operator ("" for a number, a name or the end)."""
        return self.tokens[self.pos][2] if self.pos < len(self.tokens) else ""

    def take(self):
        if self.pos == len(self.tokens):
            raise self.fail("unexpected end")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def whole(self) -> Laurent:
        value = self.expr()
        if self.pos < len(self.tokens):
            raise self.fail(f"unexpected {''.join(self.tokens[self.pos])!r}")
        return value

    def expr(self) -> Laurent:
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = self.take()[2]
            rhs = self.term()
            value = value + rhs if sign == "+" else value - rhs
        return value

    def term(self) -> Laurent:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[2]
            rhs = self.unary()
            try:
                value = value * rhs if op == "*" else value / rhs
            except (ZeroDivisionError, ValueError) as exc:
                raise self.fail(str(exc)) from None
        return value

    def unary(self) -> Laurent:
        if self.peek() in ("+", "-"):
            sign = self.take()[2]
            value = self.unary()
            return -value if sign == "-" else value
        return self.power()

    def power(self) -> Laurent:
        base = self.atom()
        if self.peek() != "**":
            return base
        self.take()
        exp = self.unary()
        k = exp.terms.get((), Fraction(0))
        if set(exp.terms) - {()} or k.denominator != 1:
            raise self.fail("an exponent must be an integer")
        k = int(k)
        simple = len(base.terms) == 1 and \
            all(abs(c) == 1 for c in base.terms.values())
        if abs(k) > POWER_MAX and not simple:
            raise self.fail(f"exponent {k} beyond {POWER_MAX}")
        try:
            return base ** k
        except (ZeroDivisionError, ValueError) as exc:
            raise self.fail(str(exc)) from None

    def atom(self) -> Laurent:
        number, name, op = self.take()
        if number:
            return Laurent({(): _rational(number, self.field)})
        if name:
            if name not in self.names:
                raise self.fail(f"{name!r} is not a generator")
            return Laurent.gen(name)
        if op == "(":
            value = self.expr()
            if self.take()[2] != ")":
                raise self.fail("unbalanced parentheses")
            return value
        raise self.fail(f"unexpected {op!r}")


def parse(text: str, names, field: str) -> Laurent:
    """The Laurent polynomial `text` in the generators `names`; text outside
    the grammar raises InvalidConfiguration naming `field`."""
    return _Parser(text, names, field).whole()
