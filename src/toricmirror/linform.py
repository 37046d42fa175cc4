"""Exact linear forms over named variables.

A LinForm is ``const + sum(coeff[name] * name)`` with Fraction coefficients.
They carry the symbolic Kahler parameters (t1, t2, ...) and symbolic polytope
coordinates through area computations, so identities like "this area equals
t1" can be asserted exactly instead of numerically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# one term of a linear form: [sign] (number ['*' name] | name), with
# whitespace around every token
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<number>\d+(?:\.\d+|/\d+)?)"
    r"(?:\s*\*\s*(?P<scaled>[A-Za-z_][A-Za-z_0-9]*))?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*))\s*"
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Exact value of the decimal literal, not of the binary float.
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class LinForm:
    """Immutable linear form with exact rational coefficients."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Scalar = 0, coeffs: Mapping[str, Scalar] | None = None):
        object.__setattr__(self, "const", _as_fraction(const))
        clean = {}
        for name, c in (coeffs or {}).items():
            c = _as_fraction(c)
            if c != 0:
                clean[str(name)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("LinForm is immutable")

    # -- constructors --

    @classmethod
    def variable(cls, name: str) -> "LinForm":
        return cls(0, {name: 1})

    @classmethod
    def coerce(cls, value) -> "LinForm":
        if isinstance(value, LinForm):
            return value
        return cls(_as_fraction(value))

    # -- structure --

    @property
    def variables(self) -> frozenset:
        return frozenset(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def coefficient(self, name: str) -> Fraction:
        return self.coeffs.get(name, Fraction(0))

    # -- arithmetic --

    def __add__(self, other) -> "LinForm":
        other = LinForm.coerce(other)
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return LinForm(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "LinForm":
        return LinForm(-self.const, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other) -> "LinForm":
        return self + (-LinForm.coerce(other))

    def __rsub__(self, other) -> "LinForm":
        return LinForm.coerce(other) + (-self)

    def __mul__(self, scalar) -> "LinForm":
        s = _as_fraction(scalar)
        return LinForm(self.const * s, {n: c * s for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LinForm, int, Fraction)):
            return NotImplemented
        other = LinForm.coerce(other)
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant form equals its Fraction, so it hashes as one
        if not self.coeffs:
            return hash(self.const)
        return hash((self.const, frozenset(self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.const) or bool(self.coeffs)

    # -- evaluation --

    def subs(self, values: Mapping[str, object]):
        """Substitute values for every variable (KeyError if one is missing);
        exact if all values are exact, a float if all are floats."""
        return sum((c * values[n] for n, c in self.coeffs.items()), self.const)

    # -- rendering --

    def __repr__(self) -> str:
        return f"LinForm({self!s})"

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            parts.append((sign, term))
        if self.const != 0 or not parts:
            sign = "-" if self.const < 0 else "+"
            parts.append((sign, str(abs(self.const))))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def to_json(self) -> dict:
        obj = {"constant": str(self.const)}
        if self.coeffs:
            obj["terms"] = {n: str(c) for n, c in sorted(self.coeffs.items())}
        return obj


def parse_linear_form(text, allowed_names: Iterable[str] | None = None) -> LinForm:
    """Parse expressions like ``-t1 - 2*t2 + 3/2`` into a LinForm.

    Grammar: ``[sign] term (sign term)*`` with ``term := number ['*' name] |
    name``, whitespace allowed around every token. Numbers are exact
    rationals (``3``, ``3/2`` or a decimal literal such as ``0.25``), read
    by ``Fraction``; a zero denominator is a ValueError. When
    *allowed_names* is given, other variable names are rejected.
    """
    if isinstance(text, (int, float, Fraction)):
        return LinForm(_as_fraction(text))
    if not isinstance(text, str):
        raise ValueError(f"cannot parse {text!r} as a linear form")
    allowed = set(allowed_names) if allowed_names is not None else None
    result = LinForm(0)
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and m["sign"] is None):
            raise ValueError(f"cannot parse linear form {text!r} at position {pos}")
        name = m["scaled"] or m["name"]
        if allowed is not None and name is not None and name not in allowed:
            raise ValueError(f"unknown parameter {name!r} in {text!r}")
        try:
            coeff = Fraction(m["number"] or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m["sign"] == "-":
            coeff = -coeff
        result += LinForm(coeff) if name is None else LinForm(0, {name: coeff})
        pos = m.end()
        if pos == len(text):
            return result
