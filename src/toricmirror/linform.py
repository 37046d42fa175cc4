"""Exact linear forms over named variables, as parsed records.

A LinForm is ``const + sum(coeff[name] * name)`` with Fraction coefficients:
the support constants of a fan document, in its Kahler parameters (t1, t2,
...), and the q-areas of a potential document. It is a record, not a ring:
it is built by its constructor or by ``parse_linear_form``, compared,
hashed, evaluated by ``subs`` and rendered, and has no arithmetic. Every
Kahler computation runs on ``KahlerData``'s integer rows instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# one term of a linear form: [sign] (number ['*' name] | name), with
# whitespace around every token; digits and whitespace are ASCII ones
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<number>\d+(?:\.\d+|/\d+)?)"
    r"(?:\s*\*\s*(?P<scaled>[A-Za-z_][A-Za-z_0-9]*))?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*))\s*",
    re.ASCII,
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

    @property
    def variables(self) -> frozenset:
        return frozenset(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinForm):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.const, frozenset(self.coeffs.items())))

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
    rationals (``3``, ``3/2`` or a decimal literal such as ``0.25``): an
    integer is read by ``int``, the others by ``Fraction``, and a zero
    denominator is a ValueError. When
    *allowed_names* is given, other variable names are rejected.
    """
    if isinstance(text, (int, float, Fraction)):
        return LinForm(_as_fraction(text))
    if not isinstance(text, str):
        raise ValueError(f"cannot parse {text!r} as a linear form")
    allowed = set(allowed_names) if allowed_names is not None else None
    # a name whose sum reaches 0 leaves the dict and, if it returns, goes to
    # the end; subs sums floats in this order, so it is part of the result.
    # Ints are summed as ints until a Fraction joins them; LinForm makes
    # every sum a Fraction
    const, coeffs = 0, {}
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and m["sign"] is None):
            raise ValueError(f"cannot parse linear form {text!r} at position {pos}")
        name = m["scaled"] or m["name"]
        if allowed is not None and name is not None and name not in allowed:
            raise ValueError(f"unknown parameter {name!r} in {text!r}")
        number = m["number"] or "1"
        try:
            coeff = Fraction(number) if "/" in number or "." in number else int(number)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m["sign"] == "-":
            coeff = -coeff
        if name is None:
            const += coeff
        elif total := coeffs.get(name, 0) + coeff:
            coeffs[name] = total
        else:
            coeffs.pop(name, None)
        pos = m.end()
        if pos == len(text):
            return LinForm(const, coeffs)
