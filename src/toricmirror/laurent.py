"""Sparse Laurent polynomials with exact q-polynomial coefficients.

A LaurentPoly maps z-exponent vectors (integers, any sign) to coefficients;
each coefficient is a polynomial in formal variables q1..qr with nonnegative
exponents and Fraction coefficients. Both are exact data built by the
constructors; there is no ring arithmetic. The package's one step to floats
is ``numeric_terms``, which compiles a polynomial at q = exp(-t) into
(z-exponent, float coefficient) pairs with typed refusals of overflow and
of a coefficient that evaluates to 0, by underflow or by cancellation.
``sum_terms`` sums the pairs at a point; ``evaluate``, ``gradient`` and
the solver are built on the two. Zero coefficients are never stored, and
serialization orders z-terms lexicographically and q-monomials by total
degree then lexicographically, so output is byte-stable.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import SchemaError, ZeroCoordinate

LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows above this


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"coefficients must be exact rationals, got {x!r}")


class QPoly:
    """Polynomial in q1..qr over Q with nonnegative integer exponents."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        self.nvars = operator.index(nvars)
        self.terms = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != self.nvars:
                raise ValueError(f"q-exponent {exps} needs length {self.nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"q-exponents must be nonnegative, got {exps}")
            coeff = _as_fraction(coeff)
            if coeff:
                self.terms[exps] = coeff

    @classmethod
    def constant(cls, nvars: int, value) -> "QPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def numeric(self, q_values: Sequence[float]) -> float:
        total = 0.0
        for exps, coeff in self.terms.items():
            v = float(coeff)
            for q, e in zip(q_values, exps):
                v *= q ** e
            total += v
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"q{j + 1}" if e == 1 else f"q{j + 1}^{e}"
                for j, e in enumerate(exps) if e
            )
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({self!s})"


class LaurentPoly:
    """Sparse Laurent polynomial in z1..zn with QPoly coefficients."""

    __slots__ = ("zvars", "qvars", "terms")

    def __init__(self, zvars: int, qvars: int, terms: Mapping | None = None):
        self.zvars = operator.index(zvars)
        self.qvars = operator.index(qvars)
        self.terms = {}
        for zexp, coeff in (terms or {}).items():
            zexp = tuple(map(operator.index, zexp))
            if len(zexp) != self.zvars:
                raise ValueError(f"z-exponent {zexp} needs length {self.zvars}")
            if not isinstance(coeff, QPoly) or coeff.nvars != self.qvars:
                raise ValueError(f"the coefficient of z-exponent {zexp} must be a QPoly "
                                 f"in {self.qvars} q-variables, got {coeff!r}")
            if coeff:
                self.terms[zexp] = coeff

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.zvars, self.qvars, self.terms) == (other.zvars, other.qvars, other.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def log_derivative(self, j: int) -> "LaurentPoly":
        """z_j * d/dz_j, computed exactly term by term."""
        out = {}
        for zexp, coeff in self.terms.items():
            if zexp[j]:
                out[zexp] = QPoly(self.qvars, {e: c * zexp[j] for e, c in coeff.terms.items()})
        return LaurentPoly(self.zvars, self.qvars, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for zexp, coeff in self.sorted_terms():
            num = "*".join(
                f"z{j + 1}" if e == 1 else f"z{j + 1}^{e}"
                for j, e in enumerate(zexp) if e > 0
            )
            den = "*".join(
                f"z{j + 1}" if e == -1 else f"z{j + 1}^{-e}"
                for j, e in enumerate(zexp) if e < 0
            )
            multi = len(coeff.terms) > 1
            cstr = str(coeff)
            if not num and not den:
                body = f"({cstr})" if multi else cstr
            else:
                if cstr == "1" and num:
                    body = num
                else:
                    cpart = f"({cstr})" if multi else cstr
                    body = f"{cpart}*{num}" if num else cpart
                if den:
                    den_str = den if "*" not in den and "^" not in den else f"({den})"
                    body = f"{body}/{den_str}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"


def _ipow(base: complex, exponent: int) -> complex:
    """Integer power by repeated squaring; negative exponents invert."""
    if exponent < 0:
        return 1.0 / _ipow(base, -exponent)
    result = 1.0 + 0.0j
    while exponent:
        if exponent & 1:
            result *= base
        base *= base
        exponent >>= 1
    return result


def numeric_terms(poly: LaurentPoly, t: Sequence[float]) -> list:
    """The (z-exponent, float coefficient) pairs of poly at q_j = exp(-t_j),
    in sorted z order. Raises SchemaError when a q overflows a float, or
    when a coefficient evaluates to 0, whether a q-monomial of it
    underflows or its terms cancel: the numeric polynomial would silently
    lose a term."""
    t = [float(v) for v in t]
    if len(t) != poly.qvars:
        raise ValueError(f"need {poly.qvars} t-values")
    for j, v in enumerate(t):
        if -v > LOG_FLOAT_MAX:
            raise SchemaError(
                f"q{j + 1} = exp(-t) overflows a float at these parameter values: "
                f"its q-area t is {v!r}")
    q = [math.exp(-v) for v in t]
    out = []
    for zexp, coeff in poly.sorted_terms():
        value = coeff.numeric(q)
        if value == 0.0:
            if any(math.prod(qj ** e for qj, e in zip(q, qexp)) == 0.0
                   for qexp in coeff.terms):
                raise SchemaError(
                    f"a q-monomial underflows a float at these parameter values: the "
                    f"coefficient {coeff} of the z-exponent {zexp} evaluates to 0")
            raise SchemaError(
                f"the coefficient {coeff} of the z-exponent {zexp} evaluates to 0 at "
                f"these parameter values: W would lose a term")
        out.append((zexp, value))
    return out


def sum_terms(terms: Sequence, z: Sequence[complex]) -> complex:
    """The sum of c * z^a over the pairs (a, c) of numeric_terms, in their
    order. Every z coordinate must be nonzero (ZeroCoordinate otherwise)."""
    z = [complex(v) for v in z]
    if any(v == 0 for v in z):
        raise ZeroCoordinate("Laurent polynomials are undefined on the axes")
    total = 0j
    for zexp, value in terms:
        term = complex(value)
        for base, e in zip(z, zexp):
            if e:
                term *= _ipow(base, e)
        total += term
    return total


def evaluate(poly: LaurentPoly, z: Sequence[complex], t: Sequence[float]) -> complex:
    """Numeric value at the point z with q_j = exp(-t_j)."""
    z = list(z)
    if len(z) != poly.zvars:
        raise ValueError(f"need {poly.zvars} z-coordinates")
    return sum_terms(numeric_terms(poly, t), z)


def gradient(poly: LaurentPoly, z: Sequence[complex], t: Sequence[float]) -> tuple:
    """Logarithmic gradient (z_1 dW/dz_1, ..., z_n dW/dz_n) at z: exact
    term-wise differentiation, then numeric evaluation."""
    z = list(z)
    return tuple(evaluate(poly.log_derivative(j), z, t) for j in range(poly.zvars))
