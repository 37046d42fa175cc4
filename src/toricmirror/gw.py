"""One-pointed genus-zero Gromov-Witten values for the correction factor.

The corrected superpotential consumes the closed invariants attached to
(fiber class + alpha) for effective classes alpha of anticanonical degree 0.
These are mathematical inputs, not something this package derives: values
come from (1) a built-in rule for the Hirzebruch surface F2, where the
invariants follow from the symplectomorphism with P1 x P1, or (2) a
user-supplied table bound to the fan by fingerprint, validated against that
fan and used with it only. The built-in rule applies by classification: a
smooth complete toric surface with 4 rays is a Hirzebruch surface F_a,
whose primitive relations have degrees 2 and 2 - |a| (Oda; Fulton,
"Introduction to Toric Varieties"), so the fan is F2 exactly when it is
2-dimensional, has 4 rays and has a degree-0 primitive relation. A class
covered by neither source raises UnknownInvariant: absence of data is never
silently treated as zero (opt in via ``assume_zero``), because vanishing has
to be proved for each geometry; it is not a safe default.
"""

from __future__ import annotations

import functools
import json
import operator
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import (
    BadChernDegree,
    DimensionMismatch,
    FingerprintMismatch,
    InconsistentTable,
    UnknownInvariant,
)
from .fan import Fan, chern_degree
from .kahler import KahlerData
from .lattice import lattice_coordinates

PROVENANCE_BUILTIN = "builtin"
PROVENANCE_TABLE = "table"
PROVENANCE_ASSUMED = "assumed-zero"
_ZERO = Fraction(0)  # immutable, so every zero-filled lookup shares it


def f2_one_point_rule(k: int) -> Fraction:
    """GW value for (fiber + k * base) on F2: 1 for k in {0, 1}, else 0.

    F2 is symplectomorphic to P1 x P1 (base |-> l1 - l2, fiber |-> l2), so
    the value equals the count of lines through a point in class
    k*l1 + (1-k)*l2, which vanishes unless both coefficients are 0 or 1.
    """
    if k < 0:
        raise ValueError("multiplicity must be nonnegative")
    return Fraction(1) if k in (0, 1) else Fraction(0)


def fan_fingerprint(fan: Fan) -> str:
    """Hash of the canonically sorted ray/cone data (ray order independent)."""
    import hashlib  # only table binding hashes; the other paths start without it

    order = sorted(range(fan.nrays), key=lambda i: fan.rays[i])
    position = {old: new for new, old in enumerate(order)}
    rays = [list(fan.rays[i]) for i in order]
    cones = sorted(sorted(position[i] for i in cone) for cone in fan.maximal_cones)
    payload = json.dumps(
        {"dimension": fan.dimension, "rays": rays, "maximal_cones": cones},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class GWTable(NamedTuple):
    """Validated table of invariants: the fan it was validated against, and
    the curve class each document key names, in that fan's ray coordinates."""

    fan: Fan
    by_class: dict  # curve class -> Fraction


def validate_table(fingerprint: str, basis, entries, fan: Fan) -> GWTable:
    """Check a parsed table against fan: fingerprint binding, basis classes
    that are curve classes of the fan and linearly independent
    (DependentGenerators otherwise), keys with one coordinate per basis class
    (DimensionMismatch otherwise), and that every key names a class of
    anticanonical degree 0."""
    expected = fan_fingerprint(fan)
    if fingerprint != expected:
        raise FingerprintMismatch(
            f"table is bound to fan {fingerprint[:12]}..., "
            f"current fan is {expected[:12]}..."
        )
    for b in basis:
        if not fan.is_homology_class(b):
            raise BadChernDegree(f"table basis vector {b} is not a curve class")
    lattice_coordinates(basis)  # DependentGenerators on a dependent basis
    by_class = {}
    for key, value in entries.items():
        if len(key) != len(basis):
            raise DimensionMismatch(f"table key {key} has {len(key)} coordinates; "
                                    f"the basis has {len(basis)} classes")
        cls = tuple(sum(c * b[i] for c, b in zip(key, basis)) for i in range(len(basis[0])))
        if chern_degree(cls) != 0:
            raise BadChernDegree(
                f"table key {key} names class {cls} of degree {chern_degree(cls)}; "
                f"only degree-0 classes are consumed"
            )
        by_class[cls] = Fraction(value)
    return GWTable(fan=fan, by_class=by_class)


class GWProvider:
    """Resolves invariant lookups: built-in rule, then table, then error."""

    def __init__(self, kahler: KahlerData, table: Optional[GWTable] = None,
                 assume_zero: bool = False):
        self.fan = kahler.fan
        self.table = table
        self.assume_zero = assume_zero
        if table is not None:
            if table.fan != self.fan:  # its keys name classes in that fan's rays
                raise FingerprintMismatch("the table was validated against another fan "
                                          "than the Kahler data's, or another ray order")
            self._check_table_consistency()

    @functools.cached_property
    def _f2_base_coordinates(self) -> Optional[Callable]:
        """Coordinates along the degree-0 primitive relation when the fan is
        F2 (2-D, 4 rays, a relation of degree 0), else None."""
        if self.fan.dimension != 2 or self.fan.nrays != 4:
            return None
        degree_zero = [r.coords for r in self.fan.primitive_relations if r.degree == 0]
        return lattice_coordinates(degree_zero) if degree_zero else None

    def _as_base_multiple(self, alpha) -> Optional[int]:
        base = self._f2_base_coordinates
        k = None if base is None else base(alpha)
        return k[0] if k is not None and k[0] >= 0 else None

    def _check_table_consistency(self):
        if self._f2_base_coordinates is None:
            return
        for cls, value in self.table.by_class.items():
            k = self._as_base_multiple(cls)
            if k is None:
                continue
            if value != f2_one_point_rule(k):
                raise InconsistentTable(
                    f"table value {value} for class {cls} contradicts the "
                    f"built-in F2 rule value {f2_one_point_rule(k)}"
                )

    def lookup(self, alpha) -> tuple:
        """(value, provenance) for GW(fiber + alpha); UnknownInvariant when no
        source covers the class."""
        alpha = tuple(map(operator.index, alpha))
        if chern_degree(alpha) != 0:
            raise BadChernDegree(
                f"class {alpha} has degree {chern_degree(alpha)}; the correction "
                f"factor only consumes degree-0 classes"
            )
        k = self._as_base_multiple(alpha)
        if k is not None:
            return f2_one_point_rule(k), PROVENANCE_BUILTIN
        if self.table is not None and alpha in self.table.by_class:
            return self.table.by_class[alpha], PROVENANCE_TABLE
        if self.assume_zero:
            return _ZERO, PROVENANCE_ASSUMED
        raise UnknownInvariant(
            f"no Gromov-Witten value available for class {alpha}; supply a table "
            f"or pass assume_zero to zero-fill"
        )

    def open_invariant(self, alpha) -> Fraction:
        """Open disk count for (zero-section disk class + alpha), reported via
        the open/closed equality; alpha = 0 is the basic disk count 1."""
        if not any(alpha):
            return Fraction(1)
        return self.lookup(alpha)[0]
