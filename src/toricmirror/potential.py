"""Mirror Landau-Ginzburg superpotentials.

For a Fano fan the superpotential is the Hori-Vafa Laurent polynomial
W = sum_i exp(lambda_i) z^{v_i}: one monomial per ray, with the exponential
of the support constant expressed as a q-monomial. For a projectivized
canonical bundle over a Fano base, the fan is only semi-Fano and the
zero-section monomial acquires a correction factor

    C = 1 + sum over effective degree-0 classes alpha != 0 of
            GW(fiber + alpha) * q^alpha,

truncated at an explicit cutoff on generator multiplicities; the other
monomials are unchanged. The truncation is reported, never hidden, and no
convergence is claimed. The rays are distinct, so W has exactly one term
per ray and is built as such: no polynomial arithmetic is involved.

On such a fan every primitive relation but the degree-2 fiber has degree 0,
so the classes in C are the sums of the degree-0 relations; their
q-exponents, linear in the class, are carried along the sums, and each
class with its q-exponents is summed as one packed int.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

from .bundle import require_bundle
from .errors import NotFano, NotInBasisSpan
from .fan import Fan, Positivity, classify_positivity
from .gw import GWProvider
from .kahler import KahlerData
from .laurent import LaurentPoly, QPoly


def hori_vafa(fan: Fan, kahler: KahlerData) -> LaurentPoly:
    """Superpotential of a Fano fan: :func:`potential_with_correction`
    with C = 1."""
    if classify_positivity(fan) is not Positivity.FANO:
        raise NotFano(
            "fan is not Fano; use corrected_potential for projectivized "
            "canonical bundles"
        )
    return potential_with_correction(kahler, QPoly.constant(kahler.rank, 1))


def _degree_zero_sums(fan: Fan, cutoff: int, kahler: KahlerData) -> list:
    """The effective degree-0 classes of a bundle fan, zero included: the
    distinct sums of at most *cutoff* degree-0 relations, sorted, each
    followed by its q-exponents. These are linear and injective in the
    class, so they leave the set and the order of the classes as they are.

    Each such vector is held as one int, its digits in balanced base
    B = 2 * cutoff * M + 1 for the largest entry M of a relation in
    magnitude: no entry of a sum of at most *cutoff* relations exceeds
    cutoff * M, so vectors add as ints, and distinct vectors give distinct
    ints in the tuples' order. A sum of k relations found among the
    shorter sums spawns no sum not found already, so each level grows
    only the new ones."""
    require_bundle(fan)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    # relations are classes, so their q-exponents are read off the dual rows
    gens = [c + tuple(sum(map(mul, c, row)) for row in kahler.q_dual)
            for c in (rel.coords for rel in fan.primitive_relations if rel.degree == 0)]
    base = 2 * cutoff * max(abs(x) for g in gens for x in g) + 1
    powers = [base ** i for i in reversed(range(fan.nrays + kahler.rank))]
    packed = [(sum(map(mul, g, powers)), g) for g in gens]
    found = {0: (0,) * (fan.nrays + kahler.rank)}
    level = [0]
    for _ in range(cutoff):
        fresh = []
        for s in level:
            for p, g in packed:
                if s + p not in found:
                    found[s + p] = tuple(map(add, found[s], g))
                    fresh.append(s + p)
        level = fresh
    return [found[k] for k in sorted(found)]


class GWRecord(NamedTuple):
    """One resolved invariant: the class, its q-exponents, value, source."""

    alpha: tuple
    q_exponents: tuple
    value: Fraction
    source: str


def correction_details(fan: Fan, kahler: KahlerData, gw: GWProvider,
                       cutoff: int) -> tuple:
    """(C, records): the zero-section correction factor as a q-polynomial
    along with the provenance of every invariant that entered it. A zero
    value is recorded but adds no term; a nonzero one on a class with a
    negative q-exponent raises NotInBasisSpan, since C is a polynomial."""
    d = fan.nrays
    terms = {(0,) * kahler.rank: Fraction(1)}
    records = []
    for weighted in _degree_zero_sums(fan, cutoff, kahler):
        alpha, qexp = weighted[:d], weighted[d:]
        if not any(alpha):
            continue
        value, source = gw.lookup(alpha)
        records.append(GWRecord(alpha=alpha, q_exponents=qexp,
                                value=value, source=source))
        if value:
            if min(qexp) < 0:
                raise NotInBasisSpan(f"class {alpha} has invariant {value} but q-exponents "
                                     f"{qexp}: the q-basis puts a negative power of q into C")
            terms[qexp] = value
    return QPoly(kahler.rank, terms), records


def corrected_potential(fan: Fan, kahler: KahlerData, gw: GWProvider,
                        cutoff: int) -> LaurentPoly:
    """Superpotential of a projectivized canonical bundle, with the
    correction factor computed by :func:`correction_details`."""
    factor, _ = correction_details(fan, kahler, gw, cutoff)
    return potential_with_correction(kahler, factor)


def potential_with_correction(kahler: KahlerData, factor: QPoly) -> LaurentPoly:
    """W with one term per ray v_i: the q-monomial q^{e_i} of exp(lambda_i),
    and for the zero section v_0 that monomial times C. C's q-terms keep
    their order, the order in which ``numeric_terms`` sums them."""
    rays = kahler.fan.rays
    e0 = kahler.lambda_q_exponents(0)
    terms = {rays[0]: QPoly(kahler.rank, {tuple(map(add, e0, e)): c
                                          for e, c in factor.terms.items()})}
    for i in range(1, kahler.fan.nrays):
        terms[rays[i]] = QPoly(kahler.rank, {kahler.lambda_q_exponents(i): 1})
    return LaurentPoly(kahler.fan.dimension, kahler.rank, terms)
