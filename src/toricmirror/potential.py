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
convergence is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .bundle import require_bundle
from .errors import NotFano
from .fan import (
    Fan,
    Positivity,
    chern_degree,
    classify_positivity,
    effective_classes_up_to,
)
from .gw import GWProvider
from .kahler import KahlerData
from .laurent import LaurentPoly, QPoly


def basic_monomial(kahler: KahlerData, i: int) -> LaurentPoly:
    """The one-disk term exp(lambda_i) z^{v_i} as an exact Laurent monomial."""
    qexp = kahler.lambda_q_exponents(i)
    coeff = QPoly.monomial(qexp, 1)
    return LaurentPoly.monomial(kahler.fan.rays[i], coeff)


def hori_vafa(fan: Fan, kahler: KahlerData) -> LaurentPoly:
    """Superpotential of a Fano fan: the sum of all basic monomials."""
    if classify_positivity(fan) is not Positivity.FANO:
        raise NotFano(
            "fan is not Fano; use corrected_potential for projectivized "
            "canonical bundles"
        )
    total = LaurentPoly.zero(fan.dimension, kahler.rank)
    for i in range(fan.nrays):
        total += basic_monomial(kahler, i)
    return total


def contributing_classes(fan: Fan, cutoff: int) -> list:
    """Disk classes that can carry nonzero counts on a bundle fan: the basic
    classes beta_1..beta_{m+1} plus beta_0 + alpha for effective degree-0
    alpha within the cutoff. All have Maslov index 2."""
    require_bundle(fan)
    d = fan.nrays
    out = []
    for i in range(1, d):
        beta = [0] * d
        beta[i] = 1
        out.append(tuple(beta))
    corrected = []
    for alpha in effective_classes_up_to(fan, cutoff):
        if chern_degree(alpha) != 0:
            continue
        beta = list(alpha)
        beta[0] += 1
        corrected.append(tuple(beta))
    out.extend(sorted(corrected))
    return out


@dataclass(frozen=True)
class GWRecord:
    """One resolved invariant: the class, its q-exponents, value, source."""

    alpha: tuple
    q_exponents: tuple
    value: Fraction
    source: str


def correction_details(fan: Fan, kahler: KahlerData, gw: GWProvider,
                       cutoff: int) -> tuple:
    """(C, records): the zero-section correction factor as a q-polynomial
    along with the provenance of every invariant that entered it."""
    require_bundle(fan)
    factor = QPoly.constant(kahler.rank, 1)
    records = []
    for alpha in effective_classes_up_to(fan, cutoff):
        if not any(alpha) or chern_degree(alpha) != 0:
            continue
        value, source = gw.lookup(alpha)
        qexp = kahler.q_weight(alpha)
        records.append(GWRecord(alpha=alpha, q_exponents=qexp,
                                value=value, source=source))
        if value:
            factor = factor + QPoly.monomial(qexp, value)
    return factor, records


def corrected_potential(fan: Fan, kahler: KahlerData, gw: GWProvider,
                        cutoff: int) -> LaurentPoly:
    """Superpotential of a projectivized canonical bundle, with the
    correction factor computed by :func:`correction_details`."""
    factor, _ = correction_details(fan, kahler, gw, cutoff)
    return potential_with_correction(kahler, factor)


def potential_with_correction(kahler: KahlerData, factor: QPoly) -> LaurentPoly:
    """C * (zero-section monomial) + sum of the other basic monomials."""
    total = basic_monomial(kahler, 0) * factor
    for i in range(1, kahler.fan.nrays):
        total += basic_monomial(kahler, i)
    return total
