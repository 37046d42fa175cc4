"""The projectivized canonical bundle P(K_Y + O_Y) of a toric Fano base.

Given the fan of a Fano base Y with rays w_1..w_m, the total space X has
rays v_0 = e_n, v_i = w_i + e_n, v_{m+1} = -e_n, and every maximal cone of Y
doubles into one cone with v_0 and one with v_{m+1}. The ray order
(v_0, middles, v_{m+1}) is fixed so the distinguished disk classes keep
stable indices downstream. A P1-bundle over a smooth complete fan is
smooth and complete, so X is built with its dual bases, not validated.
Its primitive relations are read off Y's (Batyrev, Tohoku Math. J. 43,
1991): the fiber v_0 + v_{m+1} = 0 of degree 2, and for each relation
sum(w_i) = sum(m_j w_j) of Y, of degree d, the degree-0 relation
sum(v_i) = d v_0 + sum(m_j v_j).

The reverse direction (recognizing such a fan after an arbitrary GL(n, Z)
change of coordinates) matters because input documents need not use the
construction's coordinates. Recognition takes the grading functional u as
the sum of the dual basis of a maximal cone through v_0, which pairs to 1
with that cone's rays, checks <u, v_0> = 1 and <u, v_i> = 1 (then
<u, v_{m+1}> = -1 follows), and reads the base in the chart of the other
dual rows and u, where v_0, v_i and v_{m+1} are e_n, (w_i, 1) and -e_n.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .errors import InvalidFan, NotBundleShaped, NotFano
from .fan import Fan, Positivity, PrimitiveRelation, classify_positivity, validate_fan


def projectivize_canonical(fan_y: Fan) -> Fan:
    """Fan of P(K_Y + O_Y) over a Fano base Y. Over a cone of Y with dual
    rows d_i, the cone with v_0 has rows (-sum d_i, 1) for v_0 and (d_i, 0)
    for the lifted rays; the one with v_{m+1} has (d_i, 0), then
    (sum d_i, -1). Cones with v_0 sort first, each half in Y's order.
    The primitive relations are cached, lifted from Y's: the fiber's
    collection (0, m+1) is the first of size 2, and the shifted ones keep
    Y's order, so they come sorted as :attr:`Fan.primitive_collections`
    sorts them."""
    if classify_positivity(fan_y) is not Positivity.FANO:
        raise NotFano("the base of the canonical-bundle construction must be Fano")
    n = fan_y.dimension + 1
    m = fan_y.nrays
    zero = (0,) * (n - 1)
    rays = (zero + (1,),) + tuple(w + (1,) for w in fan_y.rays) + (zero + (-1,),)
    low, high = {}, {}
    for cone, dual in fan_y.dual_bases.items():
        lifted = tuple(i + 1 for i in cone)
        rows = tuple(d + (0,) for d in dual)
        total = tuple(map(sum, zip(*dual)))
        low[(0,) + lifted] = (tuple(-x for x in total) + (1,),) + rows
        high[lifted + (m + 1,)] = rows + (total + (-1,),)
    dual_bases = low | high
    fan_x = Fan(n, rays, tuple(dual_bases), dual_bases)
    rels = (PrimitiveRelation((0, m + 1), (), (), (1,) + (0,) * m + (1,), 2),) + tuple(
        PrimitiveRelation(tuple(i + 1 for i in r.collection), (0,) + tuple(j + 1 for j in r.focus),
                          (r.degree,) + r.multiplicities, (-r.degree,) + r.coords + (0,), 0)
        for r in fan_y.primitive_relations)
    fan_x.__dict__.update(primitive_relations=rels,
                          primitive_collections=tuple(r.collection for r in rels))
    return fan_x


def fiber_class(fan_x: Fan):
    """Curve class of the P1 fiber: the relation v_0 + v_last = 0."""
    first, last = fan_x.rays[0], fan_x.rays[-1]
    if any(a + b != 0 for a, b in zip(first, last)):
        raise NotBundleShaped("first and last rays are not opposite")
    coords = [0] * fan_x.nrays
    coords[0] = coords[-1] = 1
    return tuple(coords)


class BundleDecomposition(NamedTuple):
    """Recognized P(K_Y + O_Y) structure of a fan.

    ``chart`` is a unimodular matrix, by rows, that sends ray 0 to e_n,
    middle ray i to (w_i, 1) and the last ray to -e_n; its last row is the
    grading, value 1 on ray 0 and every middle ray. ``base`` is the fan of
    Y with rays w_i (middle ray i of the bundle fan is base ray i-1).
    """

    base: Fan
    chart: tuple


def decompose_bundle(fan_x: Fan) -> Optional[BundleDecomposition]:
    """Recognize a fan of the shape produced by :func:`projectivize_canonical`
    in arbitrary unimodular coordinates, or return None.

    Conventions: ray 0 is the zero section's ray, the last ray is its
    opposite. The base fan is read off the middle rays in the chart and is
    itself validated, which fails when a middle ray shares no cone with
    ray 0.
    """
    n = fan_x.dimension
    if fan_x.nrays < n + 2:
        return None
    if any(a + b != 0 for a, b in zip(fan_x.rays[0], fan_x.rays[-1])):
        return None
    # grading functional: value 1 on ray 0 and all middle rays. A cone
    # through ray 0 cannot hold the opposite ray, so the sum of its dual
    # basis is the only candidate; cones are sorted, so row 0 is ray 0's.
    dual = fan_x.dual_bases[next(c for c in fan_x.maximal_cones if 0 in c)]
    u = tuple(map(sum, zip(*dual)))
    if any(sum(a * b for a, b in zip(u, ray)) != 1 for ray in fan_x.rays[:-1]):
        return None
    base_rays = [tuple(sum(a * b for a, b in zip(row, ray)) for row in dual[1:])
                 for ray in fan_x.rays[1:-1]]
    base_cones = [tuple(sorted(i - 1 for i in cone if i != 0))
                  for cone in fan_x.maximal_cones if 0 in cone]
    try:
        base = validate_fan(n - 1, base_rays, base_cones)
    except InvalidFan:
        return None
    return BundleDecomposition(base=base, chart=dual[1:] + (u,))


@functools.lru_cache(maxsize=64)
def require_bundle(fan_x: Fan) -> BundleDecomposition:
    """Decompose or raise; additionally insists the base is Fano, which is
    the standing hypothesis for the corrected superpotential. Memoized on
    the immutable fan, so the base is rebuilt once per fan; a raised error
    is not cached and fires again on every call."""
    dec = decompose_bundle(fan_x)
    if dec is None:
        raise NotBundleShaped(
            "fan is not a projectivized canonical bundle in the expected ray order"
        )
    if classify_positivity(dec.base) is not Positivity.FANO:
        raise NotFano("recognized bundle structure, but the base fan is not Fano")
    return dec


def default_q_basis(fan_x: Fan) -> Optional[tuple]:
    """Preferred homology basis for a bundle fan: the degree-0 relation
    classes (the base curve classes) sorted canonically, then the fiber
    class. Returns None when these do not form a Z-basis; they are curve
    classes by construction, so only their count and span are checked."""
    try:
        fiber = fiber_class(fan_x)
    except NotBundleShaped:
        return None
    lifts = sorted(
        rel.coords for rel in fan_x.primitive_relations if rel.degree == 0
    )
    basis = tuple(lifts) + (fiber,)
    if len(basis) == fan_x.nrays - fan_x.dimension and fan_x.spans_homology(basis):
        return basis
    return None
