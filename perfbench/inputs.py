"""Seeded benchmark inputs built with the benchmark's own exact arithmetic.

Nothing here calls the library: base fans, the P(K_Y + O) construction,
GL(n, Z) charts, the cone-zero Kahler recipe and the Kahler-cone test are
written out independently, so the outputs of the code under test can be
checked against them.

The Kahler recipe: pick one maximal cone sigma of the bundle fan, put
lambda = 0 on its rays and lambda = -t_j on the j-th remaining ray. The
q-basis is the dual classes D_r, one per off-cone ray r: coefficient 1 on r,
0 on the other off-cone rays, and minus r's sigma-coordinates on the rays of
sigma. Then area(D_r) = t_j, exp(lambda_r) = q_j, and a class's q-exponents
are simply its entries on the off-cone rays.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

# --- base fans (rays, maximal cones) ---

_HEXAGON = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _cyclic_cones(k):
    return [tuple(sorted((i, (i + 1) % k))) for i in range(k)]


def _dp6_times_p1():
    rays = [w + (0,) for w in _HEXAGON] + [(0, 0, 1), (0, 0, -1)]
    cones = [c + (top,) for c in _cyclic_cones(6) for top in (6, 7)]
    return rays, cones


BASES = {
    "P1": ([(1,), (-1,)], [(0,), (1,)]),
    "P2": ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "P1xP1": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "F1": ([(1, 0), (0, 1), (-1, -1), (0, -1)], _cyclic_cones(4)),
    "dP6": (list(_HEXAGON), _cyclic_cones(6)),
    "P3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           list(combinations(range(4), 3))),
    "P1^3": ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
             [(a, b, c) for a, b, c in product((0, 1), (2, 3), (4, 5))]),
    "P1xdP6": _dp6_times_p1(),
}

# Not Fano: the canonical-bundle construction must refuse it.
F3 = ([(1, 0), (0, 1), (-1, -3), (0, -1)], _cyclic_cones(4))

# The paper's F2 chart and Kahler data (PAPER.md, README): q1 tracks the base
# class, q2 the fiber class.
F2_RAYS = [(0, -1), (1, 0), (-1, -2), (0, 1)]
F2_CONES = [(0, 1), (0, 2), (1, 3), (2, 3)]
F2_LAMBDAS = ["-t2", "0", "-t1-2*t2", "0"]
F2_Q_BASIS = [(-2, 1, 1, 0), (1, 0, 0, 1)]
F2_CORRECTION = {(0, 0): 1, (1, 0): 1}  # C = 1 + q1


def f2_offsets(t):
    return [-t[1], 0, -t[0] - 2 * t[1], 0]


# W = z1 + z2 + q1*q2^2/(z1*z2^2) + (q2 + q1*q2)/z2 as {z-exponent: {q-exponent: coeff}}
F2_CLOSED_FORM = {
    (1, 0): {(0, 0): 1},
    (0, 1): {(0, 0): 1},
    (-1, -2): {(1, 2): 1},
    (0, -1): {(0, 1): 1, (1, 1): 1},
}

# One-point invariants of P(K_P2 + O) for fiber + k * (degree-0 class),
# k = 1..4: the coefficients of 1 - 2q + 5q^2 - 32q^3 + 286q^4.
P2_TABLE = {1: -2, 2: 5, 3: -32, 4: 286}


# --- exact linear algebra of our own ---

def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def solve(mat, rhs):
    """Unique solution of a square system in Fractions, or None if singular."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_chart(rng: random.Random, n: int, bound: int = 2, moves: int = 12):
    """A matrix in GL(n, Z) with entries bounded by *bound*: random signed
    elementary row operations that keep the bound, then a signed permutation."""
    m = identity(n)
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        row = [a + s * b for a, b in zip(m[i], m[j])]
        if max(abs(x) for x in row) <= bound:
            m[i] = row
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[s * x for x in m[p]] for p, s in zip(perm, signs)]


def chart_rays(chart, rays):
    return [mat_vec(chart, r) for r in rays]


# --- the P(K_Y + O) construction ---

def bundle_of(base_rays, base_cones):
    """Rays e_n, (w, 1) per base ray, -e_n; every base cone doubled."""
    n = len(base_rays[0]) + 1
    m = len(base_rays)
    zero = (0,) * (n - 1)
    rays = [zero + (1,)] + [tuple(w) + (1,) for w in base_rays] + [zero + (-1,)]
    cones = []
    for cone in base_cones:
        lifted = tuple(i + 1 for i in cone)
        cones.append(tuple(sorted(lifted + (0,))))
        cones.append(tuple(sorted(lifted + (m + 1,))))
    return rays, sorted(cones)


def anticanonical_class(nbase):
    """The degree-0 class (-m, 1, ..., 1, 0) of a bundle whose m base rays sum
    to zero (P1, P2): the middle rays add up to m times the first ray."""
    return (-nbase,) + (1,) * nbase + (0,)


# --- Kahler recipe ---

class KahlerRecipe:
    """Cone-zero lambdas and the dual q-basis on a fan."""

    def __init__(self, rays, cones):
        self.rays = [tuple(r) for r in rays]
        n = len(self.rays[0])
        sigma = tuple(cones[0])
        self.off = [i for i in range(len(self.rays)) if i not in sigma]
        self.parameters = [f"t{j + 1}" for j in range(len(self.off))]
        self.lambdas = ["0"] * len(self.rays)
        for j, r in enumerate(self.off):
            self.lambdas[r] = f"-t{j + 1}"
        cols = [[self.rays[i][k] for i in sigma] for k in range(n)]
        self.q_basis = []
        for r in self.off:
            coords = solve(cols, self.rays[r])
            cls = [0] * len(self.rays)
            cls[r] = 1
            for i, c in zip(sigma, coords):
                if c.denominator != 1:
                    raise AssertionError("cone is not unimodular")
                cls[i] = -int(c)
            self.q_basis.append(tuple(cls))

    def q_exponents(self, cls):
        """q-exponents of a curve class: its entries on the off-cone rays."""
        return tuple(cls[r] for r in self.off)

    def lambda_exponents(self, i):
        return tuple(int(r == i) for r in self.off)

    def offsets(self, t):
        """Numeric support constants lambda_i at parameters t (Fractions)."""
        out = [Fraction(0)] * len(self.rays)
        for j, r in enumerate(self.off):
            out[r] = -t[j]
        return out


def in_kahler_cone(rays, cones, offsets) -> bool:
    """The moment polytope {<x, v_i> >= lambda_i} has one vertex per maximal
    cone, each strictly inside the other half-spaces: the normal fan is the
    fan, i.e. the parameters lie in the open Kahler cone. Exact."""
    vertices = set()
    for cone in cones:
        x = solve([list(rays[i]) for i in cone], [offsets[i] for i in cone])
        for j in range(len(rays)):
            if j not in cone and sum(a * b for a, b in zip(x, rays[j])) <= offsets[j]:
                return False
        vertices.add(x)
    return len(vertices) == len(cones)


def draw_parameters(rng: random.Random, rays, cones, offsets_of, names,
                    low=3, high=6, tries=10_000):
    """Each t_j uniform on a 1/100 grid in [low, high], redrawn until the
    point is inside the Kahler cone by :func:`in_kahler_cone`."""
    for _ in range(tries):
        t = [Fraction(rng.randint(100 * low, 100 * high), 100) for _ in names]
        if in_kahler_cone(rays, cones, offsets_of(t)):
            return dict(zip(names, t))
    raise RuntimeError("no Kahler-cone point found")


# --- documents ---

def fingerprint(rays, cones) -> str:
    """SHA-256 of the ray-order-independent fan data (table binding)."""
    order = sorted(range(len(rays)), key=lambda i: tuple(rays[i]))
    pos = {old: new for new, old in enumerate(order)}
    payload = json.dumps(
        {"dimension": len(rays[0]),
         "rays": [list(rays[i]) for i in order],
         "maximal_cones": sorted(sorted(pos[i] for i in c) for c in cones)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fan_doc(rays, cones, recipe=None):
    doc = {"dimension": len(rays[0]), "rays": [list(r) for r in rays],
           "maximal_cones": [list(c) for c in cones]}
    if recipe is not None:
        doc["kahler"] = {"parameters": list(recipe.parameters),
                         "lambdas": list(recipe.lambdas)}
        doc["q_basis"] = [list(b) for b in recipe.q_basis]
    return doc


def p2_table_doc(rays, cones, recipe):
    """Invariant table for P(K_P2 + O) in the recipe's dual q-basis."""
    key = recipe.q_exponents(anticanonical_class(3))
    return {
        "fan_fingerprint": fingerprint(rays, cones),
        "basis": [list(b) for b in recipe.q_basis],
        "entries": [{"class": [k * x for x in key], "value": str(v)}
                    for k, v in sorted(P2_TABLE.items())],
    }
