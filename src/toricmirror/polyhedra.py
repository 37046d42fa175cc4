"""Exact polyhedral computations at desk scale.

All routines work over Fractions on systems of linear inequalities
``<a, x> >= b``. Sizes here are tiny (dimension <= 4, tens of constraints),
so subset enumeration and Fourier-Motzkin elimination are perfectly adequate
and keep everything exact and deterministic. Vertices come from the integer
Hermite normal form of each subset of normals and back-substitution of the
offsets; Fourier-Motzkin solves the max-min-slack program, whose exact
interior point feeds the solver's start moduli.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .lattice import hermite_normal_form

Ineq = tuple  # (coeffs tuple[Fraction], rhs Fraction) meaning coeffs . x >= rhs


def _normalize(coeffs, rhs) -> Ineq:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return tuple(coeffs), rhs
    scale = 1 / abs(lead)
    return tuple(c * scale for c in coeffs), rhs * scale


def _combine(p: Ineq, q: Ineq, j: int) -> Ineq:
    """Eliminate variable j from p (positive coeff) and q (negative coeff)."""
    cp, bp = p
    cq, bq = q
    wp, wq = -cq[j], cp[j]  # both positive
    coeffs = tuple(wp * a + wq * b for a, b in zip(cp, cq))
    return coeffs, wp * bp + wq * bq


def fourier_motzkin(ineqs: Sequence[Ineq], eliminate: Sequence[int]):
    """Eliminate the given variables in order.

    Returns (final_ineqs, records) where each record is (var, pos, neg): the
    constraints that bounded the variable below/above at its elimination
    step, kept for back-substitution.
    """
    cur = [_normalize(tuple(Fraction(c) for c in coeffs), Fraction(b))
           for coeffs, b in ineqs]
    records = []
    for j in eliminate:
        pos = [c for c in cur if c[0][j] > 0]
        neg = [c for c in cur if c[0][j] < 0]
        zero = [c for c in cur if c[0][j] == 0]
        records.append((j, pos, neg))
        combined = {_normalize(*_combine(p, q, j)) for p in pos for q in neg}
        cur = list(dict.fromkeys(zero)) + sorted(combined)
    return cur, records


def back_substitute(records, assigned: dict) -> dict:
    """Pick a feasible value for each eliminated variable, innermost first.

    Takes the midpoint of the feasible interval so strictly feasible systems
    stay strictly feasible.
    """
    values = dict(assigned)

    def residual(ineq, j):
        coeffs, rhs = ineq
        rest = sum(c * values[k] for k, c in enumerate(coeffs) if k != j and c != 0)
        return (rhs - rest) / coeffs[j]

    for j, pos, neg in reversed(records):
        lower = [residual(c, j) for c in pos]
        upper = [residual(c, j) for c in neg]
        if lower and upper:
            values[j] = (max(lower) + min(upper)) / 2
        elif lower:
            values[j] = max(lower) + 1
        elif upper:
            values[j] = min(upper) - 1
        else:
            values[j] = Fraction(0)
    return values


def max_min_slack(normals, offsets) -> tuple:
    """Maximize the least slack of {<v_i, x> >= lambda_i}.

    Returns (eps_max, point) where point attains slack eps_max/2 in every
    constraint (a strictly interior point when eps_max > 0), or
    (eps_max, None) when eps_max <= 0. Requires the polytope to be bounded.
    """
    n = len(normals[0])
    ineqs = []
    for v, lam in zip(normals, offsets):
        coeffs = tuple(Fraction(x) for x in v) + (Fraction(-1),)
        ineqs.append((coeffs, Fraction(lam)))
    final, records = fourier_motzkin(ineqs, list(range(n)))
    uppers = []
    for coeffs, rhs in final:
        c = coeffs[n]
        if c > 0:
            continue  # lower bound on eps; eps can always be pushed down
        if c < 0:
            uppers.append(rhs / c)
        elif rhs > 0:
            return Fraction(-1), None  # infeasible constants: empty for all eps
    if not uppers:
        raise ValueError("slack program is unbounded; polytope is unbounded")
    eps_max = min(uppers)
    if eps_max <= 0:
        return eps_max, None
    values = back_substitute(records, {n: eps_max / 2})
    point = tuple(values[j] for j in range(n))
    return eps_max, point


def polytope_vertices(normals, offsets) -> list:
    """All vertices of {x : <v_i, x> >= lambda_i} by active-set enumeration.

    Each n-subset of the integer normals is put into Hermite normal form,
    U @ rows = H; a singular H is skipped, and otherwise the candidate point
    solves H @ x = U @ offsets by back-substitution.
    """
    n = len(normals[0])
    d = len(normals)
    offs = [Fraction(b) for b in offsets]
    seen = set()
    out = []
    for subset in combinations(range(d), n):
        H, U = hermite_normal_form([normals[i] for i in subset])
        if H[-1][-1] == 0:
            continue
        rhs = [sum(u * offs[i] for u, i in zip(row, subset)) for row in U]
        x = [Fraction(0)] * n
        for k in reversed(range(n)):
            x[k] = (rhs[k] - sum(H[k][j] * x[j] for j in range(k + 1, n))) / H[k][k]
        point = tuple(x)
        if all(sum(a * p for a, p in zip(normals[i], point)) >= offs[i] for i in range(d)):
            if point not in seen:
                seen.add(point)
                out.append(point)
    return sorted(out)
