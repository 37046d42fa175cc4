"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision Python ints and Fractions; no
floating point. Kernels are computed through the Hermite normal form of the
transpose, which yields a saturated lattice basis directly (the basis rows
come from a unimodular transform), and saturation is re-verified through
elementary divisors as a guard against implementation bugs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .errors import (
    DependentGenerators,
    DimensionMismatch,
    NotFullRank,
    ZeroVector,
)

IntVector = tuple
IntMatrix = list  # list of rows


def xgcd(a: int, b: int) -> tuple:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0.

    When a divides b the coefficients are (sign(a), 0): elimination steps
    built on top of this never rotate the pivot row away, which is what
    guarantees termination of the normal-form reductions.
    """
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_rect(mat) -> tuple:
    rows = [list(r) for r in mat]
    if not rows:
        return [], 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    return rows, ncols


def hermite_normal_form(mat) -> tuple:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U @ mat == H, where H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot). Zero rows of H sit at the bottom.
    """
    A, ncols = _check_rect(mat)
    m = len(A)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if A[i][c] == 0:
                continue
            a, b = A[r][c], A[i][c]
            g, s, t = xgcd(a, b)
            p, q = a // g, b // g
            A[r], A[i] = (
                [s * x + t * y for x, y in zip(A[r], A[i])],
                [-q * x + p * y for x, y in zip(A[r], A[i])],
            )
            U[r], U[i] = (
                [s * x + t * y for x, y in zip(U[r], U[i])],
                [-q * x + p * y for x, y in zip(U[r], U[i])],
            )
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return A, U


def elementary_divisors(mat) -> list:
    """Nonzero diagonal of the Smith normal form, as positive ints."""
    A, ncols = _check_rect(mat)
    m = len(A)
    divisors = []
    t = 0
    while t < min(m, ncols):
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, m):
                if A[i][t] == 0:
                    continue
                a, b = A[t][t], A[i][t]
                g, s, u = xgcd(a, b)
                p, q = a // g, b // g
                A[t], A[i] = (
                    [s * x + u * y for x, y in zip(A[t], A[i])],
                    [-q * x + p * y for x, y in zip(A[t], A[i])],
                )
            row_was_clear = True
            for j in range(t + 1, ncols):
                if A[t][j] == 0:
                    continue
                row_was_clear = False
                a, b = A[t][t], A[t][j]
                g, s, u = xgcd(a, b)
                p, q = a // g, b // g
                for row in A:
                    row[t], row[j] = s * row[t] + u * row[j], -q * row[t] + p * row[j]
            if row_was_clear and all(A[i][t] == 0 for i in range(t + 1, m)):
                # enforce divisibility of the remaining block by the pivot
                offender = None
                piv = A[t][t]
                for i in range(t + 1, m):
                    for j in range(t + 1, ncols):
                        if A[i][j] % piv != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                A[t] = [x + y for x, y in zip(A[t], A[offender])]
        divisors.append(abs(A[t][t]))
        t += 1
    return divisors


# --- exact rational elimination helpers ---

def rref(mat) -> tuple:
    """Reduced row echelon form over Fractions. Returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in r] for r in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def solve_unique(mat, rhs) -> Optional[tuple]:
    """Solve mat @ x = rhs when the columns are independent.

    Returns the unique solution as Fractions, or None when the system is
    inconsistent. Raises DependentGenerators when columns are dependent.
    """
    rows = [list(r) + [v] for r, v in zip(mat, rhs)]
    if len(rows) != len(rhs):
        raise ValueError("shape mismatch")
    ncols = len(mat[0]) if mat and len(mat[0]) else 0
    red, pivots = rref(rows)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    if len(pivots) < ncols:
        raise DependentGenerators("columns are linearly dependent")
    sol = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        sol[c] = row[-1]
    return tuple(sol)


# --- public lattice operations ---

def is_primitive(v: Sequence[int]) -> bool:
    """True when gcd of the entries is 1. Raises ZeroVector on the zero vector."""
    entries = [int(x) for x in v]
    if not any(entries):
        raise ZeroVector("the zero vector has no primitive direction")
    return math.gcd(*(abs(x) for x in entries)) == 1


def kernel_basis(mat) -> list:
    """Z-basis of {a : mat @ a = 0}, saturated and canonically ordered.

    The rows of *mat* must be independent over Q (NotFullRank otherwise).
    The returned vectors are rows of a unimodular transform, hence they span
    the full kernel lattice; the basis is then put into Hermite normal form
    so the output is deterministic.
    """
    rows, ncols = _check_rect(mat)
    m = len(rows)
    transpose = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    H, U = hermite_normal_form(transpose)
    rk = sum(1 for h in H if any(h))
    if rk < m:
        raise NotFullRank(f"matrix rows are dependent (rank {rk} < {m})")
    kernel_rows = U[rk:]
    if not kernel_rows:
        return []
    canon, _ = hermite_normal_form(kernel_rows)
    basis = [tuple(r) for r in canon if any(r)]
    # post-conditions: exact kernel membership, expected rank, saturation
    assert len(basis) == ncols - rk
    for b in basis:
        assert all(sum(r[j] * b[j] for j in range(ncols)) == 0 for r in rows)
        assert is_primitive(b)
    assert elementary_divisors([list(b) for b in basis]) == [1] * len(basis)
    return basis


def cone_coefficients(point, generators) -> Optional[tuple]:
    """Coefficients c >= 0 with point = sum(c_i * generators_i), if they exist.

    The generators must be linearly independent (DependentGenerators
    otherwise). Returns None when the point is outside the cone they span.
    """
    gens = [list(g) for g in generators]
    pt = [Fraction(x) for x in point]
    if not gens:
        return () if all(x == 0 for x in pt) else None
    n = len(pt)
    if any(len(g) != n for g in gens):
        raise DimensionMismatch("generator length differs from point length")
    if rank(gens) < len(gens):
        raise DependentGenerators("cone generators are linearly dependent")
    columns = [[gens[k][i] for k in range(len(gens))] for i in range(n)]
    sol = solve_unique(columns, pt)
    if sol is None:
        return None
    if any(c < 0 for c in sol):
        return None
    assert all(
        sum(sol[k] * gens[k][i] for k in range(len(gens))) == pt[i] for i in range(n)
    )
    return sol


def matrix_det(mat) -> Fraction:
    """Exact determinant by fraction-free-ish elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def invert_unimodular(mat) -> list:
    """Integer inverse of a matrix with determinant +-1."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise NotFullRank("matrix is singular")
    inv = []
    for row in red:
        out = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out.append(int(x))
        inv.append(out)
    return inv


_SEARCH_MAX_DIM = 4
_SEARCH_MAX_RAYS = 16


def unimodular_map_search(rays_a, cones_a, rays_b, cones_b) -> Optional[tuple]:
    """Search for T in GL(n, Z) carrying fan A onto fan B.

    T must map the ray set of A bijectively onto the ray set of B and induce
    a bijection of maximal cones. The search fixes the first maximal cone of
    A (a unimodular basis) and tries every ordered cone of B as its image,
    so it is exhaustive but factorial; inputs are capped at dimension 4 and
    16 rays. Returns T as a tuple of rows, or None.
    """
    rays_a = [tuple(int(x) for x in r) for r in rays_a]
    rays_b = [tuple(int(x) for x in r) for r in rays_b]
    if not rays_a or not rays_b:
        return None
    n = len(rays_a[0])
    if any(len(r) != n for r in rays_a):
        raise DimensionMismatch("rays of fan A have mixed lengths")
    if any(len(r) != n for r in rays_b):
        raise DimensionMismatch("fans live in different dimensions")
    if n > _SEARCH_MAX_DIM or max(len(rays_a), len(rays_b)) > _SEARCH_MAX_RAYS:
        raise ValueError("unimodular search is capped at dimension 4 and 16 rays")
    if len(rays_a) != len(rays_b) or len(cones_a) != len(cones_b):
        return None

    cones_a = sorted(tuple(sorted(c)) for c in cones_a)
    cones_b = sorted(tuple(sorted(c)) for c in cones_b)
    index_b = {r: i for i, r in enumerate(rays_b)}
    cone_set_b = {frozenset(c) for c in cones_b}

    base = cones_a[0]
    col_a = [[rays_a[j][i] for j in base] for i in range(n)]
    inv_a = invert_unimodular(col_a)

    for cone_b in cones_b:
        for perm in permutations(cone_b):
            col_b = [[rays_b[j][i] for j in perm] for i in range(n)]
            T = [[sum(col_b[i][k] * inv_a[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
            image = []
            ok = True
            for r in rays_a:
                img = tuple(sum(T[i][j] * r[j] for j in range(n)) for i in range(n))
                idx = index_b.get(img)
                if idx is None:
                    ok = False
                    break
                image.append(idx)
            if not ok or len(set(image)) != len(image):
                continue
            mapped = {frozenset(image[j] for j in cone) for cone in cones_a}
            if mapped != cone_set_b:
                continue
            assert abs(matrix_det(T)) == 1
            return tuple(tuple(row) for row in T)
    return None
