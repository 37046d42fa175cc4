"""Critical points of Laurent superpotentials on the algebraic torus.

Works in logarithmic coordinates w = log z so Newton iterates can never land
on a coordinate axis. The system solved is the logarithmic gradient
g_j = z_j dW/dz_j = sum over terms of a_j * c * z^a, whose Jacobian in w is
J_jk = sum of a_j * a_k * c * z^a; both come from exact term-wise
differentiation. The Newton kernel's arrays come from W's compiled pairs
(``laurent.numeric_terms``), and the exact log-gradient is compiled once
per solve for the residual check that admits each root.

The system has at most n! vol(Newton polytope) isolated roots in (C*)^n
(Kouchnirenko; Bernstein), computed exactly from the term exponents in one
cached record with the group G below; a W with bound 0 has none and is
refused. On the smooth Fano and semi-Fano fans this package builds, the
bound is the number of maximal cones and is reached. The multistart grid
combines per-coordinate moduli (by default derived from the magnitudes in
play; callers with a moment polytope should pass vertex-scale moduli) with
equally spaced phases. The starts run in a fixed stride permutation of the
whole grid, so that every coordinate's seeds come early. Newton steps a
working set of max(64, 16 * expected) starts in lockstep, each start on
its own step count; a start leaves the set when it converges, reaches
max_steps, shows a non-finite residual or leaves the band, and when the
set has drained to a quarter of its width the next starts in order top it
up, never past max_starts. After each pass the starts that have just
converged are merged into the kept roots and verified, and the run stops
at the pass where the verified roots reach the bound, or when the set is
empty and no start is left to admit. A report is complete when deduped ==
expected; otherwise `truncated` says whether starts were left unrun. More
verified roots than the bound is RootBoundExceeded.
Everything is deterministic: the order, the admissions and the first-wins
merge (by pass, then in start order) depend only on the iterates, never
on timing.

The roots come in orbits. Let L be the lattice spanned by the differences
of W's nonconstant exponents: for theta with <theta, L> in Z, the shift
w -> w + 2 pi i theta multiplies every term of g by one root of unity, so
G = L*/Z^n permutes the roots, and freely. As the bound is positive, G is
finite, of an order dividing the bound; on P(K_Y + O) it holds
z_n -> -z_n. The iterates of each pass enter the merge with their images
under G, and every image is verified by the exact residual like any other
candidate. `converged` counts Newton starts only, and `orbit_size` is the
order of G.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NoConvergence, RootBoundExceeded, SchemaError
from .kahler import KahlerData
from .lattice import hermite_normal_form, normalized_volume
from .laurent import LOG_FLOAT_MAX, LaurentPoly, numeric_terms, sum_terms

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # start-order stride, as a share of the grid


class SolverOptions(NamedTuple):
    phases_per_coord: int = 8
    max_steps: int = 100
    tol: float = 1e-12
    dedup_radius: float = 1e-8
    max_starts: int = 4096
    moduli_per_coord: Optional[tuple] = None

    def to_json(self) -> dict:
        return self._asdict()  # JSON writes the moduli tuples as lists


class CriticalReport(NamedTuple):
    """The verified roots with their values and residuals, the multistart
    counts, and the options that produced them."""

    points: tuple  # tuples of complex coordinates
    values: tuple  # W at each point
    residuals: tuple  # |log-gradient| at each point
    attempted: int  # starts run
    converged: int  # starts whose iterate converged
    deduped: int  # distinct verified roots
    expected: int  # root bound n! vol(Newton polytope), at least 1
    orbit_size: int  # order of the root-of-unity symmetry group the roots are closed under
    grid_size: int  # starts in the full grid
    truncated: bool  # starts left unrun, and deduped < expected
    options: SolverOptions = SolverOptions()


def _default_moduli(c: np.ndarray, n: int) -> tuple:
    """Fallback per-coordinate moduli when no polytope scales are supplied:
    geometric ladder around the coefficient balance point."""
    mags = np.abs(c)
    mags = mags[mags > 0]
    spread = float(np.max(mags) / np.min(mags)) if mags.size else 1.0
    base = max(spread, math.e) ** (1.0 / max(n + 1, 2))
    ladder = (1.0 / base, 1.0, base)
    return tuple(ladder for _ in range(n))


def moduli_from_polytope(kahler: KahlerData, params: Mapping) -> tuple:
    """Per-coordinate |z| seeds exp(-x_j) from the moment polytope: vertex
    coordinates (one vertex per maximal cone), their pairwise midpoints, and
    the mean of the vertices. Scales whose exponential underflows to 0 or
    overflows a float are dropped; one too small to round to 14 decimals is
    kept unrounded.
    Raises EmptyInterior unless the parameters lie in the open Kahler cone."""
    # the vertices are integers over denom; each scale is one correctly
    # rounded division, as the Fraction it stands for would give
    denom, vertices = kahler.scaled_vertices(params)
    out = []
    for j in range(kahler.fan.dimension):
        coords = {v[j] for v in vertices}
        scales = {a / denom for a in coords}
        scales.update((a + b) / (2 * denom) for a in coords for b in coords)
        scales.add(sum(v[j] for v in vertices) / (len(vertices) * denom))
        seeds = [math.exp(-s) for s in scales if -s <= LOG_FLOAT_MAX]
        # rounding merges near-equal seeds; one that rounds to 0 is kept as is
        moduli = sorted({round(r, 14) or r for r in seeds}, reverse=True)
        moduli = [r for r in moduli if r > 0.0]
        out.append(tuple(moduli) or (1.0,))
    return tuple(out)


@lru_cache(maxsize=64)
def _exponent_structure(exponents: tuple) -> tuple:
    """(bound, shifts) of W's exponents; only the nonconstant ones count,
    as a constant term drops out of every z_j dW/dz_j. SchemaError when
    there is none, or when their Newton polytope is not full-dimensional.

    bound is Kouchnirenko's bound on the isolated roots in (C*)^n of the
    log-gradient system: n! times the volume of the Newton polytope of the
    nonconstant terms. It is positive: a bound of 0 (L of lower rank) means
    W has no isolated critical points whatever its coefficients.

    shifts are the log-coordinate phase shifts 2 pi theta, one per element
    of G = L*/Z^n, the zero shift first. L is the lattice spanned by the
    differences of the nonconstant exponents; for theta in L* every term
    picks up the same root of unity under w -> w + 2 pi i theta, so G
    permutes the roots of the log-gradient system, and freely. Exact: L's
    Hermite normal form B is upper triangular, and theta runs over the
    solutions of B theta = k mod Z^n, one per k_j in [0, B_jj), by
    back-substitution in Fractions."""
    nonconstant = [a for a in exponents if any(a)]
    if not nonconstant:
        raise SchemaError("potential has no nonconstant term")
    first, *rest = nonconstant
    n = len(first)
    H, _ = hermite_normal_form([[x - y for x, y in zip(a, first)] for a in rest])
    if len(H) < n or not all(H[j][j] for j in range(n)):
        raise SchemaError("potential has no isolated critical points: the Newton "
                          "polytope of its nonconstant terms is not full-dimensional")
    thetas = [()]  # the last coordinates of each theta, reduced into [0, 1)
    for j in range(n - 1, -1, -1):
        row = H[j][j + 1:]
        thetas = [((k - sum(b * x for b, x in zip(row, tail))) / Fraction(H[j][j]) % 1,) + tail
                  for tail in thetas for k in range(H[j][j])]
    return normalized_volume(nonconstant), tuple(
        tuple(2.0 * math.pi * x.numerator / x.denominator for x in theta) for theta in thetas)


def _stride(grid: int) -> int:
    """The integer nearest 0.618 * grid, raised to the first one coprime to
    grid, so that k -> k * stride mod grid permutes the grid. A grid beyond
    the float range has no such rounding: SchemaError."""
    try:
        stride = max(1, round(_GOLDEN * grid))
    except OverflowError as exc:
        raise SchemaError("the start grid has more points than a float can hold; "
                          "lower the phases per coordinate") from exc
    while math.gcd(stride, grid) != 1:
        stride += 1
    return stride


def _grid_starts(moduli, phases: int, first: int, count: int) -> np.ndarray:
    """Starts first .. first + count - 1 of the mixed order, (count, n):
    start k is grid index k * stride mod grid, read in mixed radix with the
    last coordinate fastest (the digit order of itertools.product). Digit d
    of coordinate j is the seed log r + 2 pi i p / phases, modulus outer:
    r = moduli[j][d // phases] and p = d % phases. Only the starts asked
    for are built, so the grid's size costs no memory."""
    sizes = [len(coord) * phases for coord in moduli]
    grid = math.prod(sizes)
    stride = _stride(grid)
    index = [(k * stride) % grid for k in range(first, first + count)]
    w = np.empty((count, len(moduli)), dtype=complex)
    for j in range(len(moduli) - 1, -1, -1):
        size = sizes[j]
        logs = np.array([math.log(r) for r in moduli[j]])
        w[:, j].real = logs[[i % size // phases for i in index]]
        # p = d % phases = i % phases, as size is a multiple of phases
        w[:, j].imag = 2.0 * math.pi * np.array([i % phases for i in index], dtype=float) / phases
        index = [i // size for i in index]
    return w


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _term_values(w: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c_t z^(a_t) at log-coordinates w (s, n), as (s, T): a real exponential
    times cos + i sin of the phase, an order of magnitude cheaper than
    numpy's complex exp."""
    re, im = w.real @ A.T, w.imag @ A.T
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im)) * c


def _newton(admit, A: np.ndarray, AA: np.ndarray, c: np.ndarray,
            options: SolverOptions, band: float, width: int):
    """Rolling Newton over a working set of at most `width` starts, drawn
    in order from admit(count), which returns the next starts (s, n), fewer
    once the budget runs out. Only the live rows are kept: the iterate, its
    step count and its last step size. Each start steps on its own and
    leaves the set when it converges, when its residual is not finite, at
    its own max_steps, or when its next iterate leaves the band. When the
    live rows have drained to a quarter of the width, the next starts top
    them up to the width. After each pass that converges some starts it
    yields their iterates in start order, and once more, with none, when
    the set is empty; each yield also carries the least finite residual
    over the last iterates of the starts that have left the set. The
    caller may stop between passes. AA holds the products a_j * a_k of
    each term's exponents, so the Jacobians are one matrix product."""
    n = A.shape[1]
    w = admit(width)
    steps = np.zeros(len(w), dtype=int)
    last_step = np.full(len(w), np.inf)
    least = math.inf
    # a true Newton root shows both a tiny residual and a vanishing step;
    # gradient valleys toward the torus boundary keep O(1) steps and must
    # not count as converged
    step_tol = 1e-5
    while len(w):
        # numpy's error state is set per pass, never across a yield, so the
        # caller runs under its own
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            M = _term_values(w, A, c)  # (s, T)
            g = M @ A  # (s, n) log-gradient
            res = np.linalg.norm(g, axis=1)
            finite = np.isfinite(res)
            done = finite & (res <= options.tol) & (last_step <= step_tol)
        if done.any():
            least = min(least, float(res[done].min()))
            yield w[done], least
        # a start at its max_steps only tests its last update
        go = finite & ~done & (steps < options.max_steps)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            J = (M[go] @ AA).reshape(-1, n, n)
            rhs = -g[go]
            try:
                step = np.linalg.solve(J, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.full_like(rhs, np.nan)
                for k in range(J.shape[0]):
                    try:
                        step[k] = np.linalg.solve(J[k], rhs[k])
                    except np.linalg.LinAlgError:
                        pass
            # clip wild steps; keeps iterates in a sane band
            norms = np.max(np.abs(step), axis=1, keepdims=True)
            step *= np.where(norms > 10.0, 10.0 / norms, 1.0)
            new_w = w[go] + step
            ok = np.all(np.isfinite(new_w), axis=1) & (
                np.max(np.abs(new_w.real), axis=1) < band
            )
        keep = np.flatnonzero(go)[ok]
        dropped = finite & ~done
        dropped[keep] = False
        if dropped.any():
            least = min(least, float(res[dropped].min()))
        w = new_w[ok]
        steps = steps[keep] + 1
        last_step = np.linalg.norm(step[ok], axis=1)
        if 4 * len(w) <= width:
            fresh = admit(width - len(w))
            if len(fresh):
                w = np.concatenate([w, fresh])
                steps = np.concatenate([steps, np.zeros(len(fresh), dtype=int)])
                last_step = np.concatenate([last_step, np.full(len(fresh), np.inf)])
    yield w, least


def _log_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between log-coordinate points over the last axis, each phase
    difference wrapped into [-pi, pi); broadcasts over the leading axes."""
    diff = a - b
    return np.hypot(np.linalg.norm(diff.real, axis=-1),
                    np.linalg.norm(_wrap_phase(diff.imag), axis=-1))


def _dedup(points: np.ndarray, kept: np.ndarray, radius: float) -> np.ndarray:
    """The rows of points (m, n), in order, farther than radius from every
    row of kept and from every earlier row returned. This is the set a
    pairwise scan in row order keeps: each pass keeps the first remaining
    row and drops every later one within the radius of it."""
    if len(kept) and len(points):
        near = _log_distance(points[:, None, :], kept[None, :, :]) <= radius
        points = points[~near.any(axis=1)]
    out = []
    while len(points):
        out.append(points[0])
        rest = points[1:]
        points = rest[~(_log_distance(rest, points[0]) <= radius)]
    return np.array(out, dtype=complex).reshape(-1, kept.shape[1])


def find_critical_points(poly: LaurentPoly, t: Sequence[float],
                         options: SolverOptions | None = None) -> CriticalReport:
    """Multistart Newton solve of the logarithmic gradient system.

    Deterministic: the starts run in a fixed mixed order through a working
    set whose width depends only on the root bound, refilled in that order
    whenever it drains to a quarter of the width. After each pass, the
    iterates that have just converged, followed by their images under W's
    symmetry group G, are collapsed in that order within the dedup radius
    (log coordinates, phase-wrapped) against the roots kept so far, each
    survivor is checked by the exact residual, and the run stops at the
    pass where the verified roots reach the bound.
    Otherwise it stops when every start up to max_starts or the end of the
    grid has converged or been dropped. `attempted` counts the starts
    admitted, `converged` those that converged before the stop. The points
    are sorted canonically. Raises NoConvergence when nothing converges; its
    message gives the best residual over the last iterate of every start.
    Raises RootBoundExceeded when the verified roots outnumber the bound,
    and SchemaError, before any Newton pass, when the bound is 0 or W has
    no nonconstant term.
    """
    options = options or SolverOptions()
    expected, shifts = _exponent_structure(tuple(sorted(poly.terms)))
    shifts = 1j * np.array(shifts)  # (|G|, n), the zero shift first
    n = poly.zvars
    terms = numeric_terms(poly, t)
    A = np.array([a for a, _ in terms], dtype=float)
    c = np.array([v for _, v in terms], dtype=complex)
    AA = (A[:, :, None] * A[:, None, :]).reshape(len(A), n * n)
    moduli = options.moduli_per_coord or _default_moduli(c, n)
    if len(moduli) != n:
        raise ValueError("need one modulus list per z-coordinate")
    phases = options.phases_per_coord
    grid = math.prod(len(coord) * phases for coord in moduli)
    budget = min(grid, options.max_starts)
    # iterates leaving this band in Re w are dropped; it follows the seed
    # moduli, so roots far inside the Kahler cone stay reachable
    band = 60.0 + max((abs(math.log(r)) for coord in moduli for r in coord), default=0.0)
    width = max(64, 16 * expected)
    # exact differentiation, compiled once, for the residual check
    log_gradient = [numeric_terms(poly.log_derivative(j), t) for j in range(n)]

    attempted = 0

    def admit(count: int) -> np.ndarray:
        nonlocal attempted
        w = _grid_starts(moduli, phases, attempted, min(count, budget - attempted))
        attempted += len(w)
        return w

    kept = np.empty((0, n), dtype=complex)  # dedup representatives
    points = []
    best_failed = math.inf
    converged = 0
    for found, least in _newton(admit, A, AA, c, options, band, width):
        converged += len(found)
        # the converged iterates, then their images under each nonzero shift
        orbits = (shifts[:, None, :] + found[None, :, :]).reshape(-1, n)
        fresh = _dedup(orbits, kept, options.dedup_radius)
        kept = np.concatenate([kept, fresh])
        for wi in fresh:
            z = tuple(cmath.exp(complex(x)) for x in wi)
            # the exact-differentiation residual is the authority for the report
            resid = float(np.linalg.norm([sum_terms(g, z) for g in log_gradient]))
            if resid <= options.tol:
                points.append((z, resid))
            else:
                best_failed = min(best_failed, resid)
        if len(points) > expected:
            raise RootBoundExceeded(
                f"{len(points)} distinct verified critical points exceed the root bound "
                f"{expected}: the dedup radius {options.dedup_radius} keeps copies of one "
                f"root apart")
        if len(points) == expected:
            break
    points.sort(key=lambda item: tuple((v.real, v.imag) for v in item[0]))

    if not points:
        best_failed = min(best_failed, least)
        detail = (f"; best residual reached {best_failed:.3e}"
                  if math.isfinite(best_failed) else "")
        raise NoConvergence(
            f"no critical point found from {attempted} starts{detail}; try more "
            f"phases or different moduli"
        )
    values = tuple(sum_terms(terms, z) for z, _ in points)
    return CriticalReport(
        points=tuple(z for z, _ in points),
        values=values,
        residuals=tuple(r for _, r in points),
        attempted=attempted,
        converged=converged,
        deduped=len(points),
        expected=expected,
        orbit_size=len(shifts),
        grid_size=grid,
        truncated=attempted < grid and len(points) < expected,
        options=options,
    )
