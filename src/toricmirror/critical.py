"""The multistart Newton grid: one numpy generator, ``grid_roots``, behind
the critical points of a Laurent system that does not solve in closed form.

``roots.solve`` hands it one Newton factor of W at a time, as float
(exponent, coefficient) pairs with the seed moduli and the working-set
width. On a 2-D system it is the fallback: ``roots`` runs Newton from the
polyhedral starts alone first, and calls the grid only when they do not
solve the system, or when the system's mixed cells miss its bound. The grid
only yields converged iterates; ``roots`` merges them with their images
under G, admits each by ``roots.candidate`` and stops it at the bound, one
collector for the starts and the grid. This module imports roots, so roots
cannot import it: ``find_critical_points`` is ``roots.solve`` with this
grid, and ``crit`` hands roots a callable that imports it on first use.

Works in logarithmic coordinates w = log z so Newton iterates can never land
on a coordinate axis. The system solved is the logarithmic gradient
g_j = z_j dW/dz_j = sum over terms of a_j * c * z^a, whose Jacobian in w is
J_jk = sum of a_j * a_k * c * z^a; both come from exact term-wise
differentiation.

The multistart grid combines per-coordinate moduli (by default derived from
the magnitudes in play; callers with a moment polytope should pass
vertex-scale moduli) with equally spaced phases. The starts run in a fixed
stride permutation of the whole grid, so that every coordinate's seeds come
early; max_starts caps them. Newton steps a working set of `width` starts
in lockstep, each on its own step count, and the next starts in order top
the set up as it drains (``grid_roots``). Everything is deterministic: the
order and the iterates yielded after each pass depend only on the
iterates, never on timing.
"""

from __future__ import annotations

import math

import numpy as np

# SolverOptions and moduli_from_polytope are served from here too, beside
# find_critical_points
from .roots import (STEP_TOL, CriticalReport, SolverOptions, moduli_from_polytope,
                    newton_band, solve, start_grid_size)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # start-order stride, as a share of the grid


def _stride(grid: int) -> int:
    """The integer nearest 0.618 * grid, raised to the first one coprime to
    grid, so that k -> k * stride mod grid permutes the grid. The grid fits
    the float range (``roots.start_grid_size``)."""
    stride = max(1, round(_GOLDEN * grid))
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


def _term_values(w: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c_t z^(a_t) at log-coordinates w (s, n), as (s, T): a real exponential
    times cos + i sin of the phase, an order of magnitude cheaper than
    numpy's complex exp."""
    re, im = w.real @ A.T, w.imag @ A.T
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im)) * c


def grid_roots(terms: list, moduli, width: int, options: SolverOptions):
    """Rolling multistart Newton over the start grid of the log-gradient
    system of the (exponent, coefficient) pairs `terms`: at most max_starts
    starts in the grid's mixed order (``_grid_starts``), through a working
    set of at most `width`. Only the live rows are kept: the iterate, its
    step count and its last step size. Each start steps on its own and
    leaves the set when it converges, when its residual is not finite, at
    its own max_steps, or when its next iterate leaves the band. Whenever
    the live rows have drained to a quarter of the width, from none at the
    outset, the next starts top them up to the width, never past the
    budget. After each pass that converges some starts it yields (their
    iterates as tuples of log coordinates, in start order; the least
    finite residual over the last iterates of the starts dropped so far,
    never of those that converged; the starts admitted so far), and once
    more, with no iterate, when the set is empty. The caller merges,
    admits and stops it between passes (``roots._newton_system``). AA
    holds the products a_j * a_k of each term's exponents, so the
    Jacobians are one matrix product."""
    n = len(terms[0][0])
    A = np.array([a for a, _ in terms], dtype=float)
    c = np.array([v for _, v in terms], dtype=complex)
    AA = (A[:, :, None] * A[:, None, :]).reshape(len(A), n * n)
    phases = options.phases_per_coord
    budget = min(start_grid_size(moduli, phases), options.max_starts)
    band = newton_band(moduli)
    w, steps, last_step = np.empty((0, n), dtype=complex), np.zeros(0, dtype=int), np.zeros(0)
    attempted, least = 0, math.inf
    while True:
        count = min(width - len(w), budget - attempted)
        if 4 * len(w) <= width and count:
            w = np.concatenate([w, _grid_starts(moduli, phases, attempted, count)])
            attempted += count
            steps = np.concatenate([steps, np.zeros(count, dtype=int)])
            last_step = np.concatenate([last_step, np.full(count, np.inf)])
        if not len(w):
            break
        # numpy's error state is set per pass, never across a yield, so the
        # caller runs under its own
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            M = _term_values(w, A, c)  # (s, T)
            g = M @ A  # (s, n) log-gradient
            res = np.linalg.norm(g, axis=1)
            finite = np.isfinite(res)
            done = finite & (res <= options.tol) & (last_step <= STEP_TOL)
        if done.any():
            yield [tuple(x) for x in w[done].tolist()], least, attempted
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
    yield [], least, attempted


def find_critical_points(poly, t, options: SolverOptions | None = None) -> CriticalReport:
    """The critical points of W at q = exp(-t): ``roots.solve`` with this
    grid, which roots cannot import itself."""
    return solve(poly, t, options, grid_roots)
