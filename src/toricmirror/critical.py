"""Critical points of Laurent superpotentials on the algebraic torus.

Works in logarithmic coordinates w = log z so Newton iterates can never land
on a coordinate axis. The system solved is the logarithmic gradient
g_j = z_j dW/dz_j = sum over terms of a_j * c * z^a, whose Jacobian in w is
J_jk = sum of a_j * a_k * c * z^a; both come from exact term-wise
differentiation, evaluated in floating point.

The multistart grid combines per-coordinate moduli (by default derived from
the magnitudes in play; callers with a moment polytope should pass
vertex-scale moduli) with equally spaced phases. Branches are independent;
results are merged by a canonical sort, so any parallel or vectorized
execution yields identical reports. Completeness of the root set is never
claimed; count checks live in the test suite.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import NoConvergence, ZeroCoordinate
from .kahler import KahlerData
from .laurent import LaurentPoly, evaluate

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows above this


@dataclass(frozen=True)
class SolverOptions:
    phases_per_coord: int = 8
    max_steps: int = 100
    tol: float = 1e-12
    dedup_radius: float = 1e-8
    max_starts: int = 4096
    moduli_per_coord: Optional[tuple] = None

    def to_json(self) -> dict:
        return {
            "phases_per_coord": self.phases_per_coord,
            "max_steps": self.max_steps,
            "tol": self.tol,
            "dedup_radius": self.dedup_radius,
            "max_starts": self.max_starts,
        }


@dataclass(frozen=True)
class CriticalReport:
    points: tuple  # tuples of complex coordinates
    values: tuple  # W at each point
    residuals: tuple  # |log-gradient| at each point
    attempted: int
    converged: int
    deduped: int
    options: SolverOptions = field(compare=False, default=SolverOptions())


def gradient(poly: LaurentPoly, z: Sequence[complex], t: Sequence[float]) -> tuple:
    """Logarithmic gradient (z_1 dW/dz_1, ..., z_n dW/dz_n) at z.

    Differentiation is exact (term-wise on the Laurent polynomial); only the
    final evaluation is numeric.
    """
    z = [complex(v) for v in z]
    if any(v == 0 for v in z):
        raise ZeroCoordinate("gradient is undefined on the coordinate axes")
    return tuple(
        evaluate(poly.log_derivative(j), z, t) for j in range(poly.zvars)
    )


def _numeric_terms(poly: LaurentPoly, t: Sequence[float]):
    q = [math.exp(-float(v)) for v in t]
    exps = []
    coeffs = []
    for zexp, coeff in poly.sorted_terms():
        exps.append(zexp)
        coeffs.append(coeff.numeric(q))
    return np.array(exps, dtype=float), np.array(coeffs, dtype=complex)


def _default_moduli(poly: LaurentPoly, t: Sequence[float]) -> tuple:
    """Fallback per-coordinate moduli when no polytope scales are supplied:
    geometric ladder around the coefficient balance point."""
    _, coeffs = _numeric_terms(poly, t)
    mags = np.abs(coeffs)
    mags = mags[mags > 0]
    spread = float(np.max(mags) / np.min(mags)) if mags.size else 1.0
    base = max(spread, math.e) ** (1.0 / max(poly.zvars + 1, 2))
    ladder = (1.0 / base, 1.0, base)
    return tuple(ladder for _ in range(poly.zvars))


def moduli_from_polytope(kahler: KahlerData, params: Mapping) -> tuple:
    """Per-coordinate |z| seeds exp(-x_j) from the moment polytope: vertex
    coordinates (one vertex per maximal cone), their pairwise midpoints, and
    the mean of the vertices. Scales whose exponential underflows to 0 or
    overflows a float are dropped; one too small to round to 14 decimals is
    kept unrounded.
    Raises EmptyInterior unless the parameters lie in the open Kahler cone."""
    vertices = kahler.vertices(params)
    center = kahler.interior_point(params)
    out = []
    for j in range(kahler.fan.dimension):
        scales = {float(v[j]) for v in vertices}
        coords = sorted({v[j] for v in vertices})
        for a in coords:
            for b in coords:
                scales.add(float(a + b) / 2.0)
        scales.add(float(center[j]))
        seeds = [math.exp(-s) for s in scales if -s <= _LOG_FLOAT_MAX]
        # rounding merges near-equal seeds; one that rounds to 0 is kept as is
        moduli = sorted({round(r, 14) or r for r in seeds}, reverse=True)
        moduli = [r for r in moduli if r > 0.0]
        out.append(tuple(moduli) or (1.0,))
    return tuple(out)


def _start_points(poly: LaurentPoly, t, options: SolverOptions):
    moduli = options.moduli_per_coord or _default_moduli(poly, t)
    if len(moduli) != poly.zvars:
        raise ValueError("need one modulus list per z-coordinate")
    K = options.phases_per_coord
    per_coord = []
    for j in range(poly.zvars):
        seeds = []
        for r in moduli[j]:
            for k in range(K):
                theta = 2.0 * math.pi * k / K
                seeds.append(complex(math.log(r), theta))
        per_coord.append(seeds)
    return list(islice(product(*per_coord), options.max_starts))


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def find_critical_points(poly: LaurentPoly, t: Sequence[float],
                         options: SolverOptions | None = None) -> CriticalReport:
    """Multistart Newton solve of the logarithmic gradient system.

    Deterministic: the start grid is fixed, all starts iterate in lockstep,
    duplicates are collapsed in start order within the dedup radius (log
    coordinates, phase-wrapped), and the survivors are sorted canonically.
    Raises NoConvergence when nothing converges.
    """
    options = options or SolverOptions()
    if poly.is_constant() or not poly:
        raise ValueError("potential has no nonconstant term")
    n = poly.zvars
    t = [float(v) for v in t]
    A, c = _numeric_terms(poly, t)
    starts = _start_points(poly, t, options)
    w = np.array(starts, dtype=complex)  # (S, n)
    S = w.shape[0]
    # iterates leaving this band in Re w are dropped; it follows the start
    # grid, so roots far inside the Kahler cone stay reachable
    band = 60.0 + float(np.max(np.abs(w.real), initial=0.0))
    active = np.ones(S, dtype=bool)
    # a true Newton root shows both a tiny residual and a vanishing step;
    # gradient valleys toward the torus boundary keep O(1) steps and must
    # not count as converged
    step_tol = 1e-5
    last_step = np.full(S, np.inf)
    converged_idx: list = []

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the last pass only tests the final update; it takes no step
        for step_no in range(options.max_steps + 1):
            if not active.any():
                break
            wa = w[active]
            M = np.exp(wa @ A.T) * c  # (s, T) term values
            g = M @ A  # (s, n) log-gradient
            res = np.linalg.norm(g, axis=1)
            finite = np.isfinite(res)
            done = finite & (res <= options.tol) & (last_step[active] <= step_tol)
            idx = np.flatnonzero(active)
            for i in idx[done]:
                converged_idx.append(i)
            if step_no == options.max_steps:
                break
            alive = finite & ~done
            J = np.einsum("st,tj,tk->sjk", M, A, A)
            delta = np.full_like(wa, np.nan)
            if alive.any():
                Ja, ga = J[alive], g[alive]
                try:
                    step = np.linalg.solve(Ja, -ga[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    step = np.full_like(ga, np.nan)
                    for k in range(Ja.shape[0]):
                        try:
                            step[k] = np.linalg.solve(Ja[k], -ga[k])
                        except np.linalg.LinAlgError:
                            pass
                # clip wild steps; keeps iterates in a sane band
                norms = np.max(np.abs(step), axis=1, keepdims=True)
                with np.errstate(invalid="ignore"):
                    scale = np.where(norms > 10.0, 10.0 / norms, 1.0)
                step = step * scale
                delta[alive] = step
            new_wa = wa + delta
            ok = np.all(np.isfinite(new_wa), axis=1) & (
                np.max(np.abs(new_wa.real), axis=1) < band
            )
            moved = idx[alive & ok]
            still = np.zeros(S, dtype=bool)
            still[moved] = True
            w[moved] = new_wa[alive & ok]
            last_step[moved] = np.linalg.norm(delta[alive & ok], axis=1)
            active = still

    converged_idx.sort()
    kept: list = []
    for i in converged_idx:
        wi = w[i]
        dup = False
        for wj in kept:
            diff_re = wi.real - wj.real
            diff_im = _wrap_phase(wi.imag - wj.imag)
            if math.hypot(np.linalg.norm(diff_re), np.linalg.norm(diff_im)) \
                    <= options.dedup_radius:
                dup = True
                break
        if not dup:
            kept.append(wi)

    points = []
    best_failed = math.inf
    for wi in kept:
        z = tuple(cmath.exp(complex(x)) for x in wi)
        # the exact-differentiation residual is the authority for the report
        resid = float(np.linalg.norm(gradient(poly, z, t)))
        if resid <= options.tol:
            points.append((z, resid))
        else:
            best_failed = min(best_failed, resid)
    points.sort(key=lambda item: tuple((v.real, v.imag) for v in item[0]))

    if not points:
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.exp(w @ A.T) * c
            res = np.linalg.norm(M @ A, axis=1)
        res = res[np.isfinite(res)]
        if res.size:
            best_failed = min(best_failed, float(res.min()))
        detail = (f"; best residual reached {best_failed:.3e}"
                  if math.isfinite(best_failed) else "")
        raise NoConvergence(
            f"no critical point found from {S} starts{detail}; try more "
            f"phases or different moduli"
        )
    values = tuple(evaluate(poly, z, t) for z, _ in points)
    return CriticalReport(
        points=tuple(z for z, _ in points),
        values=values,
        residuals=tuple(r for _, r in points),
        attempted=S,
        converged=len(converged_idx),
        deduped=len(points),
        options=options,
    )
