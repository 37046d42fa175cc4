"""Output checks that do not use the code under test.

Every check returns a list of problems (empty when the output is right); the
runner counts a job with any problem as failed and carries on.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from fractions import Fraction

from inputs import F2_CLOSED_FORM, F2_CORRECTION, P2_TABLE, anticanonical_class

EPS = 2.0 ** -52


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def doc_terms(doc) -> dict:
    """{z-exponent: {q-exponent: Fraction}} from a potential document."""
    return {
        tuple(t["z"]): {tuple(q["q"]): Fraction(q["value"]) for q in t["coefficient"]}
        for t in doc["terms"]
    }


def expected_correction(kind, recipe, cutoff, nbase) -> dict:
    """C as {q-exponent: coefficient}: 1 + q^alpha on F2-equivalent fans,
    1 + the table entries up to the cutoff on P(K_P2 + O), 1 under zero-fill."""
    rank = len(recipe.off)
    out = {(0,) * rank: Fraction(1)}
    if kind in ("builtin", "table"):
        alpha = recipe.q_exponents(anticanonical_class(nbase))
        values = {1: 1} if kind == "builtin" else P2_TABLE
        for k in range(1, cutoff + 1):
            if values.get(k):
                out[tuple(k * a for a in alpha)] = Fraction(values[k])
    return out


def check_potential(doc, rays, lambda_exps, correction) -> list:
    """One z-term per ray with that ray as exponent; exp(lambda_i) as the
    coefficient, times C on the zero-section ray (ray 0)."""
    problems = []
    if len(doc["terms"]) != len(rays):
        problems.append(f"{len(doc['terms'])} z-terms for {len(rays)} rays")
    expected = {}
    for i, ray in enumerate(rays):
        mono = tuple(lambda_exps[i])
        if i == 0:
            expected[tuple(ray)] = {
                tuple(a + b for a, b in zip(mono, e)): c for e, c in correction.items()
            }
        else:
            expected[tuple(ray)] = {mono: Fraction(1)}
    if doc_terms(doc) != expected:
        problems.append("potential terms differ from the construction")
    got_c = {tuple(q["q"]): Fraction(q["value"]) for q in doc["correction"] or []}
    if got_c != correction:
        problems.append(f"correction factor {got_c} != {correction}")
    return problems


def check_f2_closed_form(doc) -> list:
    """The paper's F2 potential and C = 1 + q1, term by term."""
    problems = []
    if doc_terms(doc) != {z: {q: Fraction(c) for q, c in co.items()}
                          for z, co in F2_CLOSED_FORM.items()}:
        problems.append("F2 potential differs from the closed form")
    if {tuple(q["q"]): Fraction(q["value"]) for q in doc["correction"]} != F2_CORRECTION:
        problems.append("F2 correction factor is not 1 + q1")
    return problems


def check_bundle(doc, rays, cones) -> list:
    got_rays = [tuple(r) for r in doc["rays"]]
    got_cones = sorted(tuple(sorted(c)) for c in doc["maximal_cones"])
    if got_rays != [tuple(r) for r in rays] or got_cones != sorted(cones):
        return ["bundle fan differs from the benchmark's construction"]
    return []


def _numeric_terms(pot_doc, t):
    q = [math.exp(-x) for x in t]
    out = []
    for z, coeff in doc_terms(pot_doc).items():
        c = sum(float(v) * math.prod(qj ** e for qj, e in zip(q, qe))
                for qe, v in coeff.items())
        out.append((z, c))
    return out


def log_gradient(terms, point):
    """(z_j dW/dz_j)_j and the sum of term magnitudes, for a rounding bound."""
    n = len(point)
    g = [0j] * n
    scale = 0.0
    for a, c in terms:
        m = c
        for zj, aj in zip(point, a):
            m *= zj ** aj
        for j in range(n):
            g[j] += a[j] * m
        scale += abs(m) * max(1, max(abs(x) for x in a))
    return g, scale


def check_critical(crit_doc, pot_doc, t, expected, untruncated, tol) -> tuple:
    """(problems, missed): every reported point is a distinct critical point
    by our own evaluation of the document's terms, within tol plus a
    rounding allowance; there are never more than `expected` (the cone
    count); when the start grid was not truncated there are exactly that
    many. `missed` is expected minus found."""
    problems = []
    terms = _numeric_terms(pot_doc, t)
    points = [tuple(complex(re, im) for re, im in p) for p in crit_doc["points"]]
    for p in points:
        g, scale = log_gradient(terms, p)
        resid = math.sqrt(sum(abs(x) ** 2 for x in g))
        if resid > tol + 64 * EPS * scale:
            problems.append(f"point {p} has log-gradient residual {resid:.3e}")
            break
    logs = [tuple(cmath.log(z) for z in p) for p in points]
    if any(max(abs(a.real - b.real) + abs(_wrap(a.imag - b.imag))
               for a, b in zip(logs[i], logs[j])) <= 1e-8
           for i in range(len(logs)) for j in range(i)):
        problems.append("duplicate critical points")
    found = len(points)
    if found > expected:
        problems.append(f"{found} critical points exceed the {expected} cones")
    if untruncated and found != expected:
        problems.append(f"{found} critical points on a full start grid, expected {expected}")
    return problems, max(expected - found, 0)


def _wrap(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


def f2_roots(q1, q2):
    """The four critical points of the F2 closed form:
    z2 = +-sqrt(q2) (1 + s sqrt(q1)), z1 = s sqrt(q1) q2 / z2."""
    out = []
    for s in (1, -1):
        for sign in (1, -1):
            z2 = sign * math.sqrt(q2) * (1 + s * math.sqrt(q1))
            out.append((s * math.sqrt(q1) * q2 / z2, z2))
    return out


def check_f2_roots(crit_doc, t) -> list:
    roots = f2_roots(math.exp(-t[0]), math.exp(-t[1]))
    points = [tuple(complex(re, im) for re, im in p) for p in crit_doc["points"]]
    matched = set()
    for p in points:
        for k, r in enumerate(roots):
            if all(abs(a - b) <= 1e-8 * abs(b) for a, b in zip(p, r)):
                matched.add(k)
    if len(points) != 4 or len(matched) != 4:
        return [f"F2 roots {points} do not match the closed form {roots}"]
    return []
