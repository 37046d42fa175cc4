"""crit-sweep: one job is one prebuilt potential at one seeded parameter
point through the CLI's crit calls, in process: moduli from the moment
polytope, the multistart solver at the CLI defaults, the report document.

The potentials are built in set-up. The deck fixes the mix: F2, the one
untruncated start grid, is most of the jobs and holds the median; the
24-cone P1 x dP6 bundle holds p90; the other bundles (P2 with its invariant
table, F1, dP6, P1^3) sit between. Each t_j is drawn in [3, 6] and kept only
if the benchmark's own vertex test puts it inside the Kahler cone; solver
success never keeps or drops a point.

At the 4096-start default the grid of every bundle is cut to a prefix, so
some roots are missed (ROADMAP item 3). A job checks what the solver's
report does promise (every point is a distinct critical point, never more
than the cone count, exactly the cone count on an uncut grid); the roots
missed on cut grids are counted as `critical.missed`, not as failures.
"""

from __future__ import annotations

import itertools
import json
import random

from toricmirror.critical import SolverOptions, find_critical_points, moduli_from_polytope
from toricmirror.documents import (
    FanDocument,
    canonical_json,
    critical_report_to_document,
    gw_table_from_document,
    potential_to_document,
)
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.potential import corrected_potential, correction_details

import inputs
import oracles

CUTOFF = 2
OPTIONS = dict(phases_per_coord=8, max_steps=100, tol=1e-12,
               dedup_radius=1e-8, max_starts=4096)  # the CLI defaults

DECK = {"F2": 70, "P2": 4, "F1": 3, "dP6": 4, "P1^3": 3, "P1xdP6": 16}


class Potential:
    """A potential built with the library, its document, and what the
    benchmark's own construction says it must be."""

    def __init__(self, name):
        self.name = name
        table = None
        if name == "F2":
            rays, cones = inputs.F2_RAYS, inputs.F2_CONES
            params, lambdas, q_basis = ["t1", "t2"], inputs.F2_LAMBDAS, inputs.F2_Q_BASIS
            offsets = inputs.f2_offsets
        else:
            rays, cones = inputs.bundle_of(*inputs.BASES[name])
            recipe = inputs.KahlerRecipe(rays, cones)
            params, lambdas, q_basis = recipe.parameters, recipe.lambdas, recipe.q_basis
            offsets = recipe.offsets
            if name == "P2":
                table = inputs.p2_table_doc(rays, cones, recipe)
        self.rays, self.cones, self.params, self.offsets = rays, cones, params, offsets
        fan = validate_fan(len(rays[0]), rays, cones)
        self.kahler = KahlerData(fan, lambdas, q_basis)
        gw_table = None if table is None else gw_table_from_document(table, fan)
        gw = GWProvider(self.kahler, gw_table, name not in ("F2", "P2"))
        factor, records = correction_details(fan, self.kahler, gw, CUTOFF)
        self.poly = corrected_potential(fan, self.kahler, gw, CUTOFF)
        fandoc = FanDocument(fan, self.kahler, tuple(params), tuple(lambdas), q_basis)
        self.text = canonical_json(potential_to_document(
            self.poly, branch="corrected", fandoc=fandoc, cutoff=CUTOFF,
            correction=factor, gw_records=records))
        self.doc = json.loads(self.text)

    def check(self, digests):
        """Set-up checks on the built potential; they fail every job on it."""
        if self.name == "F2":
            problems = oracles.check_f2_closed_form(self.doc)
            if oracles.digest(self.text) != digests.get("F2-paper/cutoff2"):
                problems.append("F2 potential document changed bytes")
            return problems
        recipe = inputs.KahlerRecipe(self.rays, self.cones)
        kind = {"P2": "table"}.get(self.name, "assumed-zero")
        lam = [recipe.lambda_exponents(i) for i in range(len(self.rays))]
        nbase = len(inputs.BASES[self.name][0])
        return oracles.check_potential(
            self.doc, self.rays, lam,
            oracles.expected_correction(kind, recipe, CUTOFF, nbase))


class CritJob:
    def __init__(self, pot, params, setup_problems):
        self.cls = pot.name
        self.pot = pot
        self.params = params
        self.setup_problems = setup_problems
        self.t = [float(a.subs(params)) for a in pot.kahler.basis_areas()]

    def run(self, step):
        moduli = step("kahler.moduli_s", moduli_from_polytope, self.pot.kahler, self.params)
        options = SolverOptions(moduli_per_coord=moduli, **OPTIONS)
        report = step("critical.solve_s", find_critical_points, self.pot.poly, self.t, options)
        text = step("documents.emit_s", lambda: canonical_json(critical_report_to_document(
            report, {k: float(v) for k, v in self.params.items()})))
        return moduli, text

    def grid_size(self, moduli):
        size = 1
        for m in moduli:
            size *= len(m) * OPTIONS["phases_per_coord"]
        return size

    def check(self, out, digests):
        moduli, text = out
        doc = json.loads(text)
        untruncated = self.grid_size(moduli) <= OPTIONS["max_starts"]
        problems, self.missed = oracles.check_critical(
            doc, self.pot.doc, self.t, len(self.pot.cones), untruncated, OPTIONS["tol"])
        if self.pot.name == "F2":
            problems += oracles.check_f2_roots(doc, self.t)
        return list(self.setup_problems) + problems

    def counts(self, out):
        moduli, text = out
        ms = json.loads(text)["multistart"]
        expected = len(self.pot.cones)
        grid = self.grid_size(moduli)
        return {
            "critical.attempted": ms["attempted"],
            "critical.converged": ms["converged"],
            "critical.deduped": ms["deduped"],
            "critical.expected": expected,
            "critical.missed": max(expected - ms["deduped"], 0),
            "critical.grid_size": grid,
            "critical.truncated": int(grid > OPTIONS["max_starts"]),
            "documents.bytes_out": len(text.encode()),
        }


def point_stream(pot, rng):
    while True:
        yield inputs.draw_parameters(rng, pot.rays, pot.cones, pot.offsets, pot.params)


class Workload:
    """Potentials built once; every job draws a fresh parameter point."""

    mix = DECK

    def __init__(self, seed, digests, root):
        rng = random.Random(seed)
        self.pots = {name: Potential(name) for name in DECK}
        self.problems = {name: p.check(digests) for name, p in self.pots.items()}
        self.streams = {name: point_stream(p, random.Random(rng.random()))
                        for name, p in self.pots.items()}
        self.order = [name for name, count in DECK.items() for _ in range(count)]
        rng.shuffle(self.order)

    def _job(self, name):
        return CritJob(self.pots[name], next(self.streams[name]), self.problems[name])

    def warmup(self):
        return [self._job(name) for name in DECK]

    def jobs(self):
        for name in itertools.cycle(self.order):
            yield self._job(name)

    def close(self):
        pass

