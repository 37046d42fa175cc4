"""exact-ladder: one job is one base fan through the CLI's analyze -> bundle
-> potential calls, in process, with no solver work.

The deck fixes how many jobs each base gets, so the order of job times
does not depend on the seed: 3-D bundles (2-D bases) make up the median,
P3 bundles sit around p90, and the P1^3 and P1 x dP6 bundles (16 and 24
cones) are the tail. The seed draws the GL(n, Z) charts of the seeded-
coordinate jobs and the job order; the p90 class keeps fixed coordinates
because a chart moves its validation time by up to a third.
"""

from __future__ import annotations

import itertools
import json
import random
from itertools import product
from math import comb

from toricmirror.bundle import default_q_basis, projectivize_canonical
from toricmirror.documents import (
    FanDocument,
    canonical_json,
    fan_to_document,
    gw_table_from_document,
    potential_to_document,
)
from toricmirror.fan import classify_positivity, validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.potential import corrected_potential, correction_details

import inputs
import oracles

_ALL = list(product(("std", "seeded"), (1, 2, 3, 4)))

# base -> (jobs per deck, (coordinates, cutoff) variants taken in turn).
# Sorted by time, a deck is 34 cheap 3-D bundles (P1, P2), 48 at about
# 0.1 s (F1, P1xP1; the median is the 16th of them), 16 at about 0.5 s
# (dP6 at high cutoff, P3 in fixed coordinates; p90 is the 8th), then the
# P1^3 and P1 x dP6 bundles.
DECK = {
    "P1": (18, _ALL),
    "P2": (16, _ALL),
    "F1": (24, _ALL),
    "P1xP1": (24, _ALL),
    "dP6": (4, list(product(("std", "seeded"), (3, 4)))),
    "P3": (12, [("std", c) for c in (1, 2, 3, 4)]),
    "P1^3": (1, [("seeded", 4)]),
    "P1xdP6": (1, [("std", 4)]),
}


def gw_kind(base):
    return {"P1": "builtin", "P2": "table"}.get(base, "assumed-zero")


class LadderJob:
    def __init__(self, base, coords, cutoff, rng):
        self.cls = base
        self.coords, self.cutoff = coords, cutoff
        rays, cones = inputs.BASES[base]
        n = len(rays[0]) + 1
        if coords == "seeded":
            g, self.chart = inputs.random_chart(rng, n - 1), inputs.random_chart(rng, n)
        else:
            g, self.chart = inputs.identity(n - 1), inputs.identity(n)
        self.base_rays = inputs.chart_rays(g, rays)
        self.base_cones = cones
        self.bundle_rays, self.bundle_cones = inputs.bundle_of(self.base_rays, cones)
        self.rays = inputs.chart_rays(self.chart, self.bundle_rays)
        self.recipe = inputs.KahlerRecipe(self.rays, self.bundle_cones)
        self.kind = gw_kind(base)
        self.table = None
        if self.kind == "table":
            self.table = inputs.p2_table_doc(self.rays, self.bundle_cones, self.recipe)
        self.correction = oracles.expected_correction(
            self.kind, self.recipe, cutoff, len(rays))
        self.key = f"{base}/cutoff{cutoff}"

    def run(self, step):
        # analyze
        base = step("fan.validate_s", validate_fan, len(self.base_rays[0]),
                    self.base_rays, self.base_cones)
        positivity = step("fan.relations_s", classify_positivity, base)
        # bundle
        fan_x = step("bundle.projectivize_s", projectivize_canonical, base)
        q_basis = step("bundle.q_basis_s", default_q_basis, fan_x)
        bundle_text = step("documents.emit_s", lambda: canonical_json(
            fan_to_document(fan_x, q_basis=q_basis)))
        # potential, on the bundle document re-charted and given Kahler data
        doc = step("documents.load_s", json.loads, bundle_text)
        rays = [list(inputs.mat_vec(self.chart, r)) for r in doc["rays"]]
        fan = step("fan.validate_s", validate_fan, doc["dimension"], rays,
                   doc["maximal_cones"])
        step("fan.relations_s", classify_positivity, fan)
        kahler = step("kahler.build_s", KahlerData, fan, self.recipe.lambdas,
                      self.recipe.q_basis)
        table = None
        if self.table is not None:
            table = step("documents.load_s", gw_table_from_document, self.table, fan)
        gw = step("gw.provider_s", GWProvider, kahler, table,
                  self.kind == "assumed-zero")
        factor, records = step("potential.correction_s", correction_details,
                               fan, kahler, gw, self.cutoff)
        poly = step("potential.assemble_s", corrected_potential,
                    fan, kahler, gw, self.cutoff)
        fandoc = FanDocument(fan, kahler, tuple(self.recipe.parameters),
                             tuple(self.recipe.lambdas), self.recipe.q_basis)
        pot_text = step("documents.emit_s", lambda: canonical_json(potential_to_document(
            poly, branch="corrected", fandoc=fandoc, cutoff=self.cutoff,
            correction=factor, gw_records=records)))
        return base, positivity, fan, bundle_text, pot_text

    def check(self, out, digests):
        base, positivity, fan, bundle_text, pot_text = out
        problems = []
        if positivity.value != "Fano":
            problems.append(f"base classified {positivity.value}")
        problems += oracles.check_bundle(json.loads(bundle_text),
                                         self.bundle_rays, self.bundle_cones)
        pot = json.loads(pot_text)
        lam = [self.recipe.lambda_exponents(i) for i in range(len(self.rays))]
        problems += oracles.check_potential(pot, self.rays, lam, self.correction)
        sources = {g["source"] for g in pot["gw_values"]}
        if sources - {self.kind}:
            problems.append(f"invariant sources {sorted(sources)}, expected {self.kind}")
        if self.coords == "std" and oracles.digest(pot_text) != digests.get(self.key):
            problems.append(f"potential document for {self.key} changed bytes")
        return problems

    def counts(self, out):
        base, _, fan, bundle_text, pot_text = out
        pot = json.loads(pot_text)
        # the bundle fan is validated twice: by projectivize and on reload
        validated = [len(base.maximal_cones)] + [len(fan.maximal_cones)] * 2
        out = {
            "fan.cones": sum(validated),
            "fan.cone_pairs": sum(comb(c, 2) for c in validated),
            "fan.primitive_collections": len(base.primitive_collections)
            + len(fan.primitive_collections),
            "gw.lookups": len(pot["gw_values"]),
            "potential.terms": len(pot["terms"]),
            "potential.correction_terms": len(pot["correction"]),
            "documents.bytes_out": len(bundle_text.encode()) + len(pot_text.encode()),
        }
        for g in pot["gw_values"]:
            out[f"gw.lookups.{g['source']}"] = out.get(f"gw.lookups.{g['source']}", 0) + 1
        return out


class Workload:
    """The deck of ladder jobs in seeded order, cycled."""

    mix = {base: count for base, (count, _) in DECK.items()}

    def __init__(self, seed, digests, root):
        rng = random.Random(seed)
        self.deck = []
        for base, (count, variants) in DECK.items():
            for k in range(count):
                coords, cutoff = variants[k % len(variants)]
                self.deck.append(LadderJob(base, coords, cutoff, rng))
        rng.shuffle(self.deck)

    def warmup(self):
        first = {}
        for job in self.deck:
            first.setdefault(job.cls, job)
        return list(first.values())

    def jobs(self):
        return itertools.cycle(self.deck)

    def close(self):
        pass
