"""cli-mixed: one job is one `python -m toricmirror.cli` process, run to
completion before the next starts.

Interpreter start and import dominate the median. The deck puts `crit` on
F2 and the larger documents around p90, and `crit` on the P(K_P2 + O)
potential (a truncated solver run) and two rejections of a 24-cone 4-D fan
with one cone dropped in the tail, so a fast path for valid fans that
slows rejection shows here. Every rejection
must exit with its documented code.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import oracles

EXIT_OK, EXIT_SCHEMA, EXIT_INVALID_FAN, EXIT_NOT_FANO, EXIT_UNKNOWN_INVARIANT = 0, 2, 3, 4, 5
TIMEOUT_S = 60

# class -> jobs per deck. Sorted by time: 59 jobs near 0.15 s (the median
# is the 50th), 35 from 0.2 to 0.3 s (`crit` on F2 and the larger
# documents; p90 is among them), 4 `crit` runs on P(K_P2 + O) near 0.5 s,
# and the two 2 s rejections.
DECK = {
    "analyze-sample": 18, "analyze-seeded": 20, "potential-f2": 9,
    "reject-overlap": 4, "reject-not-fano": 4, "reject-malformed": 4,
    "bundle-sample": 5, "bundle-seeded": 5, "potential-p2": 3, "potential-f1": 3,
    "crit-f2": 15, "reject-no-table": 4,
    "crit-p2": 4,
    "reject-4d-dropped-cone": 2,
}

SAMPLES = {"f2": "SemiFanoNotFano", "p1": "Fano", "p1xp1": "Fano", "p2": "Fano"}


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


class CliJob:
    def __init__(self, cls, args, expect_exit, check=None):
        self.cls = cls
        self.command = cls.split("-")[0]
        self.args = [str(a) for a in args]
        self.expect_exit = expect_exit
        self._check = check
        self.env = None

    def run(self, step):
        return step(f"cli.{self.command}_s", subprocess.run,
                    [sys.executable, "-m", "toricmirror.cli", *self.args],
                    env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S)

    def check(self, proc, digests):
        if proc.returncode != self.expect_exit:
            return [f"exit {proc.returncode}, expected {self.expect_exit}: "
                    f"{proc.stderr.strip()[:200]}"]
        if self.expect_exit != EXIT_OK:
            return [] if proc.stderr.startswith("error:") else ["no error message"]
        return self._check(proc.stdout, digests)

    def counts(self, proc):
        return {"cli.exit_mismatch": int(proc.returncode != self.expect_exit),
                "documents.bytes_out": len(proc.stdout.encode())}


def _check_analyze(rays, classification, as_json):
    def check(stdout, digests):
        if as_json:
            doc = json.loads(stdout)
            ok = (doc["valid"] and doc["classification"] == classification
                  and [tuple(r) for r in doc["rays"]] == [tuple(r) for r in rays])
        else:
            lines = stdout.splitlines()
            ok = lines[0].endswith("valid") and f"classification: {classification}" in lines
        return [] if ok else [f"analyze output wrong: {stdout[:200]}"]
    return check


def _check_bundle(base_rays, base_cones):
    rays, cones = inputs.bundle_of(base_rays, base_cones)
    return lambda stdout, digests: oracles.check_bundle(json.loads(stdout), rays, cones)


def _same_bytes(stdout, digests, key):
    if oracles.digest(stdout) != digests.get(key):
        return [f"potential document for {key} changed bytes"]
    return []


def _check_f2_potential(stdout, digests):
    return (oracles.check_f2_closed_form(json.loads(stdout))
            + _same_bytes(stdout, digests, "F2-paper/cutoff2"))


def _check_potential(rays, lam, correction, key):
    def check(stdout, digests):
        return (oracles.check_potential(json.loads(stdout), rays, lam, correction)
                + _same_bytes(stdout, digests, key))
    return check


def _check_crit(pot_doc, t, expected, f2):
    def check(stdout, digests):
        doc = json.loads(stdout)
        problems, _ = oracles.check_critical(doc, pot_doc, t, expected, f2, 1e-12)
        if f2:
            problems += oracles.check_f2_roots(doc, t)
        return problems
    return check


def _rays_of(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["rays"]


class Workload:
    """Input documents written to a work directory inside the checkout."""

    mix = DECK

    def __init__(self, seed, digests, root):
        self.root = Path(root)
        self.env = child_env(root)
        self.work = self.root / ".perfbench" / f"work-{os.getpid()}-{id(self)}"
        self.work.mkdir(parents=True)
        rng = random.Random(seed)
        samples = self.root / "sample_data"

        def write(name, obj):
            path = self.work / name
            path.write_text(obj if isinstance(obj, str) else json.dumps(obj),
                            encoding="utf-8")
            return path

        # bundle documents in standard coordinates with the cone-zero recipe
        bundles = {}
        for base in ("P2", "F1"):
            rays, cones = inputs.bundle_of(*inputs.BASES[base])
            recipe = inputs.KahlerRecipe(rays, cones)
            bundles[base] = (rays, cones, recipe,
                             write(f"{base}-bundle.json", inputs.fan_doc(rays, cones, recipe)))
        p2_rays, p2_cones, p2_recipe, p2_path = bundles["P2"]
        table = write("P2-table.json", inputs.p2_table_doc(p2_rays, p2_cones, p2_recipe))

        # potentials for crit, made with the CLI itself
        pots = {}
        for name, args in (("F2", [samples / "f2.json"]),
                           ("P2", [p2_path, "--gw-table", table])):
            proc = subprocess.run([sys.executable, "-m", "toricmirror.cli", "potential",
                                   *map(str, args)], env=self.env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"potential for {name} failed: {proc.stderr}")
            pots[name] = (write(f"{name}-potential.json", proc.stdout), json.loads(proc.stdout))

        # rejections
        r4, c4 = inputs.bundle_of(*inputs.BASES["P1xdP6"])
        gone = rng.choice(c4)
        dropped = write("dropped-cone.json", inputs.fan_doc(r4, [c for c in c4 if c != gone]))
        overlap = write("overlap.json", {
            "dimension": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
            "maximal_cones": [[0, 1], [1, 2], [0, 2], [0, 3]]})
        f3 = write("F3.json", inputs.fan_doc(*inputs.F3))
        text = (samples / "p2.json").read_text(encoding="utf-8")
        malformed = write("malformed.json", text[: rng.randrange(5, len(text) - 5)])

        makers = {
            "analyze-sample": self._analyze_sample,
            "analyze-seeded": self._analyze_seeded,
            "bundle-sample": self._bundle_sample,
            "bundle-seeded": self._bundle_seeded,
            "potential-f2": lambda rng, k: CliJob(
                "potential-f2", ["potential", samples / "f2.json", "--cutoff", 2], EXIT_OK,
                _check_f2_potential),
            "potential-p2": lambda rng, k: self._potential_bundle(
                "potential-p2", bundles["P2"], 1 + k % 4, "table", ["--gw-table", table]),
            "potential-f1": lambda rng, k: self._potential_bundle(
                "potential-f1", bundles["F1"], 1 + k % 4, "assumed-zero",
                ["--assume-zero-above-cutoff"]),
            "crit-f2": lambda rng, k: self._crit("crit-f2", pots["F2"], inputs.F2_RAYS,
                                                 inputs.F2_CONES, inputs.f2_offsets, rng),
            "crit-p2": lambda rng, k: self._crit("crit-p2", pots["P2"], p2_rays, p2_cones,
                                                 p2_recipe.offsets, rng),
            "reject-overlap": lambda rng, k: CliJob(
                "reject-overlap", ["analyze", overlap], EXIT_INVALID_FAN),
            "reject-not-fano": lambda rng, k: CliJob(
                "reject-not-fano", ["bundle", f3], EXIT_NOT_FANO),
            "reject-no-table": lambda rng, k: CliJob(
                "reject-no-table", ["potential", p2_path], EXIT_UNKNOWN_INVARIANT),
            "reject-malformed": lambda rng, k: CliJob(
                "reject-malformed", ["analyze", malformed], EXIT_SCHEMA),
            "reject-4d-dropped-cone": lambda rng, k: CliJob(
                "reject-4d-dropped-cone", ["analyze", dropped], EXIT_INVALID_FAN),
        }
        self.deck = [makers[cls](rng, k) for cls, count in DECK.items() for k in range(count)]
        for job in self.deck:
            job.env = self.env
        rng.shuffle(self.deck)

    # -- job makers --

    def _analyze_sample(self, rng, k):
        name = sorted(SAMPLES)[k % len(SAMPLES)]
        path = self.root / "sample_data" / f"{name}.json"
        as_json = bool(k // len(SAMPLES) % 2)
        return CliJob("analyze-sample", ["analyze", path] + (["--json"] if as_json else []),
                      EXIT_OK, _check_analyze(_rays_of(path), SAMPLES[name], as_json))

    def _seeded_base(self, rng, k, prefix):
        base = ("dP6", "F1", "P1xP1", "P2")[k % 4]
        rays, cones = inputs.BASES[base]
        rays = inputs.chart_rays(inputs.random_chart(rng, len(rays[0])), rays)
        path = self.work / f"{prefix}-{k}-{base}.json"
        path.write_text(json.dumps(inputs.fan_doc(rays, cones)), encoding="utf-8")
        return path, rays, cones

    def _analyze_seeded(self, rng, k):
        path, rays, _ = self._seeded_base(rng, k, "analyze")
        return CliJob("analyze-seeded", ["analyze", path, "--json"], EXIT_OK,
                      _check_analyze(rays, "Fano", True))

    def _bundle_sample(self, rng, k):
        name = ("p1", "p2", "p1xp1")[k % 3]
        path = self.root / "sample_data" / f"{name}.json"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        cones = doc.get("maximal_cones") or inputs.BASES["P1xP1"][1]
        return CliJob("bundle-sample", ["bundle", path], EXIT_OK,
                      _check_bundle(doc["rays"], [tuple(c) for c in cones]))

    def _bundle_seeded(self, rng, k):
        path, rays, cones = self._seeded_base(rng, k, "bundle")
        return CliJob("bundle-seeded", ["bundle", path], EXIT_OK, _check_bundle(rays, cones))

    def _potential_bundle(self, cls, bundle, cutoff, kind, extra):
        rays, cones, recipe, path = bundle
        lam = [recipe.lambda_exponents(i) for i in range(len(rays))]
        nbase = len(rays) - 2
        base = cls.split("-")[1].upper()
        return CliJob(cls, ["potential", path, "--cutoff", cutoff, *extra], EXIT_OK,
                      _check_potential(rays, lam,
                                       oracles.expected_correction(kind, recipe, cutoff, nbase),
                                       f"{base}/cutoff{cutoff}"))

    def _crit(self, cls, pot, rays, cones, offsets, rng):
        path, doc = pot
        point = inputs.draw_parameters(rng, rays, cones, offsets, doc["parameters"])
        # both potentials' q-basis areas are their parameters t1, t2
        t = [float(point[name]) for name in doc["parameters"]]
        args = ["crit", path]
        for name, value in point.items():
            args += ["--t", f"{name}={float(value)!r}"]
        return CliJob(cls, args, EXIT_OK,
                      _check_crit(doc, t, len(cones), cls == "crit-f2"))

    # -- workload interface --

    def warmup(self):
        first = {}
        for job in self.deck:
            first.setdefault(job.cls, job)
        return list(first.values())

    def jobs(self):
        return itertools.cycle(self.deck)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
