"""Byte-identity of the exact CLI outputs against pinned SHA-256 digests.

Each run's exit code and the digest of what it wrote to stdout and stderr
are pinned in ``golden_digests.json``: ``analyze`` (text and ``--json``),
``bundle`` and ``potential --cutoff 0..3`` on every sample document, and the
potential documents of three projectivized canonical bundles that the test
writes with Kahler data; ``crit`` on every sample's potential and on a
P(K_F1+O) potential whose 2-D Newton factor its polyhedral starts settle;
and exact refusals of every subcommand, whose messages name no file path.
The solver's floats come from pure-Python IEEE double arithmetic and the C
library's exp and log, in a fixed order, so a ``crit`` document repeats bit
for bit on one platform. Re-record only when a change of bytes is meant:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import (dual_kahler, hirzebruch, hirzebruch2, p1_times_p1, projective_line,
                      projective_plane)
from toricmirror.bundle import default_q_basis, projectivize_canonical
from toricmirror.cli import main
from toricmirror.documents import fan_to_document, load_fan_document
from toricmirror.gw import fan_fingerprint

SAMPLES = Path(__file__).parents[1] / "sample_data"
DIGESTS = Path(__file__).with_name("golden_digests.json")
PINNED = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
CUTOFFS = (0, 1, 2, 3)

# bundle name -> (base fan, lambdas, potential flags)
BUNDLE_CASES = {
    "P(K_P1+O)": (projective_line, ["0", "0", "-t1", "-t2"], []),
    "P(K_P2+O)": (projective_plane, ["0", "0", "0", "-t1", "-t2"], []),
    "P(K_P1xP1+O)": (p1_times_p1, ["0", "0", "-t1", "0", "-t2", "-t3"],
                     ["--assume-zero-above-cutoff"]),
}
P2_LINE_LIFT = [-3, 1, 1, 1, 0]  # the line of P2 on the zero section
P2_VALUES = {1: "-2", 2: "5", 3: "-32"}
# cone (0, 1), the first quadrant, overlaps cone (2, 4) through (1, 1)
OVERLAPPING_FAN = {"dimension": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
                   "maximal_cones": [[0, 1], [2, 4], [2, 3], [0, 3]]}
# the boundary points of a square, diamond vertices first
SQUARE = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1], [-1, -1], [1, -1]]
SQUARE_ORDER = [1, 5, 2, 6, 3, 7, 4, 8]  # the ray indices around the square
# sample -> the --t values of its crit run, on its potential at cutoff 2
CRIT_T = {"f2.json": ["t1=1", "t2=1"], "p1.json": ["t=1"], "p1xp1.json": ["ta=1", "tb=2"],
          "p2.json": ["t=1"]}
# a point inside the Kahler cone of P(K_F1+O) with Kahler data dual to its
# first maximal cone
F1_BUNDLE_T = ["t1=43/10", "t2=18/5", "t3=553/100"]


def graded_document(points, cones) -> dict:
    """Fan document with rays e_3, (p, 1) for each point p and -e_3, and
    Kahler data with lambda 0 on the rays of the first cone and -t_j on
    each other ray."""
    rays = [[0, 0, 1]] + [p + [1] for p in points] + [[0, 0, -1]]
    off = [i for i in range(len(rays)) if i not in cones[0]]
    lambdas = ["0"] * len(rays)
    for j, i in enumerate(off):
        lambdas[i] = f"-t{j + 1}"
    return {"dimension": 3, "rays": rays, "maximal_cones": cones,
            "kahler": {"parameters": [f"t{j + 1}" for j in range(len(off))],
                       "lambdas": lambdas}}


# P(K_F2+O) built by hand, as the construction refuses F2, which is not
# Fano: every cone of F2 doubled. Recognized as a bundle, refused by base.
K_F2_FAN = graded_document(
    [list(r) for r in hirzebruch2().rays],
    [[0, a + 1, b + 1] for a, b in hirzebruch2().maximal_cones]
    + [[a + 1, b + 1, 5] for a, b in hirzebruch2().maximal_cones])
# graded, smooth and semi-Fano, but no bundle: the corner rays share no cone
# with ray 0, so the base read off ray 0's cones misses them
NOT_A_BUNDLE_FAN = graded_document(
    SQUARE, [[0, k, k % 4 + 1] for k in range(1, 5)]
    + [[SQUARE_ORDER[k], SQUARE_ORDER[(k + 1) % 8], 9] for k in range(8)]
    + [[SQUARE_ORDER[k], SQUARE_ORDER[k + 1], SQUARE_ORDER[(k + 2) % 8]] for k in (0, 2, 4, 6)])
# W = z1 + z2 + (1 - q1)/(z1 z2), whose last coefficient is 0 at t = 0
CANCELLING_POTENTIAL = {
    "format": "toricmirror-potential/1", "z_variables": 2, "q_variables": 1,
    "terms": [{"z": [1, 0], "coefficient": [{"q": [0], "value": "1"}]},
              {"z": [0, 1], "coefficient": [{"q": [0], "value": "1"}]},
              {"z": [-1, -1], "coefficient": [{"q": [0], "value": "1"},
                                              {"q": [1], "value": "-1"}]}],
    "q_areas": [{"constant": "0", "terms": {"t": "1"}}], "parameters": ["t"]}


def write_bundle_documents(folder: Path) -> dict:
    """Write each bundle's fan document, and a table of invariants for
    P(K_P2+O), into folder; returns name -> potential arguments without
    the cutoff."""
    out = {}
    for name, (base, lambdas, flags) in BUNDLE_CASES.items():
        x = projectivize_canonical(base())
        params = sorted({lam[1:] for lam in lambdas if lam != "0"})
        doc = fan_to_document(x, parameters=params, lambdas=lambdas,
                              q_basis=default_q_basis(x))
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out[name] = [str(path)] + flags
    table = {"fan_fingerprint": fan_fingerprint(projectivize_canonical(projective_plane())),
             "basis": [P2_LINE_LIFT],
             "entries": [{"class": [k], "value": v} for k, v in P2_VALUES.items()]}
    path = folder / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    out["P(K_P2+O)"] += ["--gw-table", str(path)]
    return out


def write_refusals(folder: Path, bundles: dict) -> dict:
    """Write the inputs of the pinned refusals into folder; returns run name
    -> CLI argument list. bundles is what write_bundle_documents returned."""
    f2 = str(SAMPLES / "f2.json")
    p2_bundle = bundles["P(K_P2+O)"][0]
    p2_fingerprint = fan_fingerprint(projectivize_canonical(projective_plane()))
    f2_fingerprint = fan_fingerprint(load_fan_document(f2).fan)
    paths = {}
    for name, doc in {
        "overlap": OVERLAPPING_FAN,
        "foreign table": {"fan_fingerprint": f2_fingerprint, "basis": [P2_LINE_LIFT],
                          "entries": [{"class": [1], "value": "-2"}]},
        "short key table": {"fan_fingerprint": p2_fingerprint, "basis": [P2_LINE_LIFT],
                            "entries": [{"class": [1, 0], "value": "-2"}]},
        "off-class table": {"fan_fingerprint": p2_fingerprint, "basis": [[1, 0, 0, 0, 0]],
                            "entries": []},
        "zero ray": {"dimension": 2, "rays": [[1, 0], [0, 0], [-1, -1]]},
        "repeated ray": {"dimension": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                         "maximal_cones": [[0, 0], [1, 2], [0, 2]]},
        "P(K_F2+O)": K_F2_FAN,
        "not a bundle": NOT_A_BUNDLE_FAN,
        "cancelling W": CANCELLING_POTENTIAL,
    }.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    pot = str(folder / "f2 potential.json")
    assert main(["potential", f2, "--cutoff", "2", "-o", pot]) == 0
    t = ["--t", "t1=1", "--t", "t2=1"]
    mutated = {}
    for name, mutate in {
        # a misspelled key would otherwise be dropped: the area meant as
        # t1 + 1 would read as t1
        "misspelled q-area key": lambda doc: doc["q_areas"][0].update(constnat="1"),
        "misspelled field": lambda doc: doc.update(q_area=doc["q_areas"]),
        # W's term z1 moved to z1^2*z2, its fan section left F2's
        "fan off W": lambda doc: next(
            term for term in doc["terms"] if term["z"] == [1, 0]).update(z=[2, 1]),
        "short q-term": lambda doc: doc["terms"][0]["coefficient"][0].update(q=[0]),
        "negative q-term": lambda doc: doc["terms"][0]["coefficient"][0].update(q=[-1, 0]),
    }.items():
        doc = json.loads(Path(pot).read_text(encoding="utf-8"))
        mutate(doc)
        mutated[name] = folder / f"f2 potential, {name}.json"
        mutated[name].write_text(json.dumps(doc), encoding="utf-8")
    return {
        "refuse analyze overlapping fan": ["analyze", str(paths["overlap"])],
        "refuse analyze zero ray": ["analyze", str(paths["zero ray"])],
        "refuse analyze cone repeating a ray": ["analyze", str(paths["repeated ray"])],
        "refuse potential P(K_F2+O) over a base that is not Fano":
            ["potential", str(paths["P(K_F2+O)"])],
        "refuse potential graded fan that is not a bundle":
            ["potential", str(paths["not a bundle"])],
        "refuse potential P(K_P1xP1+O) without zero-fill":
            ["potential", bundles["P(K_P1xP1+O)"][0], "--cutoff", "2"],
        "refuse potential f2.json --cutoff -1": ["potential", f2, "--cutoff", "-1"],
        "refuse potential P(K_P2+O) with F2's table":
            ["potential", p2_bundle, "--gw-table", str(paths["foreign table"])],
        "refuse potential P(K_P2+O) with a short table key":
            ["potential", p2_bundle, "--gw-table", str(paths["short key table"])],
        "refuse potential P(K_P2+O) with a table basis off the curve classes":
            ["potential", p2_bundle, "--gw-table", str(paths["off-class table"])],
        "refuse crit --phases 0": ["crit", pot, *t, "--phases", "0"],
        "refuse crit without --t t2": ["crit", pot, "--t", "t1=1"],
        "refuse crit with unknown --t": ["crit", pot, *t, "--t", "t=1"],
        "refuse crit outside the Kahler cone": ["crit", pot, "--t", "t1=-1/2", "--t", "t2=1"],
        "refuse crit coefficient that cancels to 0":
            ["crit", str(paths["cancelling W"]), "--t", "t=0"],
        "refuse crit --t t1 without a value": ["crit", pot, "--t", "t1", "--t", "t2=1"],
        "refuse crit misspelled q-area key":
            ["crit", str(mutated["misspelled q-area key"]), *t],
        "refuse crit misspelled potential field":
            ["crit", str(mutated["misspelled field"]), *t],
        "refuse crit fan section off W's exponents":
            ["crit", str(mutated["fan off W"]), "--t", "t1=4.6", "--t", "t2=4.6"],
        "refuse crit q-term of the wrong length": ["crit", str(mutated["short q-term"]), *t],
        "refuse crit q-term with a negative exponent":
            ["crit", str(mutated["negative q-term"]), *t],
    }


def write_crit_runs(folder: Path) -> dict:
    """Write the potential documents of the crit runs into folder; returns
    run name -> CLI argument list."""
    out = {}
    for path in sorted(SAMPLES.glob("*.json")):
        pot = str(folder / f"{path.stem} potential.json")
        assert main(["potential", str(path), "-o", pot]) == 0
        out[f"crit {path.name}"] = ["crit", pot] + [a for t in CRIT_T[path.name]
                                                      for a in ("--t", t)]
    x = projectivize_canonical(hirzebruch(1))
    k = dual_kahler(x)
    fan = folder / "P(K_F1+O) fan.json"
    fan.write_text(json.dumps(fan_to_document(x, parameters=k.parameter_names,
                                              lambdas=k.lambdas, q_basis=k.q_basis)),
                   encoding="utf-8")
    pot = str(folder / "P(K_F1+O) potential.json")
    assert main(["potential", str(fan), "--assume-zero-above-cutoff", "-o", pot]) == 0
    out["crit P(K_F1+O)"] = ["crit", pot] + [a for t in F1_BUNDLE_T for a in ("--t", t)]
    return out


def runs(folder: Path) -> dict:
    """Run name -> CLI argument list, for every pinned run."""
    out = {}
    for path in sorted(SAMPLES.glob("*.json")):
        out[f"analyze {path.name}"] = ["analyze", str(path)]
        out[f"analyze --json {path.name}"] = ["analyze", "--json", str(path)]
        out[f"bundle {path.name}"] = ["bundle", str(path)]
        for cutoff in CUTOFFS:
            out[f"potential {path.name} --cutoff {cutoff}"] = \
                ["potential", str(path), "--cutoff", str(cutoff)]
    bundles = write_bundle_documents(folder)
    for name, args in bundles.items():
        for cutoff in CUTOFFS:
            out[f"potential {name} --cutoff {cutoff}"] = \
                ["potential", args[0], "--cutoff", str(cutoff)] + args[1:]
    out.update(write_refusals(folder, bundles))
    out.update(write_crit_runs(folder))
    return out


def run(argv) -> dict:
    """Exit code and SHA-256 of stdout followed by stderr, in UTF-8."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = stdout.getvalue() + stderr.getvalue()
    return {"exit": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_pinned_runs_are_listed(tmp_path):
    assert sorted(runs(tmp_path)) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_unchanged(tmp_path, name):
    assert run(runs(tmp_path)[name]) == PINNED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        record = {name: run(argv) for name, argv in runs(Path(folder)).items()}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
