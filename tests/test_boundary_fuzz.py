"""Seeded mutations of the sample documents through every subcommand: a
malformed or degenerate input must end in a typed error with its exit
code, never in an internal error (exit 1)."""

import copy
import json
import os
import random
from pathlib import Path

import pytest

from toricmirror.cli import main

SAMPLES = Path(__file__).parents[1] / "sample_data"

# replacements for one node of a document
VALUES = [None, True, False, 0, -1, 7, 1.5, -0.5, 1e300, "", "0", "1/0", "-1/0*t1",
          "t1", "2-t", "abc", [], [[]], [0], [[1, 0]], [[0, 1], [1, 0]], [None],
          [1, "x"], [[1.5]], {}, {"a": 1}, {"constant": "1/0"}]


def _nodes(obj, path=()):
    """Every node below the root, as a key path."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def mutate(doc, rng):
    """Replace one node of a copy of doc by a value from VALUES, or drop it."""
    doc = copy.deepcopy(doc)
    *parent_path, key = rng.choice(list(_nodes(doc)))
    parent = doc
    for k in parent_path:
        parent = parent[k]
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    fans = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(SAMPLES.glob("*.json"))]
    pot = tmp_path_factory.mktemp("pot") / "f2_potential.json"
    assert main(["potential", str(SAMPLES / "f2.json"), "-o", str(pot)]) == 0
    return fans, json.loads(pot.read_text(encoding="utf-8"))


def test_no_mutation_ends_in_an_internal_error(sources, tmp_path, capsys):
    fans, potential = sources
    rng = random.Random(13)
    path = str(tmp_path / "doc.json")
    codes = {}
    for case in range(300):
        if case % 5 == 4:
            doc = mutate(potential, rng)
            runs = [["crit", path, "--t", "t1=1", "--t", "t2=1", "--max-starts", "64"]]
        else:
            doc = mutate(fans[case % len(fans)], rng)
            runs = [["analyze", path], ["bundle", path],
                    ["potential", path, "--assume-zero-above-cutoff"]]
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        for argv in runs:
            code = main(argv + ["-o", os.devnull])
            err = capsys.readouterr().err
            assert code != 1, (argv[0], doc, err)
            codes[code] = codes.get(code, 0) + 1
    # the mutations reach success and several typed refusals
    assert {0, 2, 3} <= set(codes), codes
