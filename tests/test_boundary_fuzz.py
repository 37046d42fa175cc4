"""Seeded mutations of the sample documents through every subcommand: a
malformed or degenerate input must end in a typed error with its exit
code, never in an internal error (exit 1). The library's own entry points
refuse non-integer lattice data instead of truncating it."""

import copy
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import F2_LAMBDAS, hirzebruch2, hirzebruch2_kahler, projective_plane
from toricmirror.cli import main
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.lattice import is_primitive, lattice_coordinates, normalized_volume
from toricmirror.laurent import LaurentPoly, QPoly

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


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]

# each call hands one non-integer to a place that reads lattice data
NON_INTEGER = {
    "fan-dimension": lambda: validate_fan(2.9, P2_RAYS),
    "fan-ray": lambda: validate_fan(2, [(1.7, 0), (0, 1), (-1, -1)]),
    "fan-cone-index": lambda: validate_fan(2, P2_RAYS, [(0, 1), (1, 2), (0.0, 2)]),
    "q-basis": lambda: KahlerData(hirzebruch2(), F2_LAMBDAS,
                                  q_basis=[(-2.4, 1.2, 1, 0), (1, 0, 0, 1)]),
    "gw-lookup": lambda: GWProvider(hirzebruch2_kahler()).lookup((-2.2, 1, 1, 0)),
    "qpoly-exponent": lambda: QPoly(1, {(1.8,): 1}),
    "qpoly-nvars": lambda: QPoly(1.0),
    "laurent-exponent": lambda: LaurentPoly(1, 0, {(1.5,): 1}),
    "laurent-zvars": lambda: LaurentPoly(1.0, 0),
    "laurent-qvars": lambda: LaurentPoly(1, 1.0),
    "is-primitive": lambda: is_primitive((2.5, 1)),
    "coordinates": lambda: lattice_coordinates([(1, 0), (0, 1)])((1.5, 0)),
    "volume": lambda: normalized_volume([(0, 0), (1.5, 0), (0, 1)]),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER))
def test_non_integer_lattice_data_refused(case):
    with pytest.raises(TypeError):
        NON_INTEGER[case]()


def test_integer_likes_accepted():
    # operator.index takes any integer type, numpy's included
    rays = [tuple(np.int64(x) for x in r) for r in P2_RAYS]
    assert validate_fan(np.int64(2), rays) == projective_plane()
    assert QPoly(np.int64(1), {(np.int64(2),): 1}) == QPoly(1, {(2,): 1})
