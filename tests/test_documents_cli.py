"""JSON schemas, round-trips, CLI exit codes, output determinism."""

import enum
import importlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import toricmirror
from conftest import (
    FACTOR_WITHOUT_ROOTS,
    NO_ISOLATED_ROOTS,
    hirzebruch,
    hirzebruch2,
    newton_must_not_run,
    projective_plane,
    random_smooth_2d_fan,
    random_unimodular,
    unimodular_map_search,
)
from toricmirror import cli, errors, roots
from toricmirror.bundle import projectivize_canonical
from toricmirror.cli import main
from toricmirror.documents import (
    CRITICAL_FORMAT,
    POTENTIAL_FORMAT,
    canonical_json,
    fan_from_document,
    fan_to_document,
    gw_table_from_document,
    load_fan_document,
    load_potential_document,
    potential_from_document,
)
from toricmirror.errors import SchemaError
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider, fan_fingerprint
from toricmirror.kahler import KahlerData
from toricmirror.linform import LinForm, parse_linear_form

F2_DOC = {
    "dimension": 2,
    "rays": [[0, -1], [1, 0], [-1, -2], [0, 1]],
    "kahler": {
        "parameters": ["t1", "t2"],
        "lambdas": ["-t2", "0", "-t1-2*t2", "0"],
    },
    "q_basis": [[-2, 1, 1, 0], [1, 0, 0, 1]],
}

# Bl_pt P2, Fano: its Hori-Vafa W is no product, no simplex and has no
# fiber grading, so crit solves it whole on the grid
F1_DOC = {
    "dimension": 2,
    "rays": [[1, 0], [0, 1], [-1, -1], [0, -1]],
    "maximal_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    "kahler": {"parameters": ["t1", "t2"], "lambdas": ["0", "0", "-t1", "-t2"]},
}

DP6_DOC = {
    "dimension": 2,
    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    "maximal_cones": [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]],
    "kahler": {"parameters": ["t1", "t2", "t3", "t4"],
               "lambdas": ["0", "0", "-t1", "-t2", "-t3", "-t4"]},
    "q_basis": [[1, -1, 1, 0, 0, 0], [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0],
                [-1, 1, 0, 0, 0, 1]],
}

P1_DOC = {
    "dimension": 1,
    "rays": [[1], [-1]],
    "maximal_cones": [[0], [1]],
    "kahler": {"parameters": ["t"], "lambdas": ["0", "-t"]},
}

P2_DOC = {
    "dimension": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "maximal_cones": [[0, 1], [1, 2], [0, 2]],
    "kahler": {"parameters": ["t"], "lambdas": ["0", "0", "-t"]},
}

T001 = "4.605170185988091"  # q ~ 0.01
HUGE_EXPONENT = "1e-99999999"
HUGE_EXPONENT_ERROR = (f"error: rational value {HUGE_EXPONENT!r} has a decimal exponent "
                       f"above 4300 in magnitude\n")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if isinstance(obj, dict) else obj,
                    encoding="utf-8")
    return str(path)


class TestFanDocuments:
    def test_f2_document_parses(self):
        doc = fan_from_document(F2_DOC)
        assert doc.fan.nrays == 4
        assert doc.kahler is not None
        assert doc.kahler.q_basis == ((-2, 1, 1, 0), (1, 0, 0, 1))

    def test_unknown_field_rejected(self):
        bad = dict(F2_DOC, extra=1)
        with pytest.raises(SchemaError):
            fan_from_document(bad)

    def test_unknown_kahler_field_rejected(self):
        bad = dict(F2_DOC, kahler=dict(F2_DOC["kahler"], foo=[]))
        with pytest.raises(SchemaError):
            fan_from_document(bad)

    def test_undeclared_parameter_rejected(self):
        bad = dict(F2_DOC, kahler={"parameters": ["t1"],
                                   "lambdas": ["-t2", "0", "0", "0"]})
        with pytest.raises(SchemaError):
            fan_from_document(bad)

    @pytest.mark.parametrize("kahler", [True, False], ids=["kahler", "no-kahler"])
    @pytest.mark.parametrize("command", ["analyze", "bundle"])
    @pytest.mark.parametrize("q_basis, message", [
        ([[1, 2, 3], [4, 5, 6]], "q-basis vector (1, 2, 3) is not a curve class"),
        ([[1, 1, 1], [2, 2, 2]], "q-basis has 2 classes; homology rank is 1"),
        ([[2, 2, 2]], "q-basis does not span the homology lattice"),
    ])
    def test_q_basis_checked(self, tmp_path, capsys, kahler, command, q_basis, message):
        # one check, whether or not a kahler section reads the q-basis
        doc = dict(P2_DOC, q_basis=q_basis)
        if not kahler:
            del doc["kahler"]
        path = write(tmp_path, "p2.json", doc)
        capsys.readouterr()
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_integer_ray_rejected(self):
        bad = dict(F2_DOC, rays=[[0, -1.5], [1, 0], [-1, -2], [0, 1]])
        with pytest.raises(SchemaError):
            fan_from_document(bad)

    def test_round_trip(self, f2):
        doc = fan_to_document(f2)
        parsed = fan_from_document(doc)
        assert parsed.fan == f2


class TestFingerprint:
    def test_stable_under_ray_permutation(self):
        fan_a = validate_fan(2, [(0, -1), (1, 0), (-1, -2), (0, 1)])
        fan_b = validate_fan(2, [(1, 0), (0, 1), (0, -1), (-1, -2)])
        assert fan_fingerprint(fan_a) == fan_fingerprint(fan_b)

    def test_distinguishes_fans(self, p2, f2):
        assert fan_fingerprint(p2) != fan_fingerprint(f2)


class TestGWTableDocuments:
    def test_schema_errors(self, f2):
        with pytest.raises(SchemaError):
            gw_table_from_document({"basis": [], "entries": []}, f2)
        with pytest.raises(SchemaError):
            gw_table_from_document({
                "fan_fingerprint": "x", "basis": [[1, 0, 0, 1]],
                "entries": [{"class": [1], "value": "nope"}],
            }, f2)

    def test_duplicate_keys_rejected(self, f2):
        with pytest.raises(SchemaError):
            gw_table_from_document({
                "fan_fingerprint": fan_fingerprint(f2),
                "basis": [[-2, 1, 1, 0]],
                "entries": [{"class": [1], "value": "1"},
                            {"class": [1], "value": "2"}],
            }, f2)


class TestAnalyzeCommand:
    def test_f2_report(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2_DOC)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "SemiFanoNotFano" in out
        assert "degree 2" in out and "degree 0" in out

    def test_plane_report_json(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_DOC)
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Fano"
        assert payload["primitive_relations"][0]["degree"] == 3

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        assert main(["analyze", path]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 1, "rays": [[1], [-1]], "x": "\xff"}')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_invalid_fan_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "gap.json",
                     {"dimension": 2, "rays": [[1, 0], [-1, 0]]})
        assert main(["analyze", path]) == 3

    def test_rejections_hold_without_asserts(self, tmp_path, p2):
        # python -O strips assert statements; rejection must not rely on them
        overlap = {"dimension": 2,
                   "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
                   "maximal_cones": [[0, 1], [2, 4], [2, 3], [0, 3]]}
        x = projectivize_canonical(p2)
        dropped = {"dimension": 3, "rays": [list(r) for r in x.rays],
                   "maximal_cones": [list(c) for c in x.maximal_cones[1:]]}
        env = dict(os.environ, PYTHONPATH=str(Path(toricmirror.__file__).parents[1]))
        for name, doc in (("overlap.json", overlap), ("dropped.json", dropped)):
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "toricmirror.cli", "analyze",
                 write(tmp_path, name, doc)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 3, (name, proc.stderr)
            assert proc.stderr.startswith("error: "), proc.stderr

    def test_non_unimodular_exit_3_without_asserts(self, tmp_path):
        from test_fan import NON_UNIMODULAR

        env = dict(os.environ, PYTHONPATH=str(Path(toricmirror.__file__).parents[1]))
        for name, (dim, rays, cones) in NON_UNIMODULAR.items():
            doc = {"dimension": dim, "rays": [list(r) for r in rays],
                   "maximal_cones": [list(c) for c in cones]}
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "toricmirror.cli", "analyze",
                 write(tmp_path, f"{name}.json", doc)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 3, (name, proc.stderr)
            assert proc.stderr.startswith(f"error: cone {tuple(cones[0])} has |det| "), \
                proc.stderr


# exit codes from the cli module docstring: 3 invalid or unsupported fan,
# 4 base not Fano, 5 unknown invariant, 6 no convergence, 7 more critical
# points than the root bound, 2 any other input error, 1 internal error
EXIT_CODES = {
    "ToricMirrorError": 2, "NotFullRank": 2, "ZeroVector": 2,
    "DependentGenerators": 2, "DimensionMismatch": 2, "InvalidFan": 3,
    "NonPrimitiveRay": 3, "NonUnimodularCone": 3, "IncompleteFan": 3,
    "BadFaceIntersection": 3, "FocusNotFound": 3, "NotFano": 4,
    "EmptyInterior": 2, "NotInBasisSpan": 2, "LambdaNotQExpressible": 2,
    "UnknownInvariant": 5, "BadChernDegree": 2, "FingerprintMismatch": 2,
    "InconsistentTable": 2, "SchemaError": 2, "NotBundleShaped": 3,
    "ZeroCoordinate": 2, "NoConvergence": 6, "RootBoundExceeded": 7,
    "FileNotFoundError": 2, "RuntimeError": 1,
}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


@pytest.mark.parametrize("exc_type", ERROR_CLASSES + [FileNotFoundError, RuntimeError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error(monkeypatch, capsys, exc_type):
    def fail(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "_cmd_analyze", fail)
    expected = EXIT_CODES[exc_type.__name__]
    assert main(["analyze", "unused.json"]) == expected
    prefix = "internal error: " if expected == 1 else "error: "
    assert capsys.readouterr().err == prefix + "boom\n"


SAMPLES = Path(__file__).parents[1] / "sample_data"


@pytest.mark.parametrize("command", ["analyze", "bundle", "potential", "crit"])
@pytest.mark.parametrize("target, reason", [
    ("", "Is a directory"), ("missing/out.json", "No such file or directory")])
def test_unwritable_output_exit_2(tmp_path, capsys, command, target, reason):
    argv = [write(tmp_path, "p1.json", P1_DOC)]
    if command == "crit":
        pot = str(tmp_path / "pot.json")
        assert main(["potential", *argv, "-o", pot]) == 0
        argv = [pot, "--t", f"t={T001}"]
    out = str(tmp_path / target)
    assert main([command, *argv, "-o", out]) == 2
    assert capsys.readouterr() == ("", f"error: {out}: cannot write ({reason})\n")


# solver name -> the module that serves it
SOLVER_NAMES = {"CriticalReport": "roots", "SolverOptions": "roots",
                "find_critical_points": "critical", "moduli_from_polytope": "roots"}
# the names toricmirror.critical re-exports from roots, find_critical_points
# as roots.solve
CRITICAL_NAMES = ("SolverOptions", "find_critical_points", "moduli_from_polytope")
WATCHED = ("dataclasses", "hashlib", "numpy", "toricmirror.critical", "toricmirror.gw",
           "toricmirror.laurent", "toricmirror.potential")


def bundle_potential(tmp_path, base, name):
    """The potential document of P(K_Y+O) over the base fan, with Kahler
    data dual to its first maximal cone and invariants absent from every
    source read as 0, and a parameter point inside its Kahler cone."""
    from conftest import dual_kahler, moment_vertices
    from toricmirror.errors import EmptyInterior

    fan = projectivize_canonical(base)
    k = dual_kahler(fan)
    fan_path = write(tmp_path, f"fan_{name}.json", fan_to_document(
        fan, parameters=k.parameter_names, lambdas=k.lambdas, q_basis=k.q_basis))
    pot = str(tmp_path / f"{name}.json")
    assert main(["potential", fan_path, "--assume-zero-above-cutoff", "-o", pot]) == 0
    rng = random.Random(3)
    while True:
        params = {name: Fraction(rng.randint(300, 600), 100) for name in k.parameter_names}
        try:
            moment_vertices(k, params)
        except EmptyInterior:
            continue
        return pot, [f"--t={name}={float(v)}" for name, v in params.items()]


def unit_potential(tmp_path, name, exponents) -> str:
    """Write a hand-written potential document, the sum of z^a over the
    exponents with no parameter, into tmp_path; returns its path."""
    return write(tmp_path, name, {
        "format": "toricmirror-potential/1", "z_variables": len(exponents[0]),
        "q_variables": 0, "q_areas": [], "parameters": [],
        "terms": [{"z": list(a), "coefficient": [{"q": [], "value": "1"}]} for a in exponents]})


class TestLazySolver:
    """Only `crit` loads the solver, and never numpy; the exact subcommands
    start without it, and each loads only the layers it runs."""

    def run_python(self, code):
        paths = [str(Path(toricmirror.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_numpy_unloaded(self):
        out = self.run_python(
            "import sys, toricmirror, toricmirror.cli\n"
            "print('numpy' in sys.modules)\n"
            "toricmirror.SolverOptions, toricmirror.moduli_from_polytope\n"
            "print('numpy' in sys.modules)\n"
            "toricmirror.find_critical_points\n"
            "print('numpy' in sys.modules)\n")
        assert out == "False\nFalse\nFalse\n"

    def test_package_import_loads_no_submodule(self):
        out = self.run_python(
            "import sys, toricmirror\n"
            "print(sorted(m for m in sys.modules if m.startswith('toricmirror.')))\n"
            "toricmirror.validate_fan\n"
            "print(sorted(m for m in sys.modules if m.startswith('toricmirror.')))\n")
        assert out == "[]\n['toricmirror.errors', 'toricmirror.fan', 'toricmirror.lattice']\n"

    def test_evaluation_leaves_numpy_unloaded(self):
        out = self.run_python(
            "import sys, toricmirror\n"
            "from conftest import hirzebruch2_kahler\n"
            "k = hirzebruch2_kahler()\n"
            "W = toricmirror.corrected_potential(k.fan, k, toricmirror.GWProvider(k), 2)\n"
            "toricmirror.evaluate(W, [1, 1], [1, 1])\n"
            "toricmirror.gradient(W, [1, 1], [1, 1])\n"
            "print('numpy' in sys.modules)\n")
        assert out == "False\n"

    def loaded_by(self, argv, prelude=""):
        """Exit code of one CLI run in a fresh interpreter, after the
        prelude, and the WATCHED modules loaded when it returns."""
        out = self.run_python(
            "import json, os, sys\n"
            f"{prelude}"
            "from toricmirror.cli import main\n"
            f"code = main({argv!r} + ['-o', os.devnull])\n"
            f"print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))\n")
        code, modules = json.loads(out)
        return code, modules

    def test_exact_commands_leave_numpy_unloaded(self, tmp_path):
        f2, p2 = str(SAMPLES / "f2.json"), str(SAMPLES / "p2.json")
        fan = fan_from_document(json.loads(Path(f2).read_text(encoding="utf-8"))).fan
        table = write(tmp_path, "table.json", {
            "fan_fingerprint": fan_fingerprint(fan),
            "basis": [list(b) for b in fan.homology_basis], "entries": []})
        exact = ["toricmirror.gw", "toricmirror.laurent", "toricmirror.potential"]
        runs = [
            (["analyze", f2], 0, []),
            (["analyze", f2, "--json"], 0, []),
            (["bundle", f2], 4, []),
            (["bundle", p2], 0, []),
            (["potential", f2, "--cutoff", "2"], 0, exact),
            (["potential", f2, "--gw-table", table], 0, ["hashlib"] + exact),
        ]
        assert [self.loaded_by(argv) for argv, _, _ in runs] == [
            (code, modules) for _, code, modules in runs]

    def test_crit_loads_nothing_beyond_roots(self, tmp_path):
        # F2 solves in closed form; on dP6 with unit coefficients two
        # polyhedral starts end on one root and the start grid continues;
        # the blow-up of P3 at a point is one 3-D Newton factor, solved from
        # the start grid alone. None of these runs loads a module that
        # importing the CLI and the solver (roots) and building the argument
        # parser (argparse loads locale) do not, numpy included
        f2 = str(tmp_path / "f2.json")
        assert main(["potential", str(SAMPLES / "f2.json"), "-o", f2]) == 0
        blp3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
        runs = [([f2, "--t", "t1=1", "--t", "t2=1"], [(1, 2, "closed-form")], 0),
                ([unit_potential(tmp_path, "dp6.json", DP6_DOC["rays"])],
                 [(2, 6, "newton")], 1),
                ([unit_potential(tmp_path, "blp3.json", blp3)], [(3, 6, "newton")], 0)]
        for argv, factors, fallbacks in runs:
            out = str(tmp_path / "crit.json")
            code = self.run_python(
                "import json, sys\n"
                "import toricmirror.cli, toricmirror.roots\n"
                "toricmirror.cli.build_parser()\n"
                "before = set(sys.modules)\n"
                f"code = toricmirror.cli.main({['crit', *argv, '-o', out]!r})\n"
                "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")
            assert json.loads(code) == [0, []]
            doc = json.loads(Path(out).read_text(encoding="utf-8"))
            assert [(f["dimension"], f["expected"], f["solve"]) for f in doc["factors"]] == factors
            assert doc["multistart"]["grid_fallbacks"] == fallbacks
            assert doc["multistart"]["deduped"] == doc["multistart"]["expected"]

    def test_solver_names_resolve(self):
        import toricmirror.critical

        homes = {n: getattr(importlib.import_module(f"toricmirror.{m}"), n)
                 for n, m in SOLVER_NAMES.items()}
        assert [n for n in SOLVER_NAMES if getattr(toricmirror, n) is not homes[n]] == []
        assert [n for n in CRITICAL_NAMES
                if getattr(toricmirror.critical, n) is not homes[n]] == []
        namespace = {}
        exec("from toricmirror import *", namespace)
        assert [n for n in SOLVER_NAMES if namespace.get(n) is not homes[n]] == []
        assert toricmirror.critical.find_critical_points is roots.solve
        with pytest.raises(AttributeError, match="no_such_name"):
            toricmirror.no_such_name


class TestBundleCommand:
    def test_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "p1.json", P1_DOC)
        out_path = str(tmp_path / "x.json")
        assert main(["bundle", path, "-o", out_path]) == 0
        doc = json.loads(Path(out_path).read_text())
        parsed = fan_from_document(doc)
        assert parsed.fan.rays == ((0, 1), (1, 1), (-1, 1), (0, -1))
        assert doc["q_basis"] == [[-2, 1, 1, 0], [1, 0, 0, 1]]

    def test_plane_base(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_DOC)
        assert main(["bundle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rays"]) == 5

    def test_non_fano_base_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2_DOC)
        assert main(["bundle", path]) == 4


class TestPotentialCommand:
    def test_f2_potential_document(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2_DOC)
        assert main(["potential", path, "--cutoff", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "corrected"
        assert doc["cutoff"] == 2
        assert doc["correction"] == [
            {"q": [0, 0], "value": "1"}, {"q": [1, 0], "value": "1"},
        ]
        assert doc["rendered"] == "q1*q2^2/(z1*z2^2) + (q2 + q1*q2)/z2 + z2 + z1"
        assert all(g["source"] == "builtin" for g in doc["gw_values"])

    def test_plane_is_hori_vafa(self, tmp_path, capsys):
        path = write(tmp_path, "p2.json", P2_DOC)
        assert main(["potential", path, "--cutoff", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "hori-vafa"
        assert doc["correction"] is None

    def test_bundle_over_plane_without_table_exit_5(self, tmp_path, capsys):
        xdoc = {
            "dimension": 3,
            "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -1, 1], [0, 0, -1]],
            "maximal_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3],
                              [1, 2, 4], [1, 3, 4], [2, 3, 4]],
            "kahler": {"parameters": ["t1", "t2"],
                       "lambdas": ["0", "0", "0", "-t1", "-t2"]},
        }
        path = write(tmp_path, "x.json", xdoc)
        assert main(["potential", path, "--cutoff", "1"]) == 5
        # opting into zero filling turns the same run green
        assert main(["potential", path, "--cutoff", "1",
                     "--assume-zero-above-cutoff"]) == 0

    def test_gw_table_flow(self, tmp_path, capsys, f2):
        fan_path = write(tmp_path, "f2.json", F2_DOC)
        table = {
            "fan_fingerprint": fan_fingerprint(f2),
            "basis": [[-2, 1, 1, 0], [1, 0, 0, 1]],
            "entries": [{"class": [1, 0], "value": "1"}],
        }
        table_path = write(tmp_path, "table.json", table)
        assert main(["potential", fan_path, "--cutoff", "2",
                     "--gw-table", table_path]) == 0
        # wrong fingerprint is a schema-level failure
        table["fan_fingerprint"] = "0" * 64
        table_path = write(tmp_path, "table2.json", table)
        assert main(["potential", fan_path, "--cutoff", "2",
                     "--gw-table", table_path]) == 2
        # a value whose decimal exponent is beyond the reader's bound
        table.update(fan_fingerprint=fan_fingerprint(f2),
                     entries=[{"class": [1, 0], "value": HUGE_EXPONENT}])
        table_path = write(tmp_path, "table3.json", table)
        capsys.readouterr()
        assert main(["potential", fan_path, "--cutoff", "2",
                     "--gw-table", table_path]) == 2
        assert capsys.readouterr().err == HUGE_EXPONENT_ERROR

    def test_dependent_table_basis_exit_2(self, tmp_path, capsys, f2):
        # keys (2, 0) and (0, 1) would name the same class; the built-in F2
        # rule answers every lookup, so only a load-time check sees this
        fan_path = write(tmp_path, "f2.json", F2_DOC)
        table = {
            "fan_fingerprint": fan_fingerprint(f2),
            "basis": [[-2, 1, 1, 0], [-4, 2, 2, 0]],
            "entries": [{"class": [1, 0], "value": "1"}],
        }
        table_path = write(tmp_path, "table.json", table)
        assert main(["potential", fan_path, "--cutoff", "2",
                     "--gw-table", table_path]) == 2
        assert "linearly dependent" in capsys.readouterr().err

    def test_missing_kahler_exit_2(self, tmp_path, capsys):
        doc = {k: v for k, v in F2_DOC.items() if k != "kahler"}
        path = write(tmp_path, "bare.json", doc)
        assert main(["potential", path, "--cutoff", "2"]) == 2

    def test_not_fano_not_bundle_exit_3(self, tmp_path, capsys):
        f3doc = {
            "dimension": 2,
            "rays": [[1, 0], [0, 1], [-1, -3], [0, -1]],
            "kahler": {"parameters": ["t1", "t2"],
                       "lambdas": ["0", "0", "-t1", "-t2"]},
        }
        path = write(tmp_path, "f3.json", f3doc)
        assert main(["potential", path, "--cutoff", "2"]) == 3

    def test_negative_cutoff_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "f2.json", F2_DOC)
        assert main(["potential", path, "--cutoff", "-1"]) == 2
        assert capsys.readouterr().err == "error: --cutoff must be at least 0, got -1\n"

    def test_fano_branch_checks_cutoff_and_table(self, tmp_path, capsys):
        # the Hori-Vafa branch reads neither option, but refuses them like
        # the corrected branch does
        p2 = str(SAMPLES / "p2.json")
        f2 = fan_from_document(F2_DOC).fan
        p2_fan = load_fan_document(p2).fan
        tables = {
            "missing": str(tmp_path / "absent.json"),
            "not JSON": write(tmp_path, "bad.json", "{"),
            "a directory": str(tmp_path),
            "F2's": write(tmp_path, "f2.json", {
                "fan_fingerprint": fan_fingerprint(f2),
                "basis": [list(b) for b in f2.homology_basis], "entries": []}),
        }
        for name, table in tables.items():
            assert main(["potential", p2, "--gw-table", table]) == 2, name
            assert capsys.readouterr().err.startswith("error: "), name
        assert main(["potential", p2, "--cutoff", "-5"]) == 2
        assert capsys.readouterr().err == "error: --cutoff must be at least 0, got -5\n"
        # a table bound to P2 passes and changes nothing
        assert main(["potential", p2]) == 0
        plain = capsys.readouterr().out
        own = write(tmp_path, "p2 table.json", {
            "fan_fingerprint": fan_fingerprint(p2_fan),
            "basis": [list(b) for b in p2_fan.homology_basis], "entries": []})
        assert main(["potential", p2, "--gw-table", own, "--cutoff", "0"]) == 0
        assert capsys.readouterr().out == plain

    def test_many_rays_with_table_exit_3(self, tmp_path, capsys):
        # P2 blown up to 17 rays: neither F2 nor a bundle, with or without a
        # table, and too large for an exhaustive GL(2,Z) map search
        rays = [(1, 0), (0, 1), (-1, -1)]  # counterclockwise
        k = 0
        while len(rays) < 17:
            u, w = rays[k], rays[(k + 1) % len(rays)]
            rays.insert(k + 1, (u[0] + w[0], u[1] + w[1]))
            k = (k + 2) % len(rays)
        fan = validate_fan(2, rays)
        doc = {"dimension": 2, "rays": [list(r) for r in rays],
               "kahler": {"parameters": [], "lambdas": ["-1"] * len(rays)}}
        table = {"fan_fingerprint": fan_fingerprint(fan),
                 "basis": [list(b) for b in fan.homology_basis], "entries": []}
        fan_path = write(tmp_path, "fan.json", doc)
        table_path = write(tmp_path, "table.json", table)
        assert main(["potential", fan_path, "--gw-table", table_path]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_q_exponent_exit_2(self, tmp_path, capsys):
        # P(K_F1+O) in the q-basis dual to its first cone, where the degree-0
        # class (-2, 2, 0, 2, -2, 0) has q-exponents (2, -2, 0): a nonzero
        # invariant there has no term in the polynomial C, a zero one does
        # not need one
        doc = {
            "dimension": 3,
            "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -1, 1], [0, -1, 1], [0, 0, -1]],
            "maximal_cones": [[0, 1, 2], [0, 1, 4], [0, 2, 3], [0, 3, 4],
                              [1, 2, 5], [1, 4, 5], [2, 3, 5], [3, 4, 5]],
            "kahler": {"parameters": ["t1", "t2", "t3"],
                       "lambdas": ["0", "0", "0", "-t1", "-t2", "-t3"]},
            "q_basis": [[-3, 1, 1, 1, 0, 0], [-2, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 1]],
        }
        fan_path = write(tmp_path, "f1x.json", doc)
        table = {"fan_fingerprint": fan_fingerprint(fan_from_document(doc).fan),
                 "basis": doc["q_basis"], "entries": [{"class": [2, -2, 0], "value": "3"}]}
        table_path = write(tmp_path, "t.json", table)
        argv = ["potential", fan_path, "--gw-table", table_path, "--assume-zero-above-cutoff"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: class (-2, 2, 0, 2, -2, 0) has invariant 3 but q-exponents "
            "(2, -2, 0): the q-basis puts a negative power of q into C\n")
        table["entries"][0]["value"] = "0"
        write(tmp_path, "t.json", table)
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["gw_values"]
        assert {"class": [-2, 2, 0, 2, -2, 0], "q_exponents": [2, -2, 0],
                "source": "table", "value": "0"} in records

    def test_f2_criterion_matches_map_search(self):
        # a smooth complete surface with 4 rays is some F_a, and F2 is the
        # one with a degree-0 primitive relation
        rng = random.Random(7)
        fans = [random_smooth_2d_fan(rng) for _ in range(400)]
        for a in range(-4, 5):
            for _ in range(5):
                T = random_unimodular(rng, 2)
                rays = [tuple(T[i][0] * x + T[i][1] * y for i in range(2))
                        for x, y in hirzebruch(a).rays]
                rng.shuffle(rays)
                fans.append(validate_fan(2, rays))
        f2 = hirzebruch2()
        found = [GWProvider(KahlerData(fan, ["-1"] * fan.nrays))._f2_base_coordinates
                 is not None for fan in fans]
        expected = [unimodular_map_search(fan.rays, fan.maximal_cones,
                                          f2.rays, f2.maximal_cones) is not None
                    for fan in fans]
        assert found == expected
        assert sum(found) >= 10

    def test_byte_stable(self, tmp_path):
        path = write(tmp_path, "f2.json", F2_DOC)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["potential", path, "--cutoff", "2", "-o", out1]) == 0
        assert main(["potential", path, "--cutoff", "2", "-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


# malformed F2 potential documents, each of which must be refused on load
MALFORMED_POTENTIALS = {
    "terms-not-a-list": lambda doc: doc.update(terms=7),
    "q-area-not-an-object": lambda doc: doc["q_areas"].__setitem__(0, 7),
    "q-area-terms-not-an-object": lambda doc: doc["q_areas"][0].update(terms=[1]),
    "q-area-bad-rational": lambda doc: doc["q_areas"].__setitem__(0, {"constant": "x"}),
    # true would read as 1, which gives the same area t1
    "q-area-bool-term": lambda doc: doc["q_areas"][0].update(terms={"t1": True}),
    # a misspelled key would read as absent: a constant of 0, or no such field
    "q-area-unknown-key": lambda doc: doc["q_areas"][0].update(constnat="1"),
    "unknown-field": lambda doc: doc.update(q_area=doc["q_areas"]),
    "parameters-not-a-list": lambda doc: doc.update(parameters=7),
    "fan-dimension-differs": lambda doc: doc.update(fan=P1_DOC),
    # either would seed crit from another polytope than the q-areas describe
    "fan-lambdas-differ": lambda doc: doc["fan"]["kahler"].update(
        lambdas=["-t2", "0", "-t1-2*t2", "-t1"]),
    "fan-q-basis-swapped": lambda doc: doc["fan"]["q_basis"].reverse(),
    # Fraction reads any Unicode digit
    "q-area-non-ascii-digit": lambda doc: doc["q_areas"][0].update(constant="\u0663"),
    "q-term-non-ascii-digit": lambda doc: doc["terms"][0]["coefficient"][0].update(
        value="\uff13/\uff12"),
}


class TestCritCommand:
    def make_potential(self, tmp_path, doc, name="pot.json", cutoff="2"):
        fan_path = write(tmp_path, "fan_" + name, doc)
        out = str(tmp_path / name)
        assert main(["potential", fan_path, "--cutoff", cutoff, "-o", out]) == 0
        return out

    def test_line_two_points(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, P1_DOC)
        out = str(tmp_path / "crit.json")
        assert main(["crit", pot, "--t", f"t={T001}", "-o", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["multistart"]["deduped"] == 2
        zs = sorted(p[0][0] for p in doc["points"])
        assert zs == pytest.approx([-0.1, 0.1])

    def test_f2_four_points(self, tmp_path):
        pot = self.make_potential(tmp_path, F2_DOC)
        out = str(tmp_path / "crit.json")
        assert main(["crit", pot, "--t", f"t1={T001}", "--t", f"t2={T001}",
                     "-o", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["multistart"]["deduped"] == 4
        assert all(r < 1e-9 for r in doc["residuals"])

    def test_f1_runs_only_its_polyhedral_starts(self, tmp_path, capsys):
        # the 4 polyhedral starts reach the 4 roots, and the grid does not run
        pot = self.make_potential(tmp_path, F1_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        multistart = doc["multistart"]
        assert (multistart["attempted"], multistart["converged"]) == (4, 4)
        assert (multistart["polyhedral"], multistart["grid_fallbacks"]) == (4, 0)
        assert multistart["deduped"] == multistart["expected"] == 4
        assert multistart["orbit_size"] == 1
        assert doc["factors"] == [{"dimension": 2, "expected": 4, "solve": "newton"}]

    def test_sample_f2_solves_in_closed_form(self, tmp_path, capsys):
        # F2 is P(K_P1+O): the P1 base is a simplex, and each of its two
        # roots lifts to two points; no Newton start runs
        pot = str(tmp_path / "pot.json")
        assert main(["potential", str(SAMPLES / "f2.json"), "--cutoff", "3", "-o", pot]) == 0
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["multistart"] == {"attempted": 0, "converged": 0, "deduped": 4,
                                     "expected": 4, "grid_size": 0, "orbit_size": 2,
                                     "truncated": False, "unlifted": 0, "polyhedral": 0,
                                     "grid_fallbacks": 0}
        assert doc["factors"] == [{"dimension": 1, "expected": 2, "solve": "closed-form"}]

    def test_sample_f2_far_roots(self, tmp_path, capsys):
        # at t1 = 1e-3 two roots lie at |z1| ~ 1.2e3, where the full grid
        # (1344 starts) verified 2 of 4 roots and reported that complete
        # enough to exit 0; the closed form verifies them below tol. At
        # t1 = 1e-4 their exact residual (3.5e-12) is above tol, and they
        # stay refused: 2 of 4, never silently 4
        pot = str(tmp_path / "pot.json")
        assert main(["potential", str(SAMPLES / "f2.json"), "--cutoff", "2", "-o", pot]) == 0
        capsys.readouterr()
        for t1, deduped in (("1e-3", 4), ("1e-4", 2)):
            assert main(["crit", pot, "--t", f"t1={t1}", "--t", "t2=1"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["multistart"]["deduped"], doc["multistart"]["expected"]) == (deduped, 4)
            assert not doc["multistart"]["truncated"]
            assert all(r <= 1e-12 for r in doc["residuals"])
            far = max(abs(complex(*point[0])) for point in doc["points"])
            assert (far > 1e3) == (deduped == 4)

    def test_closed_form_miss_names_the_tolerance(self, tmp_path, capsys):
        # no start ran and no solver option can move a closed-form point,
        # so the message names the tolerance and the best residual
        pot = str(tmp_path / "pot.json")
        assert main(["potential", str(SAMPLES / "f2.json"), "--cutoff", "2", "-o", pot]) == 0
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1", "--tol", "1e-300"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: no critical point found: no closed-form point passed "
                            r"the tolerance 1e-300; best residual reached \d\.\d{3}e-\d+\n",
                            err), err

    @pytest.mark.parametrize("t1, t2", [(740, -700), (-700, 740)])
    def test_roots_past_the_float_range_exit_6(self, tmp_path, capsys, t1, t2):
        # W = q1 z + q2/z has its roots at log z = (t1 - t2)/2 + {0, pi i}:
        # here |Re log z| = 720, past the float range, so both closed-form
        # points are refused (no internal error)
        pot = write(tmp_path, "pot.json", {
            "format": "toricmirror-potential/1", "z_variables": 1, "q_variables": 2,
            "terms": [{"z": [1], "coefficient": [{"q": [1, 0], "value": "1"}]},
                      {"z": [-1], "coefficient": [{"q": [0, 1], "value": "1"}]}],
            "q_areas": [{"constant": "0", "terms": {"t1": "1"}},
                        {"constant": "0", "terms": {"t2": "1"}}],
            "parameters": ["t1", "t2"]})
        capsys.readouterr()
        assert main(["crit", pot, "--t", f"t1={t1}", "--t", f"t2={t2}"]) == 6
        assert capsys.readouterr().err == (
            "error: no critical point found: no closed-form point passed the tolerance "
            "1e-12; they lie beyond the float range\n")
        assert main(["crit", pot, "--t", f"t1={t1 // 2}", "--t", f"t2={t2 // 2}"]) == 0

    def test_more_roots_than_the_bound_exit_7(self, tmp_path, capsys):
        # on dP6 at t = (2, 3, 3, 2) two of the six polyhedral starts reach
        # one root, a few ulps apart, so the grid runs; at radius 0 both
        # copies are kept, and with the root the grid adds they outnumber
        # the bound. At t = (3, 4, 4, 3) the six starts reach the six roots,
        # and no copy is made
        pot = self.make_potential(tmp_path, DP6_DOC)
        capsys.readouterr()
        t = [f"--t=t{j}={v}" for j, v in enumerate((2, 3, 3, 2), 1)]
        assert main(["crit", pot, *t, "--dedup-radius", "0"]) == 7
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: \d+ distinct verified critical points exceed the root "
                            r"bound 6: the dedup radius 0.0 keeps copies of one root apart\n",
                            err), err
        assert main(["crit", pot, *t]) == 0
        multistart = json.loads(capsys.readouterr().out)["multistart"]
        assert (multistart["deduped"], multistart["grid_fallbacks"]) == (6, 1)
        t = [f"--t=t{j}={v}" for j, v in enumerate((3, 4, 4, 3), 1)]
        assert main(["crit", pot, *t, "--dedup-radius", "0"]) == 0
        multistart = json.loads(capsys.readouterr().out)["multistart"]
        assert (multistart["deduped"], multistart["grid_fallbacks"]) == (6, 0)

    def test_missing_t_exit_2(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, P1_DOC)
        assert main(["crit", pot]) == 2
        assert main(["crit", pot, "--t", "wrong=1"]) == 2

    def test_bad_value_exit_2(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, P1_DOC)
        assert main(["crit", pot, "--t", "t=abc"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--phases", "0", "must be at least 1, got 0", id="--phases-0-1"),
        pytest.param("--phases", "-2", "must be at least 1, got -2", id="--phases--2-1"),
        pytest.param("--max-starts", "0", "must be at least 1, got 0", id="--max-starts-0-1"),
        pytest.param("--max-steps", "-1", "must be at least 0, got -1", id="--max-steps--1-0"),
        pytest.param("--tol", "-1", "must be greater than 0, got -1.0", id="--tol--1"),
        pytest.param("--tol", "0", "must be greater than 0, got 0.0", id="--tol-0"),
        pytest.param("--tol", "nan", "must be greater than 0, got nan", id="--tol-nan"),
        pytest.param("--tol", "inf", "must be finite, got inf", id="--tol-inf"),
        pytest.param("--dedup-radius", "-1", "must be at least 0, got -1.0",
                     id="--dedup-radius--1"),
        pytest.param("--dedup-radius", "nan", "must be at least 0, got nan",
                     id="--dedup-radius-nan"),
        pytest.param("--dedup-radius", "inf", "must be finite, got inf",
                     id="--dedup-radius-inf"),
    ])
    def test_bad_solver_option_exit_2(self, tmp_path, capsys, flag, value, message):
        pot = self.make_potential(tmp_path, P1_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", f"t={T001}", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} {message}\n"

    def test_grid_past_the_float_range_exit_2(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, F1_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=0.5", "--phases", str(10 ** 200)]) == 2
        assert capsys.readouterr().err == (
            "error: the start grid has more points than a float can hold; "
            "lower the phases per coordinate\n")

    def test_overflowing_parameter_exit_2(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, F2_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1e400", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err.startswith("error: a q-area overflows a float")
        # a declared parameter that no q-area reads is still reported in
        # t_values, so its value must fit a float
        doc = json.loads(Path(pot).read_text())
        doc["parameters"].append("s")
        Path(pot).write_text(json.dumps(doc))
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1", "--t", "s=1e400"]) == 2
        assert capsys.readouterr().err == "error: --t value of 's' overflows a float\n"
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1", "--t", "s=1"]) == 0
        assert json.loads(capsys.readouterr().out)["t_values"]["s"] == 1.0

    @pytest.mark.parametrize("where", ["--t", "q-area", "q-term"])
    def test_huge_decimal_exponent_exit_2(self, tmp_path, capsys, where):
        # Fraction alone would spend minutes building 10**99999999
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        t = ["--t", "t1=1", "--t", "t2=1"]
        if where == "--t":
            t[1] = "t1=" + HUGE_EXPONENT
        elif where == "q-area":
            doc["q_areas"][0]["constant"] = HUGE_EXPONENT
        else:
            doc["terms"][0]["coefficient"][0]["value"] = HUGE_EXPONENT
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, *t]) == 2
        assert capsys.readouterr().err == HUGE_EXPONENT_ERROR

    @pytest.mark.parametrize("extra, message", [
        pytest.param(["--t", "t1=5"], "error: --t gives parameter 't1' more than once\n",
                     id="repeated"),
        pytest.param(["--t", "typo=3"],
                     "error: --t names 'typo', which is neither a parameter of the "
                     "document nor a variable of its q-areas\n", id="unknown"),
    ])
    def test_repeated_or_unknown_parameter_exit_2(self, tmp_path, capsys, extra, message):
        # either would be written into t_values without being the value used
        pot = self.make_potential(tmp_path, F2_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1", *extra]) == 2
        assert capsys.readouterr() == ("", message)

    def test_fan_parameter_in_no_area_exit_2(self, tmp_path, capsys):
        # s translates F2's polytope and cancels from every area, so no --t
        # value the areas ask for gives it; crit must refuse the document,
        # not skip the Kahler-cone check and solve W at t1 = -1, outside it
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        doc["fan"]["kahler"] = {"parameters": ["t1", "t2", "s"],
                                "lambdas": ["-t2", "s", "-t1-2*t2-s", "0"]}
        assert [a.to_json() for a in fan_from_document(doc["fan"]).kahler.basis_areas()] \
            == doc["q_areas"]
        Path(pot).write_text(json.dumps(doc))
        for t in (["t1=-1", "t2=1"], ["t1=1", "t2=1"], ["t1=1", "t2=1", "s=0"]):
            capsys.readouterr()
            assert main(["crit", pot, *(a for v in t for a in ("--t", v))]) == 2, t
            assert capsys.readouterr() == ("", "error: the 'fan' section's Kahler "
                                           "parameters ['s'] are variables of no q-area\n")

    @pytest.mark.parametrize("digits", ["\u0663", "\uff13/\uff12", "1e\u0661", "\u00a01"],
                             ids=["arabic-indic", "full-width", "exponent", "no-break space"])
    def test_non_ascii_rational_exit_2(self, tmp_path, capsys, digits):
        # every exact number is read as ASCII text, at --t as in a document
        pot = self.make_potential(tmp_path, F2_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=" + digits, "--t", "t2=1"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad rational value {digits!r}: not ASCII text\n")

    def test_outside_kahler_cone_exit_2(self, tmp_path, capsys):
        # at t1 < 0 F2's polytope is a triangle whose normal fan is not F2's;
        # under python -O too, so the check cannot rest on an assert
        pot = self.make_potential(tmp_path, F2_DOC)
        refusal = ("error: the wall class {} has area {} <= 0: the parameters are "
                   "outside the open Kahler cone\n")
        env = dict(os.environ, PYTHONPATH=str(Path(toricmirror.__file__).parents[1]))
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "toricmirror.cli", "crit", pot,
                 "--t", "t1=-0.5", "--t", "t2=1"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (proc.returncode, proc.stdout) == (2, ""), (flags, proc.stderr)
            assert proc.stderr == refusal.format((-2, 1, 1, 0), "t1 = -1/2")
        # an empty polytope is refused the same way, at the first wall
        # class whose area is <= 0
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=-1"]) == 2
        assert capsys.readouterr().err == refusal.format((0, 1, 1, 2), "t1 + 2*t2 = -1")

    def test_polytope_far_below_zero(self, tmp_path, capsys):
        # the vertex at x = -t seeds |z| = exp(t), which overflows a float
        # at t = 800; that seed is dropped. q = exp(-t) underflows to 0 there,
        # which would leave the numeric W = 1/z, so the run is refused as
        # bad input instead of reporting that 1/z has no critical point
        doc = dict(P1_DOC, kahler={"parameters": ["t"], "lambdas": ["-t", "0"]})
        pot = self.make_potential(tmp_path, doc)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t=800"]) == 2
        assert capsys.readouterr().err == (
            "error: a q-monomial underflows a float at these parameter values: "
            "the coefficient q1 of the z-exponent (1,) evaluates to 0\n")
        assert main(["crit", pot, "--t", "t=30"]) == 0
        assert json.loads(capsys.readouterr().out)["multistart"]["deduped"] == 2

    @pytest.mark.parametrize("extra", [[], [[-1, 0]]], ids=["closed-form", "newton"])
    def test_coefficient_that_cancels_exit_2(self, tmp_path, capsys, extra):
        # W = z1 + z2 + (1 - q1)/(z1 z2), with 1/z1 added the factor needs
        # Newton: at t = 0 the last coefficient is 0.0 and W has lost a term.
        # Refused as bad input, not a division by zero or a failed search
        ones = [{"q": [0], "value": "1"}]
        terms = [{"z": z, "coefficient": ones} for z in [[1, 0], [0, 1], *extra]]
        terms.append({"z": [-1, -1], "coefficient": ones + [{"q": [1], "value": "-1"}]})
        pot = write(tmp_path, "pot.json", {
            "format": "toricmirror-potential/1", "z_variables": 2, "q_variables": 1,
            "terms": terms, "q_areas": [{"constant": "0", "terms": {"t": "1"}}],
            "parameters": ["t"]})
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t=0"]) == 2
        assert capsys.readouterr() == ("", (
            "error: the coefficient 1 - q1 of the z-exponent (-1, -1) evaluates to 0 at "
            "these parameter values: W would lose a term\n"))
        assert main(["crit", pot, "--t", "t=1"]) == 0

    def test_polytope_past_half_the_float_range(self, tmp_path, capsys):
        # the vertex t = 1e308 is a float, twice it is not: the midpoint seed
        # is taken as one division over the integer vertices, and the q that
        # underflows is refused as bad input (exit 2, not an internal error)
        doc = dict(P1_DOC, kahler={"parameters": ["t"], "lambdas": ["0", "-t"]})
        pot = self.make_potential(tmp_path, doc)
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t=1e308"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: a q-monomial underflows a float at these parameter values")

    def test_q_overflow_exit_2(self, tmp_path, capsys):
        # without its "fan" key the document has no Kahler data, so nothing
        # refuses t1 = -800 before q1 = exp(800) is evaluated
        pot = str(tmp_path / "pot.json")
        assert main(["potential", str(SAMPLES / "f2.json"), "--cutoff", "3", "-o", pot]) == 0
        doc = json.loads(Path(pot).read_text())
        del doc["fan"]
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=-800", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err == (
            "error: q1 = exp(-t) overflows a float at these parameter values: "
            "its q-area t is -800.0\n")

    @pytest.mark.parametrize("name", sorted(MALFORMED_POTENTIALS))
    def test_malformed_potential_exit_2(self, tmp_path, capsys, name):
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        potential_from_document(doc)  # the unmutated document is read
        MALFORMED_POTENTIALS[name](doc)
        with pytest.raises(SchemaError):
            potential_from_document(doc)
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_q_areas_read_as_exact_rationals(self, tmp_path):
        # without a fan section nothing constrains the q-areas
        doc = json.loads(Path(self.make_potential(tmp_path, F2_DOC)).read_text())
        del doc["fan"]
        for text in ("-t1-2*t2+3/4", "t1 + 2*t2 - 3", "1/2*t1", "0", "-5"):
            area = parse_linear_form(text)
            doc["q_areas"][0] = area.to_json()
            assert potential_from_document(doc).q_areas[0] == area
        doc["q_areas"][0] = {"constant": 0.1, "terms": {"t1": 2.5}}
        area = LinForm(Fraction(1, 10), {"t1": Fraction(5, 2)})
        assert potential_from_document(doc).q_areas[0] == area

    def test_duplicate_z_exponent_exit_2(self, tmp_path, capsys):
        # a second term on z^(-1,-2) would otherwise replace the first
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        doc["terms"].append({"z": [-1, -2], "coefficient": [{"q": [0, 0], "value": "3"}]})
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err == "error: duplicate z-exponent (-1, -2) in 'terms'\n"

    def test_duplicate_q_exponent_exit_2(self, tmp_path, capsys):
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        coefficient = next(t["coefficient"] for t in doc["terms"] if t["z"] == [0, -1])
        coefficient.append({"q": coefficient[0]["q"], "value": "5"})
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err == (
            f"error: duplicate q-exponent {tuple(coefficient[0]['q'])} in a coefficient\n")

    @pytest.mark.parametrize("terms", [
        pytest.param([], id="no-term"),
        pytest.param([{"z": [0, 0], "coefficient": [{"q": [1, 0], "value": "3"}]}],
                     id="constant-term"),
    ])
    def test_constant_potential_exit_2(self, tmp_path, capsys, terms):
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = json.loads(Path(pot).read_text())
        doc["terms"] = terms
        Path(pot).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t1=1", "--t", "t2=1"]) == 2
        assert capsys.readouterr().err == "error: potential has no nonconstant term\n"

    @pytest.mark.parametrize("terms", NO_ISOLATED_ROOTS.values(), ids=NO_ISOLATED_ROOTS)
    def test_no_isolated_critical_points_exit_2(self, tmp_path, capsys, monkeypatch, terms):
        # a hand-written W whose Newton polytope is not full-dimensional has
        # a root bound of 0; it is refused before any Newton pass
        n = len(next(iter(terms)))
        pot = write(tmp_path, "pot.json", {
            "format": "toricmirror-potential/1", "z_variables": n, "q_variables": 0,
            "terms": [{"z": list(z), "coefficient": [{"q": [], "value": str(c)}]}
                      for z, c in terms.items()],
            "q_areas": [], "parameters": []})
        monkeypatch.setattr(roots, "_newton", newton_must_not_run)
        capsys.readouterr()
        assert main(["crit", pot]) == 2
        assert capsys.readouterr().err == (
            "error: potential has no isolated critical points: the Newton polytope of "
            "its nonconstant terms is not full-dimensional\n")

    @pytest.mark.parametrize("terms, reason", FACTOR_WITHOUT_ROOTS.values(),
                             ids=FACTOR_WITHOUT_ROOTS)
    @pytest.mark.parametrize("extra", [[], ["--max-starts", "3"]])
    def test_factor_without_critical_points_exit_2(self, tmp_path, capsys, monkeypatch,
                                                   terms, reason, extra):
        # a hand-written W with a positive bound and a factor that has no
        # isolated critical point is refused before any Newton pass, at any
        # budget; Newton on W whole ended in exit 7, 6 or 0 with points
        # that are no critical points
        n = len(next(iter(terms)))
        pot = write(tmp_path, "pot.json", {
            "format": "toricmirror-potential/1", "z_variables": n, "q_variables": 0,
            "terms": [{"z": list(z), "coefficient": [{"q": [], "value": str(c)}]}
                      for z, c in terms.items()],
            "q_areas": [], "parameters": []})
        monkeypatch.setattr(roots, "_newton", newton_must_not_run)
        capsys.readouterr()
        assert main(["crit", pot, *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: potential has no isolated critical points: {reason}\n")

    @pytest.mark.parametrize("t", [125, 200])
    def test_far_inside_kahler_cone(self, tmp_path, capsys, t):
        # the polytope seeds |z| = exp(-t) lie below 1e-14 and the roots
        # +-exp(-t/2) beyond |Re log z| = 60; both must stay in reach
        pot = self.make_potential(tmp_path, P1_DOC)
        capsys.readouterr()
        assert main(["crit", pot, "--t", f"t={t}"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        root = math.exp(-t / 2)
        assert sorted(p[0][0] for p in points) == pytest.approx([-root, root], rel=1e-9)
        assert [p[0][1] for p in points] == pytest.approx([0, 0], abs=1e-9 * root)

    def test_round_trip_potential_document(self, tmp_path):
        pot = self.make_potential(tmp_path, F2_DOC)
        doc = load_potential_document(pot)
        assert doc.poly.zvars == 2
        assert doc.parameters == ("t1", "t2")
        assert doc.q_areas == list(doc.fandoc.kahler.basis_areas())
        t = doc.t_vector({"t1": Fraction(1), "t2": Fraction(2)})
        assert t == [1.0, 2.0]


class TestLambdaInput:
    """The three inputs whose exit code the term-pattern parser and the
    constant-circuit polytope check moved."""

    @pytest.mark.parametrize("lam", ["-1/0*t", "1/0"])
    def test_zero_denominator_exit_2(self, tmp_path, capsys, lam):
        fan = write(tmp_path, "fan.json", dict(
            P1_DOC, kahler={"parameters": ["t"], "lambdas": ["0", lam]}))
        pot = TestCritCommand().make_potential(tmp_path, P1_DOC)
        doc = json.loads(Path(pot).read_text())
        doc["fan"]["kahler"]["lambdas"][1] = lam
        pot = write(tmp_path, "bad_pot.json", doc)
        for argv in (["analyze", fan], ["bundle", fan], ["potential", fan],
                     ["crit", pot, "--t", "t=1"]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == (
                f"error: bad lambda expression {lam!r}: zero denominator in {lam!r}\n")

    @pytest.mark.parametrize("lam", ["-t\u2003", "\u0660", "-\uff11*t"],
                             ids=["em space", "arabic-indic", "full-width"])
    def test_non_ascii_lambda_exit_2(self, tmp_path, capsys, lam):
        # the grammar's digits and whitespace are ASCII; a Unicode-aware
        # pattern would read such a digit as its value, and the document
        # would echo it
        fan = write(tmp_path, "fan.json", dict(
            P1_DOC, kahler={"parameters": ["t"], "lambdas": ["0", lam]}))
        capsys.readouterr()
        assert main(["potential", fan]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad lambda expression {lam!r}: "
                                                  f"cannot parse linear form {lam!r}")

    def test_trailing_whitespace_accepted(self, tmp_path, capsys):
        fan = write(tmp_path, "fan.json", dict(
            P1_DOC, kahler={"parameters": ["t"], "lambdas": ["0 ", "-t\t"]}))
        assert main(["potential", fan]) == 0
        spaced = json.loads(capsys.readouterr().out)
        assert main(["potential", write(tmp_path, "plain.json", P1_DOC)]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert spaced["fan"]["kahler"]["lambdas"] == ["0 ", "-t\t"]
        del spaced["fan"], plain["fan"]
        assert spaced == plain

    def test_empty_only_at_unit_parameters_accepted(self, tmp_path, capsys):
        # the interval [0, t - 2] is empty at t = 1 but not for t > 2
        pot = TestCritCommand().make_potential(tmp_path, dict(
            P1_DOC, kahler={"parameters": ["t"], "lambdas": ["0", "2-t"]}))
        capsys.readouterr()
        assert main(["crit", pot, "--t", "t=3"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        root = math.exp(-1 / 2)
        assert sorted(p[0][0] for p in points) == pytest.approx([-root, root], rel=1e-9)
        assert main(["crit", pot, "--t", "t=1"]) == 2
        assert "outside the open Kahler cone" in capsys.readouterr().err


def json_dumps_text(obj) -> str:
    """What canonical_json must reproduce byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class FloatSubclass(float):
    pass


class StrSubclass(str):
    pass


class ListSubclass(list):
    pass


class DictSubclass(dict):
    pass


Colour = enum.IntEnum("Colour", "RED GREEN")
# every code point, with lone surrogates and control characters drawn often
ANY_TEXT = st.text(st.characters(exclude_categories=())
                   | st.characters(categories=["Cs", "Cc"]), max_size=8)
FINITE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))
# the values of a document: objects with str keys, arrays, strings, ints,
# bools, null and finite floats
DOCUMENT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
    | FINITE_FLOATS | ANY_TEXT,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(st.integers(), max_size=6)  # the writer's one-step lists
        | st.lists(FINITE_FLOATS, max_size=6)
        | st.dictionaries(ANY_TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


class TestCanonicalJson:
    """canonical_json against json.dumps(sort_keys=True, indent=2,
    ensure_ascii=False) + newline, on generated document values and on every
    kind of document the CLI writes, and its refusal of every other value."""

    @given(DOCUMENT_VALUES)
    @example([1, True, 2])
    @example(["\ud800", "é\x00\u2028", {"\udfff": "\x1f"}])
    @example({"x": [-0.0, 5e-324, 1.7e308, -1.7e308], "y": [10**60, -(10**60)]})
    @example({"class": [1, -2, True], "q": [[0, 1, False]]})
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == json_dumps_text(value)

    @pytest.mark.parametrize("value", [
        [0.5, -0.0, 5e-324, 1.7e308, -1.7e308, 1e16, 1e-7, 0.1], [1, 2.5], [2.5, 1, -0.0],
        [2.5, True], [[0.5, 1e300], [2, 3], [-0.0, 1.5]]],
        ids=["finite", "int float", "float int", "float bool", "nested"])
    def test_float_lists_match_json_dumps(self, value):
        # a list of finite floats is joined in one step; mixed lists are
        # written item by item
        for obj in (value, tuple(value), {"k": value}):
            assert canonical_json(obj) == json_dumps_text(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_refuses_non_finite_floats(self, value):
        # as json does with allow_nan=False
        for obj in (value, [value], [1.5, value], [value, 2.5], {"k": value},
                    {"k": [0.5, value]}, [[0.5, 1e300], [-0.0, value]]):
            with pytest.raises(ValueError):
                json.dumps(obj, allow_nan=False)
            with pytest.raises(ValueError, match="Out of range float values"):
                canonical_json(obj)

    @pytest.mark.parametrize("value", [
        FloatSubclass(1.5), StrSubclass("v\u2028"), ListSubclass([1, 2]),
        DictSubclass(b=[1], a="x"), Colour.GREEN, {2: "int"}, {0.5: "float"},
        {False: "bool"}, {None: []}, {Colour.RED: "enum"}, {StrSubclass("k"): 1}],
        ids=["float subclass", "str subclass", "list subclass", "dict subclass", "IntEnum",
             "int key", "float key", "bool key", "None key", "IntEnum key", "str subclass key"])
    def test_refuses_what_documents_do_not_hold(self, value):
        # json writes these; no document holds them, and each is told by
        # its exact type
        for obj in (value, [value], [1, value], [0.5, value], {"k": value}, {"k": [value]}):
            with pytest.raises(TypeError):
                canonical_json(obj)

    @pytest.mark.parametrize("value", [{1}, b"x", 1j, Fraction(1, 2), {(1, 2): 0}],
                             ids=["set", "bytes", "complex", "Fraction", "tuple key"])
    def test_refuses_what_json_refuses(self, value):
        for obj in (value, [1, value], {"k": value}):
            with pytest.raises(TypeError):
                json_dumps_text(obj)
            with pytest.raises(TypeError):
                canonical_json(obj)

    def test_cli_documents_match_json_dumps(self, tmp_path, monkeypatch, capsys):
        # crit documents are left out of the golden digests; this is their byte check
        written = []

        def recording(obj):
            text = canonical_json(obj)
            written.append((obj, text))
            return text

        monkeypatch.setattr(cli, "canonical_json", recording)
        for path in sorted(SAMPLES.glob("*.json")):
            main(["analyze", "--json", str(path)])
            main(["bundle", str(path)])
            main(["potential", str(path), "--cutoff", "3", "--assume-zero-above-cutoff"])
        dp6 = validate_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
        kinds = []
        for name, base in (("P2", projective_plane()), ("dP6", dp6)):
            pot, t = bundle_potential(tmp_path, base, name)
            assert main(["crit", pot, *t]) == 0
            kinds.append({f["solve"] for f in written[-1][0]["factors"]})
        assert kinds == [{"closed-form"}, {"newton"}]
        formats = [obj.get("format") for obj, _ in written]
        assert formats.count(POTENTIAL_FORMAT) == 6 and formats.count(CRITICAL_FORMAT) == 2
        assert [text for _, text in written] == [json_dumps_text(obj) for obj, _ in written]
