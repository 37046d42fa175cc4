"""Rules every library module must follow, checked on its source."""

import ast
import graphlib
import re
from pathlib import Path

import toricmirror


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    paths = sorted(Path(toricmirror.__file__).parent.rglob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_lattice_is_integer_only():
    # every exact linear solve goes through the integer Hermite normal form
    path = Path(toricmirror.__file__).parent / "lattice.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules


LINFORM_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__neg__"}


def test_linform_is_a_record():
    # a linear form is parsed, compared, evaluated and rendered; every
    # Kahler computation runs on KahlerData's integer rows, so LinForm
    # grows no ring arithmetic, by a def or by an assignment in its body
    path = Path(toricmirror.__file__).parent / "linform.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "LinForm"]
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    names |= {target.id for node in cls.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    assert "__eq__" in names
    assert sorted(names & LINFORM_ARITHMETIC) == []


def _module_level_imports(path):
    """Absolute names of the modules a library file imports when it is
    itself imported: everywhere but inside function bodies."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # the package is flat: relative means toricmirror
                base = f"toricmirror.{base}".rstrip(".")
            names.add(base)
            names |= {f"{base}.{alias.name}" for alias in node.names}
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names


# module -> the only library files that may import it when they are imported
# themselves (function bodies aside); an empty tuple bans it everywhere
IMPORT_BANS = {
    # the package needs nothing outside the standard library; the entry
    # points (cli.py, __init__.py) import the solver only lazily
    "numpy": (),
    "toricmirror.critical": ("critical.py",),
    # dataclasses pulls in inspect, ast, dis and tokenize, and builds each
    # class through exec; records are NamedTuples or plain classes
    "dataclasses": (),
}


def test_import_bans():
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        found += [f"{path.name} {n}" for n in sorted(_module_level_imports(path))
                  for banned, allowed in IMPORT_BANS.items()
                  if (n == banned or n.startswith(banned + ".")) and path.name not in allowed]
    assert found == []


def test_one_exact_to_float_step():
    # QPoly.numeric turns exact coefficients into floats; only laurent.py's
    # numeric_terms calls it, so every float W goes through its guards
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        if path.name == "laurent.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "numeric"]
    assert found == []


def _subs_callers(tree):
    """The dotted names of the classes and functions around every call of
    a ``.subs`` attribute, outermost first; None at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "subs"):
                found.append(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def test_one_exact_evaluation_of_the_support_constants():
    # LinForm.subs evaluates a linear form at parameter values; only the
    # potential document's t_vector calls it, so the moment polytope's
    # vertices and the Kahler-cone check are read off the integer rows of
    # KahlerData alone
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {owner}" for owner in _subs_callers(tree)]
    assert found == ["documents.py PotentialDocument.t_vector"]


def _json_dumps_calls(tree):
    """(enclosing function or None, keyword names) of every json.dumps or
    json.dump call, and of every name imported from json as one."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("dumps", "dump")
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"):
                found.append((owner, {k.arg for k in child.keywords}))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                found.extend((owner, {"import"}) for a in child.names
                             if a.name in ("dumps", "dump"))
            visit(child, owner)

    visit(tree, None)
    return found


def test_one_document_writer():
    # documents.canonical_json writes every document; the only other use of
    # json.dumps is the compact payload that gw.fan_fingerprint hashes
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(path.name, owner, sorted(keywords))
                  for owner, keywords in _json_dumps_calls(tree)]
    assert [f for f in found if f[0] != "documents.py"] == [
        ("gw.py", "fan_fingerprint", ["separators", "sort_keys"])]


# the functions of re that compile their first argument as a pattern
RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "findall", "finditer", "sub",
                "subn", "split"}


def _is_re_attribute(node, names) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "re")


def test_regexes_are_ascii():
    # without re.ASCII, \d and \s match any Unicode digit and space, so a
    # number would be read from Arabic-Indic or full-width digits; every
    # number the library reads is ASCII text
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "re":
                found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names
                          if a.name in RE_FUNCTIONS]
            if not (isinstance(node, ast.Call) and _is_re_attribute(node.func, RE_FUNCTIONS)):
                continue
            flags = [*node.args[1:], *(k.value for k in node.keywords)]
            if not any(_is_re_attribute(n, {"ASCII", "A"}) for f in flags for n in ast.walk(f)):
                found.append(f"{path.name}:{node.lineno} re.{node.func.attr}")
    assert found == []


def test_one_solver_evaluator():
    # the solver evaluates W at a point only through roots.candidate, one
    # pass over the terms in the chart; laurent.sum_terms, which takes
    # z_j^e coordinate by coordinate, serves the public evaluate and
    # gradient alone
    users = []
    for path in sorted(Path(toricmirror.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if _uses(tree, "sum_terms"):
            users.append(path.name)
    assert users == ["laurent.py"]


def test_one_newton_system_caller():
    # every W is solved through its factors: roots._factored alone calls
    # the Newton-system solve, so no second solve path runs beside it
    callers = []
    for path in sorted(Path(toricmirror.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.name} {node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name != "_newton_system"
                    and _uses(node, "_newton_system")]
    assert callers == ["roots.py _factored"]


def test_module_graph_is_acyclic():
    # relative imports between library modules at any depth, function
    # bodies included, form no cycle; the package's __init__ is left out
    package = Path(toricmirror.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets |= {node.module} if node.module else {a.name for a in node.names}
        graph[name] = targets & modules
    cycle = None
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None


def test_public_names_resolve():
    names = toricmirror.__all__
    assert [n for n in names if not hasattr(toricmirror, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def _uses(tree, name) -> bool:
    """True when a module uses the identifier *name* (as a name, an
    attribute or an imported name) outside the body of its own definition."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == name:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_public_names_are_reached():
    # a public name is used by the library itself or shown in the README;
    # one that only tests call belongs with the tests
    package = Path(toricmirror.__file__).parent
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert [n for n in toricmirror.__all__
            if not any(_uses(t, n) for t in trees)
            and not re.search(rf"\b{n}\b", readme)] == []


ORACLES = ("circuit_scan_verdict", "cone_coefficients", "disk_area",
           "effective_classes_up_to", "elementary_divisors", "fourier_motzkin", "fraction_moduli_from_polytope",
           "fraction_parse_linear_form", "fraction_vertices", "generator_laurent_text",
           "generator_qpoly_text", "hnf_homology_basis_test", "jacobian_charpoly",
           "lattice_q_weight", "linear_combination", "lockstep_newton", "matrix_det",
           "max_min_slack",
           "moment_vertices", "pass_stop_oracle", "per_cone_hnf_fan", "polytope_vertices",
           "push_h2",
           "solve_unique", "sphere_area", "summed_potential", "support_value",
           "tokenizing_parse_linear_form", "unimodular_map_search", "wall_relation_classes")


def test_oracles_stay_in_tests():
    # the slow reference implementations the library is checked against
    # live in tests/conftest.py; a copy in the library would check itself
    import conftest

    assert [n for n in ORACLES if not callable(getattr(conftest, n, None))] == []
    found = []
    for path in sorted(Path(toricmirror.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in ORACLES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
