"""JSON document schemas: fans, invariant tables, potentials, reports.

JSON is the machine contract; rendered polynomial strings are display
conveniences. All serialization uses canonical key order and stable list
orders so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from .errors import SchemaError
from .fan import Fan, validate_fan
from .kahler import KahlerData, checked_q_basis
from .linform import LinForm, parse_linear_form

if TYPE_CHECKING:  # loaded where tables and potentials are built
    from .gw import GWTable
    from .laurent import LaurentPoly, QPoly

_FAN_KEYS = {"dimension", "rays", "maximal_cones", "kahler", "q_basis"}
_KAHLER_KEYS = {"parameters", "lambdas"}
_TABLE_KEYS = {"fan_fingerprint", "basis", "entries"}
# the fields potential_to_document writes, and those of a q-area
_POTENTIAL_KEYS = {"format", "branch", "cutoff", "z_variables", "q_variables", "q_basis",
                   "parameters", "q_areas", "correction", "gw_values", "terms", "rendered",
                   "fan"}
_AREA_KEYS = {"constant", "terms"}
POTENTIAL_FORMAT = "toricmirror-potential/1"
CRITICAL_FORMAT = "toricmirror-critical/1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _int_list(value, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a list")
    out = []
    for x in value:
        _require(isinstance(x, int) and not isinstance(x, bool),
                 f"{what} entries must be integers, got {x!r}")
        out.append(x)
    return out


def _int_matrix(value, what: str) -> list:
    _require(isinstance(value, list) and value, f"{what} must be a nonempty list")
    return [_int_list(row, f"{what} row") for row in value]


def _names(value) -> tuple:
    _require(isinstance(value, list) and all(isinstance(p, str) for p in value),
             "'parameters' must be a list of names")
    return tuple(value)


# Fraction builds 10**e for a decimal exponent e, which takes seconds once e
# has seven digits; beyond this bound (the default limit on the digits of an
# int read from text) a value is refused first
MAX_EXPONENT = 4300


def read_rational(value) -> Fraction:
    """An exact rational from a JSON string or number, or from a command-line
    value, as ``Fraction`` reads its text; a decimal exponent above
    MAX_EXPONENT in magnitude is a SchemaError, like any text Fraction
    refuses."""
    text = str(value)
    _, e, exponent = text.lower().rpartition("e")
    try:
        if not e or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational value {value!r}") from exc
    raise SchemaError(f"rational value {value!r} has a decimal exponent above "
                      f"{MAX_EXPONENT} in magnitude")


# --- fan documents ---

class FanDocument(NamedTuple):
    """Parsed fan document: the validated fan plus optional Kahler data."""

    fan: Fan
    kahler: Optional[KahlerData]
    parameters: tuple
    lambdas_text: tuple
    q_basis: Optional[list]


def fan_from_document(obj) -> FanDocument:
    _require(isinstance(obj, dict), "fan document must be a JSON object")
    unknown = set(obj) - _FAN_KEYS
    _require(not unknown, f"unknown fan document fields: {sorted(unknown)}")
    _require("dimension" in obj, "fan document needs 'dimension'")
    _require("rays" in obj, "fan document needs 'rays'")
    dim = obj["dimension"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             "'dimension' must be a positive integer")
    rays = _int_matrix(obj["rays"], "'rays'")
    cones = None
    if obj.get("maximal_cones") is not None:
        cones = _int_matrix(obj["maximal_cones"], "'maximal_cones'")
    fan = validate_fan(dim, rays, cones)

    q_basis = None
    if obj.get("q_basis") is not None:
        q_basis = [tuple(r) for r in _int_matrix(obj["q_basis"], "'q_basis'")]

    kahler = None
    parameters: tuple = ()
    lambdas_text: tuple = ()
    if obj.get("kahler") is not None:
        sub = obj["kahler"]
        _require(isinstance(sub, dict), "'kahler' must be an object")
        unknown = set(sub) - _KAHLER_KEYS
        _require(not unknown, f"unknown kahler fields: {sorted(unknown)}")
        parameters = _names(sub.get("parameters", []))
        _require(len(set(parameters)) == len(parameters), "duplicate parameter names")
        lams = sub.get("lambdas")
        _require(isinstance(lams, list) and len(lams) == fan.nrays,
                 f"'lambdas' must list one entry per ray ({fan.nrays})")
        parsed = []
        for lam in lams:
            _require(isinstance(lam, (str, int)) and not isinstance(lam, bool),
                     f"lambda entries must be strings or integers, got {lam!r}")
            try:
                parsed.append(parse_linear_form(lam, parameters))
            except ValueError as exc:
                raise SchemaError(f"bad lambda expression {lam!r}: {exc}") from exc
        lambdas_text = tuple(str(lam) for lam in lams)
        try:
            kahler = KahlerData(fan, parsed, q_basis)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    elif q_basis is not None:  # KahlerData checks it on the branch above
        try:
            checked_q_basis(fan, q_basis)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    return FanDocument(fan, kahler, parameters, lambdas_text, q_basis)


def _read_json(path):
    """Parse a JSON file. Text that is not UTF-8 JSON, or a path that cannot
    be read as a file, is a SchemaError; a missing file stays
    FileNotFoundError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from exc


def load_fan_document(path) -> FanDocument:
    return fan_from_document(_read_json(path))


def fan_to_document(fan: Fan, *, parameters=None, lambdas=None, q_basis=None) -> dict:
    doc = {
        "dimension": fan.dimension,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
    }
    if lambdas is not None:
        doc["kahler"] = {
            "parameters": list(parameters or []),
            "lambdas": [str(lam) for lam in lambdas],
        }
    if q_basis is not None:
        doc["q_basis"] = [list(b) for b in q_basis]
    return doc


# --- Gromov-Witten tables ---

def gw_table_from_document(obj, fan: Fan) -> GWTable:
    from .gw import validate_table

    _require(isinstance(obj, dict), "table document must be a JSON object")
    unknown = set(obj) - _TABLE_KEYS
    _require(not unknown, f"unknown table fields: {sorted(unknown)}")
    for key in _TABLE_KEYS:
        _require(key in obj, f"table document needs '{key}'")
    _require(isinstance(obj["fan_fingerprint"], str), "'fan_fingerprint' must be a string")
    basis = [tuple(r) for r in _int_matrix(obj["basis"], "'basis'")]
    _require(isinstance(obj["entries"], list), "'entries' must be a list")
    entries = {}
    for item in obj["entries"]:
        _require(isinstance(item, dict) and set(item) == {"class", "value"},
                 f"table entries must be objects with 'class' and 'value', got {item!r}")
        key = tuple(_int_list(item["class"], "entry class"))
        _require(len(key) == len(basis), "entry class length must match the basis size")
        value = read_rational(item["value"])
        _require(key not in entries, f"duplicate table key {key}")
        entries[key] = value
    return validate_table(obj["fan_fingerprint"], basis, entries, fan)


def load_gw_table(path, fan: Fan) -> GWTable:
    return gw_table_from_document(_read_json(path), fan)


# --- potential documents ---

def _qpoly_to_json(poly: QPoly) -> list:
    return [{"q": list(e), "value": str(c)} for e, c in poly.sorted_terms()]


def _qpoly_from_json(items, qvars: int) -> QPoly:
    from .laurent import QPoly

    _require(isinstance(items, list), "coefficient must be a list of q-terms")
    terms = {}
    for item in items:
        _require(isinstance(item, dict) and set(item) == {"q", "value"},
                 f"bad q-term {item!r}")
        qexp = tuple(_int_list(item["q"], "q-exponents"))
        _require(qexp not in terms, f"duplicate q-exponent {qexp} in a coefficient")
        terms[qexp] = read_rational(item["value"])
    try:
        return QPoly(qvars, terms)
    except ValueError as exc:
        raise SchemaError(f"bad coefficient polynomial: {exc}") from exc


def potential_to_document(poly: LaurentPoly, *, branch: str, fandoc: FanDocument,
                          cutoff: Optional[int] = None,
                          correction: Optional[QPoly] = None,
                          gw_records=()) -> dict:
    kahler = fandoc.kahler
    doc = {
        "format": POTENTIAL_FORMAT,
        "branch": branch,
        "cutoff": cutoff,
        "z_variables": poly.zvars,
        "q_variables": poly.qvars,
        "q_basis": [list(b) for b in kahler.q_basis],
        "parameters": list(kahler.parameter_names),
        "q_areas": [a.to_json() for a in kahler.basis_areas()],
        "correction": None if correction is None else _qpoly_to_json(correction),
        "gw_values": [
            {
                "class": list(rec.alpha),
                "q_exponents": list(rec.q_exponents),
                "value": str(rec.value),
                "source": rec.source,
            }
            for rec in gw_records
        ],
        "terms": [
            {"z": list(zexp), "coefficient": _qpoly_to_json(coeff)}
            for zexp, coeff in poly.sorted_terms()
        ],
        "rendered": str(poly),
        "fan": fan_to_document(
            fandoc.fan,
            parameters=fandoc.parameters,
            lambdas=fandoc.lambdas_text,
            q_basis=kahler.q_basis,
        ),
    }
    return doc


class PotentialDocument(NamedTuple):
    """What ``crit`` reads of a potential document: W, the declared
    parameters, one area per q-variable, and the fan section, whose Kahler
    data (when present) gives exactly those areas."""

    poly: LaurentPoly
    parameters: tuple
    q_areas: list
    fandoc: Optional[FanDocument]

    def t_vector(self, values: Mapping) -> list:
        """Per-q-variable exponents t_j = area_j(parameter values)."""
        missing = sorted(
            {n for a in self.q_areas for n in a.variables} - set(values)
        )
        if missing:
            raise SchemaError(f"missing parameter values for {missing}")
        try:
            return [float(a.subs(values)) for a in self.q_areas]
        except OverflowError as exc:
            raise SchemaError(f"a q-area overflows a float at these parameter values ({exc})") from exc


def _area_from_json(item) -> LinForm:
    _require(isinstance(item, dict) and isinstance(item.get("terms", {}), dict),
             f"a q-area must be an object whose 'terms' is an object, got {item!r}")
    unknown = set(item) - _AREA_KEYS
    _require(not unknown, f"unknown q-area fields: {sorted(unknown)}")
    return LinForm(read_rational(item.get("constant", "0")),
                   {n: read_rational(c) for n, c in item.get("terms", {}).items()})


def potential_from_document(obj) -> PotentialDocument:
    from .laurent import LaurentPoly

    _require(isinstance(obj, dict), "potential document must be a JSON object")
    _require(obj.get("format") == POTENTIAL_FORMAT,
             f"unsupported potential format {obj.get('format')!r}")
    unknown = set(obj) - _POTENTIAL_KEYS
    _require(not unknown, f"unknown potential document fields: {sorted(unknown)}")
    for key in ("z_variables", "q_variables", "terms", "q_areas", "parameters"):
        _require(key in obj, f"potential document needs '{key}'")
    zvars = obj["z_variables"]
    qvars = obj["q_variables"]
    for label, count in (("z_variables", zvars), ("q_variables", qvars)):
        _require(isinstance(count, int) and not isinstance(count, bool) and count >= 0,
                 f"'{label}' must be a nonnegative integer")
    _require(isinstance(obj["terms"], list), "'terms' must be a list")
    terms = {}
    for item in obj["terms"]:
        _require(isinstance(item, dict) and set(item) == {"z", "coefficient"},
                 f"bad potential term {item!r}")
        zexp = tuple(_int_list(item["z"], "z-exponents"))
        _require(zexp not in terms, f"duplicate z-exponent {zexp} in 'terms'")
        terms[zexp] = _qpoly_from_json(item["coefficient"], qvars)
    try:
        poly = LaurentPoly(zvars, qvars, terms)
    except ValueError as exc:
        raise SchemaError(f"inconsistent potential terms: {exc}") from exc
    _require(isinstance(obj["q_areas"], list) and len(obj["q_areas"]) == qvars,
             "'q_areas' must list one area per q-variable")
    q_areas = [_area_from_json(a) for a in obj["q_areas"]]
    params = _names(obj["parameters"])
    fandoc = None
    if obj.get("fan") is not None:
        fandoc = fan_from_document(obj["fan"])
        # crit seeds W from this fan's polytope, so it must be W's geometry
        exponents = {z for z in poly.terms if any(z)}
        _require(not exponents or set(fandoc.fan.rays) == exponents,
                 "the 'fan' section's rays differ from the potential's nonconstant "
                 "z-exponents")
        _require(fandoc.kahler is None or list(fandoc.kahler.basis_areas()) == q_areas,
                 "the areas of the 'fan' section's q-basis differ from 'q_areas'")
    return PotentialDocument(poly, params, q_areas, fandoc)


def load_potential_document(path) -> PotentialDocument:
    return potential_from_document(_read_json(path))


# --- critical reports ---

def _complex_json(value: complex) -> list:
    return [value.real, value.imag]


def critical_report_to_document(report, t_values: Mapping) -> dict:
    return {
        "format": CRITICAL_FORMAT,
        "points": [[_complex_json(v) for v in point] for point in report.points],
        "values": [_complex_json(v) for v in report.values],
        "residuals": list(report.residuals),
        "multistart": {
            "attempted": report.attempted,
            "converged": report.converged,
            "deduped": report.deduped,
            "expected": report.expected,
            "orbit_size": report.orbit_size,
            "grid_size": report.grid_size,
            "truncated": report.truncated,
        },
        "options": report.options.to_json(),
        "t_values": {k: float(v) for k, v in sorted(t_values.items())},
    }
