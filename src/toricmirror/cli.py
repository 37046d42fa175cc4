"""Command-line interface.

Subcommands:

* ``analyze``   fan document -> combinatorial report (homology, primitive
                collections and relations, positivity class, effective
                generators)
* ``bundle``    Fano fan document -> projectivized canonical bundle fan
* ``potential`` fan document (with Kahler data) -> superpotential document
* ``crit``      potential document + parameter values -> critical points

Exit codes: 0 success, 1 internal error, and otherwise the ``exit_code`` of
the error class raised (``errors.py``): 2 schema/input error, 3 invalid or
unsupported fan, 4 base not Fano (bundle), 5 unknown invariant, 6 no
convergence, 7 more critical points than the root bound. A missing input
file exits 2, and so does an ``-o`` path that cannot be written.

Each subcommand imports the layers it runs when it runs, so a process loads
only those: ``analyze`` and ``bundle`` stop at the fan, bundle and Kahler
layers, ``potential`` adds the invariant, Laurent and potential layers, and
``crit`` adds the solver (``roots``), in pure Python.
"""

from __future__ import annotations

import argparse
import math
import sys

from .documents import (
    canonical_json,
    critical_report_to_document,
    fan_to_document,
    load_fan_document,
    load_gw_table,
    load_potential_document,
    potential_to_document,
    read_rational,
)
from .errors import NoConvergence, RootBoundExceeded, SchemaError, ToricMirrorError


def _write(text: str, out_path):
    """Write to stdout, or to out_path. A path that cannot be written (a
    directory, a missing parent, no permission) is a SchemaError."""
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"{out_path}: cannot write ({exc.strerror})") from exc


def _require_at_least(value, low, flag: str, strict: bool = False):
    """SchemaError unless value is finite and at least low (above low when
    strict). The comparisons are negated so that NaN fails them."""
    if not (value > low if strict else value >= low):
        bound = "greater than" if strict else "at least"
        raise SchemaError(f"{flag} must be {bound} {low}, got {value}")
    if not value < math.inf:
        raise SchemaError(f"{flag} must be finite, got {value}")


def _cmd_analyze(args) -> int:
    from .fan import classify_positivity

    fan = load_fan_document(args.fan).fan
    relations = fan.primitive_relations
    payload = {
        "valid": True,
        "dimension": fan.dimension,
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.maximal_cones],
        "homology_basis": [list(b) for b in fan.homology_basis],
        "primitive_collections": [list(c) for c in fan.primitive_collections],
        "primitive_relations": [
            {
                "collection": list(r.collection),
                "focus": list(r.focus),
                "multiplicities": list(r.multiplicities),
                "class": list(r.coords),
                "degree": r.degree,
            }
            for r in relations
        ],
        "classification": classify_positivity(fan).value,
        "effective_generators": [
            list(c) for c in sorted({r.coords for r in relations})
        ],
    }
    if args.json:
        _write(canonical_json(payload), args.out)
        return 0
    lines = [
        f"fan: dimension {fan.dimension}, {fan.nrays} rays, "
        f"{len(fan.maximal_cones)} maximal cones — valid",
        f"homology basis: {payload['homology_basis']}",
        f"primitive collections: {payload['primitive_collections']}",
        "primitive relations:",
    ]
    for r in payload["primitive_relations"]:
        focus = (
            " + ".join(
                f"{m}*v{j}" if m != 1 else f"v{j}"
                for j, m in zip(r["focus"], r["multiplicities"])
            )
            or "0"
        )
        lhs = " + ".join(f"v{i}" for i in r["collection"])
        lines.append(f"  {lhs} = {focus}   class {r['class']}   degree {r['degree']}")
    lines.append(f"classification: {payload['classification']}")
    lines.append(f"effective generators: {payload['effective_generators']}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bundle(args) -> int:
    from .bundle import default_q_basis, projectivize_canonical

    doc = load_fan_document(args.fan)
    fan_x = projectivize_canonical(doc.fan)
    q_basis = default_q_basis(fan_x)
    out = fan_to_document(fan_x, q_basis=q_basis)
    _write(canonical_json(out), args.out)
    return 0


def _cmd_potential(args) -> int:
    from .fan import Positivity, classify_positivity
    from .gw import GWProvider
    from .potential import correction_details, hori_vafa, potential_with_correction

    doc = load_fan_document(args.fan)
    if doc.kahler is None:
        raise SchemaError(
            "fan document carries no 'kahler' section; the potential needs "
            "support constants"
        )
    fan = doc.fan
    kahler = doc.kahler
    # checked on both branches, though the Hori-Vafa one reads neither
    _require_at_least(args.cutoff, 0, "--cutoff")
    table = load_gw_table(args.gw_table, fan) if args.gw_table else None
    if classify_positivity(fan) is Positivity.FANO:
        poly = hori_vafa(fan, kahler)
        fields = {"branch": "hori-vafa"}
    else:
        gw = GWProvider(kahler, table=table, assume_zero=args.assume_zero_above_cutoff)
        factor, records = correction_details(fan, kahler, gw, args.cutoff)
        poly = potential_with_correction(kahler, factor)
        fields = {"branch": "corrected", "cutoff": args.cutoff, "correction": factor,
                  "gw_records": records}
    _write(canonical_json(potential_to_document(poly, fandoc=doc, **fields)), args.out)
    return 0


def _parse_assignments(pairs) -> dict:
    """``--t name=value`` pairs as exact values; a name given twice is a
    SchemaError, since only one of its values could be used."""
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SchemaError(f"expected name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        name = name.strip()
        if name in values:
            raise SchemaError(f"--t gives parameter {name!r} more than once")
        values[name] = read_rational(raw)
    return values


def _cmd_crit(args) -> int:
    from .roots import SolverOptions, moduli_from_polytope, solve

    _require_at_least(args.phases, 1, "--phases")
    _require_at_least(args.max_steps, 0, "--max-steps")
    _require_at_least(args.max_starts, 1, "--max-starts")
    _require_at_least(args.tol, 0, "--tol", strict=True)
    _require_at_least(args.dedup_radius, 0, "--dedup-radius")
    doc = load_potential_document(args.potential)
    values = _parse_assignments(args.t)
    # every --t name is reported in t_values, so one the run never reads is refused
    known = set(doc.parameters).union(*(a.variables for a in doc.q_areas))
    for name in values:
        if name not in known:
            raise SchemaError(f"--t names {name!r}, which is neither a parameter of "
                              f"the document nor a variable of its q-areas")
    t = doc.t_vector(values)
    t_values = {}
    for name, value in values.items():
        try:
            t_values[name] = float(value)
        except OverflowError as exc:
            raise SchemaError(f"--t value of {name!r} overflows a float") from exc
    kahler = doc.fandoc and doc.fandoc.kahler
    moduli = None if kahler is None else moduli_from_polytope(kahler, values)
    options = SolverOptions(
        phases_per_coord=args.phases,
        max_steps=args.max_steps,
        tol=args.tol,
        dedup_radius=args.dedup_radius,
        max_starts=args.max_starts,
        moduli_per_coord=moduli,
    )
    report = solve(doc.poly, t, options)
    payload = critical_report_to_document(report, t_values)
    _write(canonical_json(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmirror",
        description="Toric fans, mirror superpotentials, critical points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="combinatorial invariants of a fan")
    p.add_argument("fan", help="fan document (JSON)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bundle", help="projectivized canonical bundle of a Fano fan")
    p.add_argument("fan", help="base fan document (JSON)")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("potential", help="mirror superpotential document")
    p.add_argument("fan", help="fan document with kahler data (JSON)")
    p.add_argument("--cutoff", type=int, default=2,
                   help="bound on generator multiplicities in the correction sum")
    p.add_argument("--gw-table", default=None, help="invariant table (JSON)")
    p.add_argument("--assume-zero-above-cutoff", action="store_true",
                   help="zero-fill invariants absent from every source")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("crit", help="critical points of a potential document")
    p.add_argument("potential", help="potential document (JSON)")
    p.add_argument("--t", action="append", metavar="NAME=VALUE",
                   help="parameter value (repeatable); q = exp(-area(t))")
    p.add_argument("--phases", type=int, default=8,
                   help="start phases per seed modulus and coordinate (Newton factors)")
    p.add_argument("--max-steps", type=int, default=100,
                   help="Newton steps per start (Newton factors)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="log-gradient residual that admits a critical point")
    p.add_argument("--dedup-radius", type=float, default=1e-8,
                   help="log-coordinate radius that merges converged starts (Newton factors)")
    p.add_argument("--max-starts", type=int, default=4096,
                   help="starts per Newton factor, at most")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_crit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToricMirrorError, NoConvergence, RootBoundExceeded, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
