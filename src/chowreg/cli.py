"""Command-line interface: checks, boundaries, normalization, admissibility,
regulator values, torsion orders, and path exports.

Reports are a single JSON object mapping cycle names to result records (or a
text rendering of the same); every reported number carries its error bound.
Exit codes: 0 ok, 2 parse, 3 properness, 4 schedule, 5 convergence,
6 precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import mpmath as mp

from . import cycles as cyc
from .errors import ChowregError
from .fixtures import FIXTURES, fixture_names, load_fixture
from .funcfield import INF, RationalFunction, rf_to_expr
from .field import CyclotomicNumber
from .numeric import ComplexApprox, workprec
from .parser import parse_cycle_file, serialize_cycles
from .regulator import intersection_number_n2, regulator, torsion_order
from .wavefront import (
    PhaseSchedule,
    admissible,
    find_pair_intersections,
    make_schedule,
    search_admissible,
    trace_wavefront,
)

FORMAT_VERSION = 1
_NSTR_DIGITS = 30


def _num(x):
    return mp.nstr(mp.mpf(x), _NSTR_DIGITS, strip_zeros=True)


def _cnum(z, radius=None):
    z = mp.mpc(z)
    rec = {"re": _num(z.real), "im": _num(z.imag)}
    if radius is not None:
        rec["error"] = repr(float(radius))
    return rec


def _coord_record(v):
    if v is INF:
        return "inf"
    if isinstance(v, CyclotomicNumber):
        return rf_to_expr(RationalFunction.constant(v))
    if isinstance(v, ComplexApprox):
        return _cnum(v.value, v.radius)
    return _cnum(v)


def _load_cycles(args):
    if args.fixture:
        return [load_fixture(args.fixture)]
    if not args.input:
        raise ChowregError("provide an input file or --fixture NAME")
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_cycle_file(fh.read())


def _schedule_for(Z, args, precision_bits):
    eps = mp.mpf(repr(args.eps)) if args.eps is not None else mp.mpf("0.3")
    if getattr(args, "equal_phase", False):
        return PhaseSchedule(eps, (eps,) * Z.n)
    lam = mp.mpf(repr(getattr(args, "schedule_lambda", 0.5) or 0.5))
    return make_schedule(eps, Z.n, lam, precision_bits)


def _check_record(Z, precision_bits):
    rec = {"n": Z.n, "p": Z.p, "components": len(Z.components)}
    if Z.is_curve_level:
        proper = cyc.check_face_proper(Z)
        rec["proper"] = proper["ok"]
        if not proper["ok"]:
            rec["violations"] = [
                {"component": v["component"], "coordinates": v["coordinates"]}
                for v in proper["violations"]
            ]
            return rec
        rec["closed"] = cyc.is_closed(Z, precision_bits)
        rec["normalized"] = cyc.is_normalized(Z)
        rec["degenerate_components"] = [
            k for k, c in enumerate(Z.components) if cyc.is_degenerate(c)
        ]
    else:
        rec["proper"] = True
        rec["closed"] = True
        rec["normalized"] = True
        rec["degenerate_components"] = []
    return rec


def _boundary_record(Z):
    b = cyc.boundary(Z)
    return {
        "n": b.n,
        "p": b.p,
        "points": [
            {"mult": pt.mult, "coords": [_coord_record(v) for v in pt.coords]}
            for pt in b.components
        ],
    }


def _value_record(v):
    rec = {
        "re": _num(v.value.value.real),
        "im": _num(v.value.value.imag),
        "error": repr(float(v.value.radius)),
        "lattice_power": v.p,
        "lattice_multiple": v.lattice_multiple,
        "q": _cnum(v.q_value()),
        "schedule": v.schedule_used.describe(),
        "agreement": [
            {
                "bounds": [repr(x) for x in a["bounds"]],
                "lattice_multiple": a["lattice_multiple"],
                "residual": repr(a["residual"]),
                "ok": a["ok"],
            }
            for a in v.agreement
        ],
        "breakdown": [
            {
                "component": e["component"],
                "mult": e["mult"],
                "line_integral": _cnum(e["line_integral"].value,
                                       e["line_integral"].radius),
                "crossing_sum": _cnum(e["crossing_sum"].value,
                                      e["crossing_sum"].radius),
                "crossings": [
                    {"t": _cnum(c["t"].value, c["t"].radius), "sign": c["sign"]}
                    for c in e["crossings"]
                ],
            }
            for e in v.breakdown
            if isinstance(e, dict)
        ],
    }
    return rec


def _cmd_check(Z, args, precision_bits, tol):
    return _check_record(Z, precision_bits)


def _cmd_boundary(Z, args, precision_bits, tol):
    rec = _check_record(Z, precision_bits)
    rec["boundary"] = _boundary_record(Z)
    return rec


def _cmd_normalize(Z, args, precision_bits, tol):
    Zn = cyc.normalize(Z)
    return {
        "n": Zn.n,
        "p": Zn.p,
        "normalized": cyc.is_normalized(Zn),
        "cycle": serialize_cycles([Zn]),
    }


def _cmd_admissible(Z, args, precision_bits, tol):
    s = _schedule_for(Z, args, precision_bits)
    rep = admissible(Z, s, precision_bits=precision_bits, tol=tol)
    rec = rep.to_dict()
    rec["equal_phase"] = bool(getattr(args, "equal_phase", False))
    rec["b_nested"] = s.is_b_nested()
    return rec


def _cmd_regulator(Z, args, precision_bits, tol):
    if Z.is_curve_level and Z.n == 2:
        rep = search_admissible(Z, getattr(args, "eps", None) or 0.3,
                                seed=args.seed, precision_bits=precision_bits)
        count = intersection_number_n2(Z, rep, precision_bits=precision_bits)
        return {
            "kind": "intersection_number",
            "count": count,
            "schedule": rep.schedule.describe(),
        }
    v = regulator(Z, precision_bits=precision_bits, tol=tol, seed=args.seed)
    rec = {"kind": "regulator"}
    rec.update(_value_record(v))
    return rec


def _cmd_torsion(Z, args, precision_bits, tol):
    v = regulator(Z, precision_bits=precision_bits, tol=tol, seed=args.seed)
    res = torsion_order(v, max_order=args.max_order, tol=max(tol, 1e-10))
    rec = _value_record(v)
    rec["torsion"] = {
        "order": res.order,
        "certificate": str(res.certificate) if res.certificate is not None else None,
        "residual": repr(res.residual),
    }
    return rec


def _cmd_trace(Z, args, precision_bits, tol):
    s = _schedule_for(Z, args, precision_bits)
    outdir = args.export
    os.makedirs(outdir, exist_ok=True)
    path_rows = []
    ix_rows = []
    for ci, comp in enumerate(Z.components):
        if not Z.is_curve_level:
            continue
        all_paths = {}
        for i in range(1, Z.n + 1):
            if comp.coords[i - 1].is_constant():
                continue
            paths = trace_wavefront(comp, i, s.phases[i - 1],
                                    precision_bits=precision_bits)
            all_paths[i] = paths
            for p in paths:
                for k, (sig, t) in enumerate(zip(p.sigmas, p.points)):
                    path_rows.append([
                        ci, i, k,
                        mp.nstr(t.real, 20), mp.nstr(t.imag, 20),
                        mp.nstr(mp.e ** sig, 20),
                        repr(p.arg_residuals[k]),
                    ])
        if Z.n >= 2 and 1 in all_paths:
            for c in find_pair_intersections(comp, all_paths[1], 2, s.phases[1],
                                             precision_bits=precision_bits):
                ix_rows.append([
                    ci, 1, 2,
                    mp.nstr(c.t.value.real, 20), mp.nstr(c.t.value.imag, 20),
                    c.sign,
                ])
    paths_file = os.path.join(outdir, f"{Z.name or 'cycle'}_paths.csv")
    with open(paths_file, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# chowreg path export, format_version {FORMAT_VERSION}\n")
        w = csv.writer(fh)
        w.writerow(["component_id", "coord_index", "sample_index",
                    "re_t", "im_t", "r", "arg_residual"])
        w.writerows(path_rows)
    ix_file = os.path.join(outdir, f"{Z.name or 'cycle'}_intersections.csv")
    with open(ix_file, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# chowreg intersection export, format_version {FORMAT_VERSION}\n")
        w = csv.writer(fh)
        w.writerow(["component_id", "i", "j", "re_t", "im_t", "sign"])
        w.writerows(ix_rows)
    return {
        "schedule": s.describe(),
        "paths_file": paths_file,
        "intersections_file": ix_file,
        "path_samples": len(path_rows),
        "intersections": len(ix_rows),
    }


_COMMANDS = {
    "check": _cmd_check,
    "boundary": _cmd_boundary,
    "normalize": _cmd_normalize,
    "admissible": _cmd_admissible,
    "regulator": _cmd_regulator,
    "torsion": _cmd_torsion,
    "trace": _cmd_trace,
}


def _render_text(report):
    lines = []
    for name, rec in report["cycles"].items():
        lines.append(f"== {name}")
        lines.extend(_render_record(rec, indent="  "))
    return "\n".join(lines) + "\n"


def _render_record(rec, indent=""):
    lines = []
    for key, val in rec.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_record(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{indent}{key}: [{len(val)} entries]")
        else:
            lines.append(f"{indent}{key}: {val}")
    return lines


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--precision", type=int, default=256,
                        help="working precision in bits (default 256)")
    shared.add_argument("--tolerance", type=float, default=1e-8,
                        help="reporting tolerance (default 1e-8)")
    shared.add_argument("--format", choices=("json", "text"), default="json")
    shared.add_argument("--seed", type=int, default=0,
                        help="schedule-search determinism seed")
    ap = argparse.ArgumentParser(
        prog="chowreg",
        description="regulator computations for parametrized cycles in the "
                    "algebraic cube over cyclotomic fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", nargs="?", help="cycle-definition file")
        p.add_argument("--fixture", help="use a built-in cycle instead of a file")

    for name in ("check", "boundary", "normalize", "regulator"):
        add_common(sub.add_parser(name, parents=[shared]))
    p = sub.add_parser("admissible", parents=[shared])
    add_common(p)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--equal-phase", action="store_true",
                   help="use one phase for every coordinate (reproduces the "
                        "equal-phase failure mode; not a nested schedule)")
    p.add_argument("--schedule-lambda", type=float, default=0.5)
    p = sub.add_parser("torsion", parents=[shared])
    add_common(p)
    p.add_argument("--max-order", type=int, default=200)
    p = sub.add_parser("trace", parents=[shared])
    add_common(p)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--schedule-lambda", type=float, default=0.5)
    p.add_argument("--export", default=".", help="directory for CSV exports")
    sub.add_parser("fixtures", parents=[shared])
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "fixtures":
            report = {
                "format_version": FORMAT_VERSION,
                "fixtures": {name: FIXTURES[name] for name in fixture_names()},
            }
            print(json.dumps(report, indent=2) if args.format == "json"
                  else "\n".join(fixture_names()))
            return 0
        with workprec(args.precision):
            cycles = _load_cycles(args)
            handler = _COMMANDS[args.command]
            records = {}
            for Z in cycles:
                records[Z.name or f"cycle{len(records)}"] = handler(
                    Z, args, args.precision, args.tolerance)
        report = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "precision_bits": args.precision,
            "tolerance": repr(args.tolerance),
            "seed": args.seed,
            "cycles": records,
        }
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            print(_render_text(report))
        return 0
    except ChowregError as exc:
        err = {"error": {"class": exc.tag, "message": str(exc)}}
        print(json.dumps(err) if args.format == "json" else f"error [{exc.tag}]: {exc}",
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": {"class": "io", "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
