"""Batch front-end: read JSON descriptions, run checks or constructions,
emit deterministic JSON reports.

Exit codes: 0 all checks pass, 1 a semantic check fails, 2 the input
cannot be parsed (stable contract).  Reports are byte-identical across
runs with the same inputs and seed, apart from the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import catalog, serialize
from .double import build_double, check_double_axioms
from .homogeneous import is_quasi_poisson_datum
from .liealg import axiom_report
from .twisting import check_twist_iso, twist_equations

PASS, FAIL, INPUT_ERROR = 0, 1, 2


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError("cannot parse %s: %s" % (path, exc)) from None


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _emit(args, report: dict, code: int) -> int:
    report["timing_s"] = round(time.perf_counter() - args._t0, 6)
    text = serialize.dumps_canonical(report)
    if args.json_out:
        Path(args.json_out).write_text(text)
    if not args.quiet:
        sys.stdout.write(text)
    return code


def _report_skeleton(args, command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "inputs": {role: {"path": path, "sha256": digest}
                   for role, (path, digest) in inputs.items()},
    }


def cmd_validate(args) -> int:
    obj, raw = _read_json(args.file)
    try:
        qb = serialize.qb_from_dict(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    checks = axiom_report(qb)
    report = _report_skeleton(args, "validate", {"algebra": (args.file, _digest(raw))})
    report["checks"] = {name: serialize.verdict_to_dict(v) for name, v in checks.items()}
    ok = all(v.ok for v in checks.values())
    report["verdict"] = "pass" if ok else "fail"
    return _emit(args, report, PASS if ok else FAIL)


def cmd_double(args) -> int:
    obj, raw = _read_json(args.file)
    try:
        qb = serialize.qb_from_dict(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    dbl = build_double(qb)
    axioms = check_double_axioms(dbl)
    report = _report_skeleton(args, "double", {"algebra": (args.file, _digest(raw))})
    report["double"] = serialize.double_to_dict(dbl)
    report["axioms"] = {
        "jacobi": serialize.verdict_to_dict(axioms.jacobi),
        "q_invariance": serialize.verdict_to_dict(axioms.q_invariance),
    }
    report["verdict"] = "pass" if axioms.ok else "fail"
    return _emit(args, report, PASS if axioms.ok else FAIL)


def cmd_classify(args) -> int:
    alg_obj, alg_raw = _read_json(args.algebra_file)
    datum_obj, datum_raw = _read_json(args.datum_file)
    try:
        qb = serialize.qb_from_dict(alg_obj)
        datum = serialize.datum_from_dict(datum_obj, default_qb=qb)
        if datum.qb != qb:
            raise ValueError("datum file carries a different inline algebra")
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rep = is_quasi_poisson_datum(datum)
    report = _report_skeleton(args, "classify", {
        "algebra": (args.algebra_file, _digest(alg_raw)),
        "datum": (args.datum_file, _digest(datum_raw)),
    })
    report["report"] = rep.as_dict()
    report["obstruction"] = serialize.tensor_to_entries(rep.obstruction)
    report["stability_residuals"] = [serialize.tensor_to_entries(t)
                                     for t in rep.residuals]
    report["subalgebra_witness"] = serialize.verdict_to_dict(rep.span_closure)
    report["verdict"] = "pass" if rep.verdict else "fail"
    return _emit(args, report, PASS if rep.verdict else FAIL)


def cmd_twist(args) -> int:
    alg_obj, alg_raw = _read_json(args.algebra_file)
    r_obj, r_raw = _read_json(args.r_file)
    try:
        qb = serialize.qb_from_dict(alg_obj)
        r = serialize.rmatrix_from_dict(r_obj)
        if r.dim != qb.dim:
            raise ValueError("bivector dimension differs from the algebra")
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rep = check_twist_iso(qb, r)
    report = _report_skeleton(args, "twist", {
        "algebra": (args.algebra_file, _digest(alg_raw)),
        "r": (args.r_file, _digest(r_raw)),
    })
    report["twisted"] = serialize.qb_to_dict(rep.target)
    report["certificates"] = {
        "bracket": serialize.verdict_to_dict(rep.bracket_ok),
        "q_form": serialize.verdict_to_dict(rep.q_ok),
        "fixes_g": serialize.verdict_to_dict(rep.fixes_g),
    }
    report["verdict"] = "pass" if rep.ok else "fail"
    return _emit(args, report, PASS if rep.ok else FAIL)


def cmd_twist_equations(args) -> int:
    obj, raw = _read_json(args.algebra_file)
    try:
        qb = serialize.qb_from_dict(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    system = twist_equations(qb)
    report = _report_skeleton(args, "twist-equations",
                              {"algebra": (args.algebra_file, _digest(raw))})
    report["system"] = system.as_dict()
    report["verdict"] = "pass"
    return _emit(args, report, PASS)


def cmd_catalog(args) -> int:
    try:
        entry = catalog.builtin(args.name)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    text = serialize.dumps_canonical(serialize.qb_to_dict(entry.algebra))
    if args.json_out:
        Path(args.json_out).write_text(text)
    if not args.quiet:
        sys.stdout.write(text)
    return PASS


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed echoed into the report (randomized suites)")
    common.add_argument("--json-out", default=None, help="also write the report here")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    p = argparse.ArgumentParser(prog="quasilie")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", parents=[common],
                       help="run the structural axioms on an algebra file")
    s.add_argument("file")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("double", parents=[common], help="build and check the double")
    s.add_argument("file")
    s.set_defaults(func=cmd_double)

    s = sub.add_parser("classify", parents=[common],
                       help="classify a homogeneous datum")
    s.add_argument("algebra_file")
    s.add_argument("datum_file")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("twist", parents=[common],
                       help="twist by a bivector and certify the double map")
    s.add_argument("algebra_file")
    s.add_argument("r_file")
    s.set_defaults(func=cmd_twist)

    s = sub.add_parser("twist-equations", parents=[common],
                       help="emit the polynomial system of the twist equation")
    s.add_argument("algebra_file")
    s.set_defaults(func=cmd_twist_equations)

    s = sub.add_parser("catalog", parents=[common], help="print a built-in fixture")
    s.add_argument("name")
    s.set_defaults(func=cmd_catalog)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return INPUT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
