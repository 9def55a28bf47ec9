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


def _load(path: str, reader):
    """(reader(JSON value of the file), (path, sha256 of its bytes)); a file
    that cannot be read, decoded, parsed or accepted raises InputError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    try:
        # RecursionError: json's parser recurses once per nesting level
        return reader(json.loads(raw.decode("utf-8"))), (path, hashlib.sha256(raw).hexdigest())
    except (ValueError, RecursionError) as exc:
        raise InputError("%s: %s" % (path, exc)) from None


def _emit(args, obj: dict, code: int = PASS) -> int:
    text = serialize.dumps_canonical(obj)
    if args.json_out:
        Path(args.json_out).write_text(text)
    if not args.quiet:
        sys.stdout.write(text)
    return code


def _report(args, command: str, inputs: dict, ok: bool, **fields) -> int:
    """Emit the report of a command: its inputs as role -> (path, sha256),
    its result fields, the verdict and the wall time since argument parsing."""
    report = dict(fields, command=command, seed=args.seed, verdict="pass" if ok else "fail",
                  inputs={role: {"path": path, "sha256": digest}
                          for role, (path, digest) in inputs.items()})
    report["timing_s"] = round(time.perf_counter() - args._t0, 6)
    return _emit(args, report, PASS if ok else FAIL)


def cmd_validate(args) -> int:
    qb, src = _load(args.file, serialize.qb_from_dict)
    checks = axiom_report(qb)
    return _report(args, "validate", {"algebra": src}, all(v.ok for v in checks.values()),
                   checks={name: serialize.verdict_to_dict(v) for name, v in checks.items()})


def cmd_double(args) -> int:
    qb, src = _load(args.file, serialize.qb_from_dict)
    dbl = build_double(qb)
    axioms = check_double_axioms(dbl)
    return _report(args, "double", {"algebra": src}, axioms.ok,
                   double=serialize.double_to_dict(dbl),
                   axioms={"jacobi": serialize.verdict_to_dict(axioms.jacobi),
                           "q_invariance": serialize.verdict_to_dict(axioms.q_invariance)})


def cmd_classify(args) -> int:
    qb, alg_src = _load(args.algebra_file, serialize.qb_from_dict)
    datum, datum_src = _load(args.datum_file,
                             lambda obj: serialize.datum_from_dict(obj, default_qb=qb))
    if datum.qb != qb:
        raise InputError("datum file carries a different inline algebra")
    rep = is_quasi_poisson_datum(datum)
    return _report(args, "classify", {"algebra": alg_src, "datum": datum_src}, rep.verdict,
                   report=rep.as_dict(),
                   obstruction=serialize.tensor_to_entries(rep.obstruction),
                   stability_residuals=[serialize.tensor_to_entries(t) for t in rep.residuals],
                   subalgebra_witness=serialize.verdict_to_dict(rep.span_closure))


def cmd_twist(args) -> int:
    qb, alg_src = _load(args.algebra_file, serialize.qb_from_dict)
    r, r_src = _load(args.r_file, serialize.rmatrix_from_dict)
    if r.dim != qb.dim:
        raise InputError("bivector dimension differs from the algebra")
    rep = check_twist_iso(qb, r)
    return _report(args, "twist", {"algebra": alg_src, "r": r_src}, rep.ok,
                   twisted=serialize.qb_to_dict(rep.target),
                   certificates={"bracket": serialize.verdict_to_dict(rep.bracket_ok),
                                 "q_form": serialize.verdict_to_dict(rep.q_ok),
                                 "fixes_g": serialize.verdict_to_dict(rep.fixes_g)})


def cmd_twist_equations(args) -> int:
    qb, src = _load(args.algebra_file, serialize.qb_from_dict)
    return _report(args, "twist-equations", {"algebra": src}, True,
                   system=twist_equations(qb).as_dict())


def cmd_catalog(args) -> int:
    try:
        entry = catalog.builtin(args.name)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _emit(args, serialize.qb_to_dict(entry.algebra))


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
