"""Output checks: report digests against goldens, and theorem
cross-checks that hold for every seed.

A job outcome is classed as an *error* when it breaks the CLI's exit-code
contract (0 pass, 1 semantic fail, 2 bad input) or raises, and as
*wrong* when its exit code differs from what the theorem behind the job
demands, its report digest differs from the golden, or a cross-check
between jobs fails.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import prod

RATIONAL = re.compile(r"-?\d+(/\d+)?")
TIMING_LINE = re.compile(r'\n *"timing_s": [^\n]*')


def report_of(payload):
    """The report object of a job payload; CLI stdout is parsed and its
    timing field dropped."""
    if not isinstance(payload, str):
        return payload
    if not payload.strip():
        return None
    report = json.loads(payload)
    if isinstance(report, dict):
        report.pop("timing_s", None)
    return report


def digest(payload) -> str | None:
    """sha256 of the CLI's stdout bytes without the timing line, or of
    the canonical JSON of an API report."""
    if isinstance(payload, str):
        text = TIMING_LINE.sub("", payload)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length of any rational text in
    a report (input digests and paths are skipped)."""
    if isinstance(obj, dict):
        return max((max_bits(v) for k, v in obj.items() if k not in ("sha256", "path")),
                   default=0)
    if isinstance(obj, list):
        return max((max_bits(v) for v in obj), default=0)
    if isinstance(obj, str) and RATIONAL.fullmatch(obj):
        x = Fraction(obj)
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def classify_outcome(job, code, exc) -> tuple[str | None, str | None]:
    """(error, wrong) descriptions for one outcome, None when fine."""
    if exc is not None:
        return "raised %s" % exc, None
    if code not in (0, 1, 2):
        return "exit code %r outside the 0/1/2 contract" % (code,), None
    if job.expect == "input_error":
        return (None if code == 2 else "bad input exited %d, not 2" % code), None
    if code == 2:
        return "valid input rejected with exit 2", None
    want = {"pass": 0, "fail": 1}.get(job.expect)
    if want is not None and code != want:
        return None, "exit %d where the theorem demands %d" % (code, want)
    return None, None


# ---- cross-checks ----------------------------------------------------------

def _all_ok(verdicts: dict) -> bool:
    return all(v["ok"] for v in verdicts.values())


def _pairs_by_suffix(reports, suffix):
    for name, rep in reports.items():
        if name.endswith(suffix) and rep is not None:
            yield name[: -len(suffix)], name, rep


def generic_checks(reports: dict) -> list:
    """Checks that pair jobs by name, for every workload."""
    bad = []
    for prefix, name, rep in _pairs_by_suffix(reports, ".validate"):
        dbl = reports.get(prefix + ".double")
        axioms_ok = _all_ok(rep["checks"])
        if dbl is not None and dbl["axioms"]["jacobi"]["ok"] != axioms_ok:
            bad.append((prefix + ".double", "double Jacobi %s but the four axioms %s"
                        % (dbl["axioms"]["jacobi"]["ok"], axioms_ok)))
        if not axioms_ok and not any(v["witness"] is not None
                                     for v in rep["checks"].values() if not v["ok"]):
            bad.append((name, "failing axiom without a witness"))
        tw = reports.get(prefix + ".twist")
        if axioms_ok and tw is not None and not _all_ok(tw["certificates"]):
            bad.append((prefix + ".twist", "twist of a valid algebra fails a certificate"))
    for prefix, name, rep in _pairs_by_suffix(reports, ".delta_perturbed.validate"):
        if rep["checks"]["cocycle"]["ok"] or rep["checks"]["cocycle"]["witness"] is None:
            bad.append((name, "single-entry delta change passed the cocycle check"))
    for prefix, name, rep in _pairs_by_suffix(reports, ".phi_perturbed.validate"):
        qc = rep["checks"]["quasi_cojacobi"]
        if qc["ok"] or qc["witness"] is None:
            bad.append((name, "single-entry phi change passed quasi-co-Jacobi"))
    for name, rep in reports.items():
        if rep is not None and ".classify." in name:
            msg = classify_problem(rep)
            if msg:
                bad.append((name, msg))
    return bad


def classify_problem(rep) -> str | None:
    r = rep["report"]
    if not r["lagrangian"]:
        return "Lagrangian postcondition fails"
    if r["verdict"] != (r["h_subalgebra"] and r["stable"] and r["lagrangian"]
                        and r["subalgebra"]):
        return "verdict disagrees with its sub-checks"
    if r["h_subalgebra"] and r["stable"] and r["subalgebra"] != r["obstruction_zero"]:
        return "stable datum with subalgebra != obstruction_zero"
    if rep["subalgebra_witness"]["ok"] != r["subalgebra"]:
        return "subalgebra witness disagrees with the report"
    if r["obstruction_zero"] != (rep["obstruction"] == []):
        return "obstruction tensor disagrees with obstruction_zero"
    if r["stable"] != all(s == [] for s in rep["stability_residuals"]):
        return "stability residuals disagree with stable"
    return None


def twist_equations_problem(Q, alg: dict, rep, rdict: dict) -> str | None:
    """TwistEquationSystem.evaluate, and the reported equations evaluated
    here, both equal the direct residual at a seeded bivector."""
    qb = Q.serialize.qb_from_dict(alg)
    r = Q.serialize.rmatrix_from_dict(rdict)
    system = Q.twisting.twist_equations(qb)
    res = system.residual(r)
    want = [res.data[t] for t in system.triples]
    if system.evaluate(r) != want:
        return "TwistEquationSystem.evaluate differs from residual"
    env = {"r_%d_%d" % (i, j): r.data[i, j] for i in range(r.dim) for j in range(i + 1, r.dim)}
    got = [sum((Fraction(m["coef"]) * prod(env[v] for v in m["vars"])
                for m in eq["monomials"]), Fraction(0))
           for eq in rep["system"]["equations"]]
    if got != want:
        return "reported equations differ from the residual"
    return None


def _bivector_values(entries) -> dict:
    return {(e[0], e[1]): Fraction(e[2]) for e in entries}


def workload_checks(workload: str, Q, spec, reports: dict) -> list:
    """Cross-checks that need the generated inputs or a program call."""
    bad = []
    extra = spec.extra
    algebras = extra.get("algebras", {})
    if workload == "fixtures_cli":
        for stem, alg in algebras.items():
            printed = reports.get("catalog." + stem)
            if printed is not None and printed != alg:
                bad.append(("catalog." + stem, "catalog output differs from the fixture"))
            tw = reports.get(stem + ".twist")
            if tw is not None and reports.get(stem + ".validate") is not None \
                    and _all_ok(reports[stem + ".validate"]["checks"]):
                twisted = Q.liealg.axiom_report(Q.serialize.qb_from_dict(tw["twisted"]))
                if not all(v.ok for v in twisted.values()):
                    bad.append((stem + ".twist", "twisted algebra fails its own axioms"))
    for stem, rdict in extra.get("twist_equations_r", {}).items():
        rep = reports.get(stem + ".twist_equations")
        if rep is not None:
            msg = twist_equations_problem(Q, algebras[stem], rep, rdict)
            if msg:
                bad.append((stem + ".twist_equations", msg))
    for stem, (dat, rdict) in extra.get("twist_datum", {}).items():
        rep = reports.get(stem + ".twist_datum")
        if rep is None:
            continue
        old, by = _bivector_values(dat["r"]), _bivector_values(rdict["r"])
        want = {k: old.get(k, 0) - by.get(k, 0) for k in set(old) | set(by)}
        got = _bivector_values(rep["r"])
        if {k: v for k, v in want.items() if v} != got:
            bad.append((stem + ".twist_datum", "transported bivector is not r_d - r"))
        h_rows = [[Fraction(x) for x in row] for row in rep["h"]]
        if h_rows != [[Fraction(x) for x in row] for row in dat["h"]]:
            bad.append((stem + ".twist_datum", "transported datum changed h"))
    return bad
