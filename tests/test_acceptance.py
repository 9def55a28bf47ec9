"""Acceptance suite: one test per criterion, exact arithmetic throughout,
every criterion prints its own pass/fail line."""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import quasilie.catalog as catalog
from quasilie.catalog import (builtin, graph_lagrangian, graph_subspace,
                              is_automorphism, is_b_orthogonal,
                              product_algebra, product_double_model,
                              sl2_scaling_automorphism, sl2_trace_form,
                              sl2_weyl_automorphism, so3_standard_form)
from quasilie.cli import main as cli_main
from quasilie.double import (build_double, check_double_axioms,
                             intersect_with_g, is_lagrangian, is_subalgebra)
from quasilie.homogeneous import (HomDatum, dirac_span, obstruction,
                                  stability_residuals)
from quasilie.liealg import (Cocycle, QuasiBialgebra, ad_tensor_components,
                             axiom_report, check_cocycle, check_pentagon,
                             check_quasi_cojacobi, closed_under_bracket, cyb,
                             half_alt_delta)
from quasilie.serialize import dumps_canonical
from quasilie.subspace import Subspace
from quasilie.tensor import Tensor, rarray
from quasilie.twisting import certify_double_map, check_twist_iso, twist

from _oracles import oracle_pairing
from conftest import rand_antisym, rand_vector

DATA = Path(catalog.__file__).parent / "data"


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %d (%s): %s" % (num, name, status))
    assert not failures, failures[:5]


def _pair_perturbations(qb):
    """Every single antisymmetric-pair perturbation of delta (all i, j<k)
    and, in dim >= 3, of phi (all i<j<k)."""
    n = qb.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                d = qb.delta.d.copy()
                d[i, j, k] = d[i, j, k] + 1
                d[i, k, j] = d[i, k, j] - 1
                out.append(QuasiBialgebra(qb.algebra, Cocycle(qb.algebra, d), qb.phi))
    for combo in combinations(range(n), 3):
        phi = qb.phi + Tensor.from_alternating_entries(n, 3, [(combo, 1)])
        out.append(QuasiBialgebra(qb.algebra, qb.delta, phi))
    return out


def test_criterion_1_double_soundness(catalog_entries):
    failures = []
    for entry in catalog_entries:
        rep = check_double_axioms(build_double(entry.algebra))
        if not (rep.jacobi.ok and rep.q_invariance.ok):
            failures.append("%s: double axioms fail" % entry.name)

    # single-pair delta controls on the 3-dim non-abelian entries
    controls = {
        "sl2_coboundary": (1, 0, 2),       # delta(h) += e^f
        "sl2_invariant_phi(1)": (0, 0, 1), # delta(e) += e^h
        "manin_sl2_trace": (0, 0, 1),
        "manin_so3": (0, 0, 1),            # delta(x) += x^y
    }
    by_name = {e.name: e for e in catalog_entries}
    for name, (i, j, k) in controls.items():
        qb = by_name[name].algebra
        d = qb.delta.d.copy()
        d[i, j, k] = d[i, j, k] + 1
        d[i, k, j] = d[i, k, j] - 1
        broken = QuasiBialgebra(qb.algebra, Cocycle(qb.algebra, d), qb.phi)
        if check_double_axioms(build_double(broken)).jacobi.ok:
            failures.append("%s: control (%d,%d,%d) did not break Jacobi"
                            % (name, i, j, k))

    # abelian(3) and aff1: prove no single-pair control exists, then apply
    # the documented two-entry control for the abelian case
    for name in ("abelian(3)", "aff1"):
        qb = by_name[name].algebra
        for perturbed in _pair_perturbations(qb):
            if not check_double_axioms(build_double(perturbed)).jacobi.ok:
                failures.append("%s: unexpected single-pair Jacobi failure" % name)
    ab = by_name["abelian(3)"].algebra
    d = ab.delta.d.copy()
    d[0, 0, 1], d[0, 1, 0] = Fraction(1), Fraction(-1)
    d[1, 1, 2], d[1, 2, 1] = Fraction(1), Fraction(-1)
    broken = QuasiBialgebra(ab.algebra, Cocycle(ab.algebra, d), ab.phi)
    if check_double_axioms(build_double(broken)).jacobi.ok:
        failures.append("abelian(3): two-entry control did not break Jacobi")
    _finish(1, "double-construction soundness", failures)


@pytest.fixture(scope="module")
def datum_sample(catalog_entries):
    """>= 200 random (h, r) per catalog algebra, with every derived fact
    recorded once so criteria 2 and 3 read the same sample."""
    rng = random.Random(20240)
    sample = {}
    for entry in catalog_entries:
        n = entry.algebra.dim
        dbl = build_double(entry.algebra)
        rows = []
        for _ in range(220):
            h = rng.choice(entry.subalgebras)
            d = HomDatum(entry.algebra, h, rand_antisym(rng, n))
            sub = dirac_span(d)
            rows.append({
                "h": h,
                "stable": all(t.is_zero() for t in stability_residuals(d)),
                "subalgebra": is_subalgebra(dbl, sub).ok,
                "obstruction_zero": obstruction(d).is_zero(),
                "lagrangian": is_lagrangian(dbl, sub),
                "meets_g_in_h": intersect_with_g(dbl, sub) == h,
            })
        sample[entry.name] = rows
    return sample


def test_criterion_2_subalgebra_obstruction_equivalence(datum_sample):
    failures = []
    for name, rows in datum_sample.items():
        restricted = [r for r in rows if r["stable"]]
        if len(rows) < 200:
            failures.append("%s: sample too small" % name)
        if not restricted:
            failures.append("%s: no stable data sampled" % name)
        bad = sum(1 for r in restricted if r["subalgebra"] != r["obstruction_zero"])
        if bad:
            failures.append("%s: %d/%d disagreements" % (name, bad, len(restricted)))
    _finish(2, "subalgebra/obstruction equivalence oracle", failures)


def test_criterion_3_lagrangian_postcondition(datum_sample):
    failures = []
    for name, rows in datum_sample.items():
        bad = sum(1 for r in rows if not (r["lagrangian"] and r["meets_g_in_h"]))
        if bad:
            failures.append("%s: %d Lagrangian postcondition failures" % (name, bad))
    _finish(3, "Lagrangian postcondition", failures)


def test_criterion_4_twist_certification(catalog_entries):
    rng = random.Random(20241)
    failures = []
    for entry in catalog_entries:
        qb = entry.algebra
        n = qb.dim
        for _ in range(100):
            r = rand_antisym(rng, n)
            rep = check_twist_iso(qb, r)
            if not (rep.bracket_ok.ok and rep.q_ok.ok and rep.fixes_g.ok):
                failures.append("%s: certificate failure" % entry.name)
                break
            target = rep.target
            if not (check_cocycle(target.delta).ok
                    and check_quasi_cojacobi(target).ok
                    and check_pentagon(target).ok):
                failures.append("%s: twisted axioms fail" % entry.name)
                break

    # sign-flipped phi' control wherever the flip changes anything
    flip_names = ["sl2_coboundary", "sl2_invariant_phi(1)",
                  "manin_sl2_trace", "manin_so3"]
    by_name = {e.name: e for e in catalog_entries}
    for name in flip_names:
        qb = by_name[name].algebra
        r = rand_antisym(rng, 3)
        good = twist(qb, r)
        flipped = qb.phi + half_alt_delta(qb.delta, r) + cyb(qb.algebra, r)
        while flipped == good.phi:
            r = rand_antisym(rng, 3)
            good = twist(qb, r)
            flipped = qb.phi + half_alt_delta(qb.delta, r) + cyb(qb.algebra, r)
        wrong = QuasiBialgebra(qb.algebra, good.delta, flipped)
        bracket, _, _ = certify_double_map(
            build_double(qb), build_double(wrong),
            check_twist_iso(qb, r).matrix)
        if bracket.ok:
            failures.append("%s: flipped phi' not caught" % name)
    _finish(4, "twist isomorphism certification", failures)


def test_criterion_5_transversal_correspondence(catalog_entries):
    rng = random.Random(20242)
    failures = []
    from quasilie.twisting import twist_equations
    for entry in catalog_entries:
        qb = entry.algebra
        n = qb.dim
        dbl = build_double(qb)
        system = twist_equations(qb)
        bivectors = [rand_antisym(rng, n) for _ in range(200)]
        bivectors.append(Tensor.zero(n, 2))   # known solution on bialgebras
        bad = 0
        for r in bivectors:
            solves = system.residual(r).is_zero()
            closes = is_subalgebra(dbl, dirac_span(HomDatum(qb, Subspace.zero(n), r))).ok
            if solves != closes:
                bad += 1
        if bad:
            failures.append("%s: %d disagreements" % (entry.name, bad))
        # r = 0 must solve the equation exactly when phi = 0 (bialgebras)
        zero_solves = system.residual(Tensor.zero(n, 2)).is_zero()
        if zero_solves != qb.phi.is_zero():
            failures.append("%s: r=0 status wrong" % entry.name)
    _finish(5, "transversal bivector correspondence", failures)


def test_criterion_6_quadratic_suite():
    failures = []
    q = sl2_trace_form()
    qb = builtin("manin_sl2_trace").algebra
    rep = axiom_report(qb)
    if not all(v.ok for v in rep.values()):
        failures.append("quasi-triple axioms fail")
    if qb.phi != Tensor.from_alternating_entries(3, 3, [((0, 1, 2), -1)]):
        failures.append("phi regression value changed")
    for i in range(3):
        if ad_tensor_components(qb.algebra.c, Tensor.basis(3, i).data, qb.phi.data).any():
            failures.append("phi not invariant")
    for quad in (q, so3_standard_form()):
        model = product_double_model(quad)
        if not (model.bracket_ok.ok and model.form_ok.ok and model.diagonal_ok):
            failures.append("product model certification failed")

    autos = [np.identity(3, dtype=object),
             sl2_scaling_automorphism(2), sl2_scaling_automorphism(3),
             sl2_scaling_automorphism(Fraction(1, 2)),
             sl2_scaling_automorphism(5), sl2_weyl_automorphism()]
    for a in autos:
        try:
            graph_lagrangian(q, a)
        except ValueError as exc:
            failures.append("automorphism rejected: %s" % exc)
    so3q = so3_standard_form()
    for a in (rarray([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
              rarray([[Fraction(3, 5), Fraction(-4, 5), 0],
                      [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]])):
        try:
            graph_lagrangian(so3q, a)
        except ValueError as exc:
            failures.append("so3 automorphism rejected: %s" % exc)

    controls = [(q, rarray([[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
                (q, rarray([[1, 0, 0], [0, -1, 0], [0, 0, 1]])),
                (so3q, rarray([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))]
    for quad, a in controls:
        if not is_b_orthogonal(quad, a) or is_automorphism(quad.algebra, a).ok:
            failures.append("control is not an orthogonal non-automorphism")
            continue
        prod, _ = product_algebra(quad)
        if closed_under_bracket(prod, graph_subspace(a)).ok:
            failures.append("control graph unexpectedly closes")
        try:
            graph_lagrangian(quad, a)
            failures.append("control not rejected")
        except ValueError:
            pass
    _finish(6, "quadratic algebra suite", failures)


def test_criterion_7_pairing_identities(catalog_entries):
    rng = random.Random(20243)
    failures = []
    for entry in catalog_entries:
        qb = entry.algebra
        n = qb.dim
        dbl = build_double(qb)
        bad = 0
        for _ in range(100):
            ls = [rand_vector(rng, n) for _ in range(3)]
            r = rand_antisym(rng, n)
            emb = [dbl.embed_dual(l) for l in ls]
            remb = [dbl.embed_g(l @ r.data) for l in ls]

            t1 = np.tensordot(r.data, qb.algebra.c, axes=(0, 0))
            t1 = np.transpose(np.tensordot(r.data, t1, axes=(0, 1)), (2, 1, 0))
            ok1 = (oracle_pairing(ls, t1)
                   == dbl.algebra.bracket(emb[0], remb[1]) @ dbl.q @ remb[2])

            t2 = np.transpose(np.tensordot(r.data, qb.delta.d, axes=(0, 0)), (1, 2, 0))
            ok2 = (oracle_pairing(ls, t2)
                   == -(dbl.algebra.bracket(emb[0], emb[1]) @ dbl.q @ remb[2]))

            ok3 = (oracle_pairing(ls, qb.phi.data)
                   == -(dbl.algebra.bracket(emb[0], emb[1]) @ dbl.q @ emb[2]))

            lifted = [e + re for e, re in zip(emb, remb)]
            combined = (-qb.phi + cyb(qb.algebra, r) - half_alt_delta(qb.delta, r))
            ok4 = (dbl.algebra.bracket(lifted[0], lifted[1]) @ dbl.q @ lifted[2]
                   == oracle_pairing(ls, combined.data))
            if not (ok1 and ok2 and ok3 and ok4):
                bad += 1
        if bad:
            failures.append("%s: %d identity failures" % (entry.name, bad))
    _finish(7, "Q-pairing identities", failures)


def test_criterion_8_cli_contract(tmp_path, capsys):
    failures = []

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    # determinism with a fixed seed, timing field excluded
    def stable_bytes(stdout):
        obj = json.loads(stdout)
        obj.pop("timing_s", None)
        return dumps_canonical(obj)

    for cmd in (["validate", str(DATA / "sl2_coboundary.json")],
                ["double", str(DATA / "manin_so3.json")],
                ["classify", str(DATA / "aff1.json"),
                 str(DATA / "aff1_line_y.datum.json")],
                ["twist-equations", str(DATA / "sl2_coboundary.json")]):
        _, out1 = run(*cmd, "--seed", "11")
        _, out2 = run(*cmd, "--seed", "11")
        if stable_bytes(out1) != stable_bytes(out2):
            failures.append("nondeterministic report for %s" % cmd[0])

    # exit-code matrix on a fixed fixture set
    corrupted = tmp_path / "corrupt.json"
    obj = json.loads((DATA / "sl2_coboundary.json").read_text())
    obj["bracket"] = [e for e in obj["bracket"] if e[:2] != [0, 2]] + [[0, 2, 0, "1"]]
    corrupted.write_text(json.dumps(obj))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    bad_r = tmp_path / "bad_r.json"
    bad_r.write_text(json.dumps({"dim": 3, "r": [[0, 1, "1"], [1, 0, "1"]]}))
    ok_r = tmp_path / "ok_r.json"
    ok_r.write_text(json.dumps({"dim": 3, "r": [[0, 2, "1"]]}))

    matrix = [
        (0, ["validate", str(DATA / "sl2_coboundary.json")]),
        (0, ["validate", str(DATA / "manin_sl2_trace.json")]),
        (1, ["validate", str(corrupted)]),
        (2, ["validate", str(empty)]),
        (0, ["classify", str(DATA / "aff1.json"), str(DATA / "aff1_point.datum.json")]),
        (1, ["classify", str(DATA / "manin_sl2_trace.json"),
             str(DATA / "manin_sl2_trace_zero.datum.json")]),
        (0, ["twist", str(DATA / "sl2_coboundary.json"), str(ok_r)]),
        (2, ["twist", str(DATA / "sl2_coboundary.json"), str(bad_r)]),
        (0, ["twist-equations", str(DATA / "aff1.json")]),
        (0, ["catalog", "manin_so3"]),
        (2, ["catalog", "no_such_thing"]),
    ]
    for expected, argv in matrix:
        code, _ = run(*argv)
        if code != expected:
            failures.append("%s: exit %d, expected %d" % (argv, code, expected))
    _finish(8, "CLI determinism and exit codes", failures)
