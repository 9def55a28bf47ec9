import random
from fractions import Fraction

import numpy as np

from quasilie.catalog import builtin
from quasilie.double import build_double, is_subalgebra
from quasilie.homogeneous import (HomDatum, ad_stable_direct, dirac_span,
                                  is_quasi_poisson_datum, obstruction,
                                  stability_residuals)
from quasilie.liealg import cyb, half_alt_delta
from quasilie.serialize import verdict_to_dict
from quasilie.subspace import Subspace, annihilator
from quasilie.tensor import Tensor, apply_linear, rarray, reye

from _oracles import oracle_pairing
from conftest import rand_antisym, rand_frac, rand_vector


def test_dirac_point_space_is_g():
    entry = builtin("sl2_coboundary")
    d = entry.datums["point"]
    dbl = build_double(entry.algebra)
    assert dirac_span(d) == dbl.g_subspace()
    rep = is_quasi_poisson_datum(d, dbl)
    assert rep.h_subalgebra and rep.lagrangian and rep.span == dirac_span(d)


def test_dirac_transversal_case_matches_graph():
    # at h = 0 the span is the graph {(l (x) id) r + l}: row i is r[i] + e^i
    entry = builtin("sl2_coboundary")
    rng = random.Random(40)
    for _ in range(20):
        r = rand_antisym(rng, 3)
        d = HomDatum(entry.algebra, Subspace.zero(3), r)
        assert dirac_span(d) == Subspace(6, np.hstack([r.data, reye(3)]))


def test_dirac_depends_only_on_class_of_r():
    entry = builtin("sl2_coboundary")
    rng = random.Random(41)
    h = Subspace(3, rarray([[0, 1, 0]]))  # span(h)
    for _ in range(20):
        r = rand_antisym(rng, 3)
        d = HomDatum(entry.algebra, h, r)
        # perturb r inside h ^ g: wedge of a member of h with anything
        w = rand_vector(rng, 3)
        pert = np.multiply.outer(h.rows[0], w) - np.multiply.outer(w, h.rows[0])
        d2 = HomDatum(entry.algebra, h, Tensor(3, r.data + pert))
        assert dirac_span(d) == dirac_span(d2)
        assert obstruction(d) == obstruction(d2)


def test_obstruction_examples():
    ab = builtin("abelian(3)")
    rng = random.Random(42)
    for _ in range(5):
        d = HomDatum(ab.algebra, Subspace.zero(3), rand_antisym(rng, 3))
        assert obstruction(d).is_zero()
    manin = builtin("manin_sl2_trace")
    # point space: quotient is zero, obstruction vanishes trivially
    assert obstruction(manin.datums["point"]).is_zero()
    # transversal zero bivector on the quasi-triple: obstruction is phi itself
    obs = obstruction(manin.datums["zero"])
    assert not obs.is_zero()
    assert obs == manin.algebra.phi


def test_obstruction_formula_against_parts():
    entry = builtin("sl2_coboundary")
    qb = entry.algebra
    rng = random.Random(43)
    for _ in range(10):
        h = rng.choice(entry.subalgebras)
        r = rand_antisym(rng, 3)
        d = HomDatum(qb, h, r)
        direct = apply_linear(
            h.quotient_matrix(), qb.phi - cyb(qb.algebra, r) + half_alt_delta(qb.delta, r))
        assert obstruction(d) == direct


def test_stability_residuals_trivial_cases():
    entry = builtin("sl2_coboundary")
    rng = random.Random(44)
    r = rand_antisym(rng, 3)
    assert stability_residuals(HomDatum(entry.algebra, Subspace.zero(3), r)) == []
    res = stability_residuals(HomDatum(entry.algebra, Subspace.full(3), r))
    assert all(t.is_zero() for t in res)   # residuals live in the zero quotient


def test_stability_tensor_form_equals_direct_bracket_test():
    rng = random.Random(45)
    for name in ("sl2_coboundary", "manin_sl2_trace", "aff1"):
        entry = builtin(name)
        dbl = build_double(entry.algebra)
        n = entry.algebra.dim
        for _ in range(100):
            h = rng.choice(entry.subalgebras)
            d = HomDatum(entry.algebra, h, rand_antisym(rng, n))
            tensor_stable = all(t.is_zero() for t in stability_residuals(d))
            assert tensor_stable == ad_stable_direct(d, dbl)


def test_dirac_span_lagrangian_even_for_invalid_data():
    from quasilie.double import intersect_with_g, is_lagrangian
    rng = random.Random(46)
    for name in ("sl2_coboundary", "manin_sl2_trace", "manin_so3"):
        entry = builtin(name)
        dbl = build_double(entry.algebra)
        n = entry.algebra.dim
        for _ in range(60):
            h = rng.choice(entry.subalgebras)
            d = HomDatum(entry.algebra, h, rand_antisym(rng, n))
            sub = dirac_span(d)
            assert is_lagrangian(dbl, sub)
            assert intersect_with_g(dbl, sub) == h


def test_report_point_space_passes(catalog_entries):
    for entry in catalog_entries:
        rep = is_quasi_poisson_datum(entry.datums["point"])
        assert rep.verdict, entry.name
        assert rep.as_dict()["verdict"]


def test_report_transversal_iff_twist_equation():
    rng = random.Random(47)
    for name in ("sl2_coboundary", "manin_sl2_trace"):
        entry = builtin(name)
        qb = entry.algebra
        dbl = build_double(qb)
        for _ in range(40):
            r = rand_antisym(rng, 3)
            d = HomDatum(qb, Subspace.zero(3), r)
            rep = is_quasi_poisson_datum(d, dbl)
            equation_holds = (cyb(qb.algebra, r) - half_alt_delta(qb.delta, r)
                              == qb.phi)
            assert rep.verdict == equation_holds
            assert rep.obstruction_zero == equation_holds


def test_report_exposes_independent_failures():
    entry = builtin("manin_sl2_trace")
    rep = is_quasi_poisson_datum(entry.datums["zero"])
    assert rep.h_subalgebra and rep.stable and rep.lagrangian
    assert not rep.obstruction_zero and not rep.subalgebra and not rep.verdict
    # non-subalgebra h is reported without short-circuiting the rest
    bad = Subspace(3, rarray([[1, 0, 0], [0, 0, 1]]))
    rep2 = is_quasi_poisson_datum(HomDatum(entry.algebra, bad, Tensor.zero(3, 2)))
    assert not rep2.h_subalgebra and not rep2.verdict
    assert rep2.lagrangian   # the span construction is still Lagrangian


def test_sl2_span_h_datum_verdict_matches_direct_closure():
    entry = builtin("sl2_coboundary")
    qb = entry.algebra
    dbl = build_double(qb)
    h = Subspace(3, rarray([[0, 1, 0]]))
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])  # e ^ f
    d = HomDatum(qb, h, r)
    rep = is_quasi_poisson_datum(d, dbl)
    assert rep.subalgebra == is_subalgebra(dbl, dirac_span(d)).ok
    assert rep.verdict == (rep.h_subalgebra and rep.stable and rep.lagrangian
                           and rep.subalgebra)


def test_report_carries_the_standalone_certificates(catalog_entries):
    rng = random.Random(50)
    for entry in catalog_entries:
        qb, n = entry.algebra, entry.algebra.dim
        for _ in range(4):
            d = HomDatum(qb, rng.choice(entry.subalgebras), rand_antisym(rng, n))
            rep = is_quasi_poisson_datum(d)
            assert rep.obstruction == obstruction(d)
            assert rep.residuals == stability_residuals(d)
            assert rep.span == dirac_span(d)
            assert (verdict_to_dict(rep.span_closure)
                    == verdict_to_dict(is_subalgebra(build_double(qb), dirac_span(d))))


def test_subalgebra_iff_obstruction_vanishes_on_stable_data():
    rng = random.Random(48)
    for name in ("sl2_coboundary", "manin_sl2_trace", "aff1", "manin_so3"):
        entry = builtin(name)
        dbl = build_double(entry.algebra)
        n = entry.algebra.dim
        checked = 0
        for _ in range(80):
            h = rng.choice(entry.subalgebras)
            d = HomDatum(entry.algebra, h, rand_antisym(rng, n))
            if not all(t.is_zero() for t in stability_residuals(d)):
                continue
            checked += 1
            assert is_subalgebra(dbl, dirac_span(d)).ok == obstruction(d).is_zero()
        assert checked > 10


def test_q_pairing_identity_on_annihilator_triples():
    # Q([l1+R l1, l2+R l2], l3+R l3) pairs the obstruction integrand
    rng = random.Random(49)
    for name in ("sl2_coboundary", "manin_sl2_trace", "aff1"):
        entry = builtin(name)
        qb = entry.algebra
        n = qb.dim
        dbl = build_double(qb)
        for _ in range(30):
            h = rng.choice(entry.subalgebras)
            hp = annihilator(h)
            if hp.dim == 0:
                continue
            r = rand_antisym(rng, n)
            ls = []
            for _ in range(3):
                l = np.zeros((n,), dtype=object)
                l[:] = Fraction(0)
                for row in hp.rows:
                    l = l + rand_frac(rng) * row
                ls.append(l)
            lifted = [dbl.embed_g(l @ r.data) + dbl.embed_dual(l) for l in ls]
            lhs = dbl.algebra.bracket(lifted[0], lifted[1]) @ dbl.q @ lifted[2]
            integrand = (-qb.phi + cyb(qb.algebra, r) - half_alt_delta(qb.delta, r))
            assert lhs == oracle_pairing(ls, integrand.data)
