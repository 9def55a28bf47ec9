import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from quasilie.catalog import aff1, builtin, manin_quasi_triple, sl2, so3
from quasilie.double import build_double, is_subalgebra
from quasilie.homogeneous import HomDatum, dirac_span, is_quasi_poisson_datum
from quasilie.liealg import (Cocycle, LieAlgebra, QuasiBialgebra, axiom_report,
                             cyb, half_alt_delta)
from quasilie.serialize import dumps_canonical
from quasilie.subspace import Subspace
from quasilie.tensor import Tensor, rarray, rzeros
from quasilie.twisting import (certify_double_map, check_twist_iso, f_r_matrix,
                               twist, twist_datum, twist_equations)

from _oracles import oracle_twist_coefficients
from conftest import (big_bivector, gl_trace_form, rand_antisym,
                      rand_cocycle_array, rand_frac)


def test_twist_by_zero_is_identity(catalog_entries):
    for entry in catalog_entries:
        qb = entry.algebra
        out = twist(qb, Tensor.zero(qb.dim, 2))
        assert out == qb


def test_twist_formula_with_zero_cobracket():
    # delta = 0 source: delta'(x) = ad_x r and phi' = phi - CYB(r)
    entry = builtin("manin_sl2_trace")
    qb = entry.algebra
    rng = random.Random(50)
    for _ in range(10):
        r = rand_antisym(rng, 3)
        out = twist(qb, r)
        assert out.delta == Cocycle.coboundary(qb.algebra, r)
        assert out.phi == qb.phi - cyb(qb.algebra, r)


def test_twist_of_trivial_bialgebra_reaches_catalog_cobrackets():
    # aff1 and sl2_coboundary cobrackets are coboundaries; twisting the
    # trivial structure by the generating bivector reproduces delta and
    # shifts phi by -CYB(r)
    g = sl2()
    trivial = QuasiBialgebra(g, Cocycle.zero(g), Tensor.zero(3, 3))
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])
    out = twist(trivial, r)
    assert out.delta == builtin("sl2_coboundary").algebra.delta
    assert out.phi == -cyb(g, r)


def test_twist_preserves_axioms(catalog_entries):
    rng = random.Random(51)
    for entry in catalog_entries:
        qb = entry.algebra
        for _ in range(15):
            r = rand_antisym(rng, qb.dim)
            rep = axiom_report(twist(qb, r))
            assert all(v.ok for v in rep.values()), entry.name


def test_twisted_phi_vanishes_iff_twist_equation_solved():
    entry = builtin("sl2_coboundary")
    qb = entry.algebra
    rng = random.Random(52)
    for _ in range(20):
        r = rand_antisym(rng, 3)
        residual = cyb(qb.algebra, r) - half_alt_delta(qb.delta, r) - qb.phi
        assert (twist(qb, r).phi == Tensor.zero(3, 3)) == residual.is_zero()
    # r = 0 solves it on a bialgebra
    assert twist(qb, Tensor.zero(3, 2)).phi.is_zero()


def _det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


def test_f_r_matrix_block_structure():
    qb = builtin("sl2_coboundary").algebra
    assert not (f_r_matrix(qb, Tensor.zero(3, 2)) - np.identity(6, dtype=object)).any()
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])   # e ^ f
    m = f_r_matrix(qb, r)
    # unipotent: identity on g, identity on g*, bivector block above
    assert (m[:3, :3] == np.identity(3, dtype=object)).all()
    assert (m[3:, 3:] == np.identity(3, dtype=object)).all()
    assert not m[3:, :3].any()
    assert (m[:3, 3:] == r.data).all()
    # the image of e* is e* - f with this orientation
    estar = np.array([0, 0, 0, 1, 0, 0], dtype=object)
    image = m @ estar
    assert list(image) == [0, 0, -1, 1, 0, 0]
    # unipotent, so determinant is 1 for every r
    rng = random.Random(59)
    for _ in range(5):
        assert _det(f_r_matrix(qb, rand_antisym(rng, 3))) == 1


def test_check_twist_iso_certificates(catalog_entries):
    rng = random.Random(53)
    for entry in catalog_entries:
        qb = entry.algebra
        for _ in range(8):
            r = rand_antisym(rng, qb.dim)
            rep = check_twist_iso(qb, r)
            assert rep.bracket_ok.ok and rep.q_ok.ok and rep.fixes_g.ok, entry.name
    rep0 = check_twist_iso(builtin("aff1").algebra, Tensor.zero(2, 2))
    assert rep0.ok


def test_sign_flipped_phi_fails_bracket_certificate():
    qb = builtin("sl2_coboundary").algebra
    rng = random.Random(54)
    hits = 0
    for _ in range(20):
        r = rand_antisym(rng, 3)
        good = twist(qb, r)
        wrong_phi = qb.phi + half_alt_delta(qb.delta, r) + cyb(qb.algebra, r)
        if wrong_phi == good.phi:
            continue   # cyb(r) happened to vanish
        wrong = QuasiBialgebra(qb.algebra, good.delta, wrong_phi)
        bracket, _, _ = certify_double_map(build_double(qb), build_double(wrong),
                                           f_r_matrix(qb, r))
        assert not bracket.ok
        hits += 1
    assert hits >= 10


def test_compose_twists_reports_additivity():
    rng = random.Random(55)
    for name in ("sl2_coboundary", "manin_sl2_trace", "aff1"):
        qb = builtin(name).algebra
        n = qb.dim
        for _ in range(10):
            r, s = rand_antisym(rng, n), rand_antisym(rng, n)
            assert twist(twist(qb, r), s) == twist(qb, r + s)
            assert (f_r_matrix(qb, s) @ f_r_matrix(qb, r) == f_r_matrix(qb, r + s)).all()
        # inverse twist recovers the source exactly
        r = rand_antisym(rng, n)
        assert twist(twist(qb, r), -r) == qb


def test_twist_datum_zero_and_roundtrip():
    entry = builtin("sl2_coboundary")
    qb = entry.algebra
    rng = random.Random(56)
    d = entry.datums["point"]
    assert twist_datum(d, Tensor.zero(3, 2)).r == d.r
    for _ in range(10):
        r = rand_antisym(rng, 3)
        h = rng.choice(entry.subalgebras)
        d = HomDatum(qb, h, rand_antisym(rng, 3))
        moved = twist_datum(d, r)
        back = twist_datum(moved, -r)
        assert back.qb == qb and back.h == d.h and back.r == d.r


def assert_transported(d, r):
    """f_r carries the Dirac span of d onto that of twist_datum(d, r), and
    the verdict is unchanged; returns the verdict."""
    old = is_quasi_poisson_datum(d)
    moved = is_quasi_poisson_datum(twist_datum(d, r))
    m = f_r_matrix(d.qb, r)
    assert Subspace(2 * d.qb.dim, [m @ row for row in old.span.rows]) == moved.span
    assert old.verdict == moved.verdict
    return old.verdict


def test_twist_datum_preserves_verdict():
    rng = random.Random(57)
    for name in ("sl2_coboundary", "manin_sl2_trace"):
        entry = builtin(name)
        for _ in range(10):
            r = rand_antisym(rng, 3)
            h = rng.choice(entry.subalgebras)
            assert_transported(HomDatum(entry.algebra, h, rand_antisym(rng, 3)), r)
        # the point datum stays valid under any twist
        assert assert_transported(entry.datums["point"], rand_antisym(rng, 3))
    # gl(2) Manin quasi-triple twisted by a big bivector b, on the basis
    # (E00, E01, E10, E11): (h, -b) is the transport of (h, 0), which passes
    # for h = gl(2) and fails for h = 0
    b = big_bivector(rng, 4)
    qb = twist(manin_quasi_triple(gl_trace_form(2)), b)
    subs = [Subspace.zero(4), Subspace(4, rarray([[1, 0, 0, 0], [0, 0, 0, 1]])),
            Subspace(4, rarray([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),
            Subspace.full(4)]
    verdicts = set()
    for h in subs:
        for rd in (-b, big_bivector(rng, 4) - b):
            verdicts.add(assert_transported(HomDatum(qb, h, rd), big_bivector(rng, 4)))
    assert verdicts == {True, False}


def test_twist_equations_trivial_systems():
    ab = builtin("abelian(3)").algebra
    sys_ab = twist_equations(ab)
    assert sys_ab.unknowns == ["r_0_1", "r_0_2", "r_1_2"]
    assert all(not p for p in sys_ab.equations)
    aff = builtin("aff1").algebra
    sys_aff = twist_equations(aff)
    assert sys_aff.equations == [] and sys_aff.unknowns == ["r_0_1"]


def test_twist_equations_match_residual_evaluation():
    rng = random.Random(58)
    for name in ("sl2_coboundary", "manin_sl2_trace", "manin_so3"):
        qb = builtin(name).algebra
        system = twist_equations(qb)
        assert len(system.equations) == 1 and len(system.unknowns) == 3
        assert all(len(m) <= 2 for p in system.equations for m in p)
        dbl = build_double(qb)
        for _ in range(15):
            r = rand_antisym(rng, 3)
            vals = system.evaluate(r)
            res = system.residual(r)
            for value, (i, j, k) in zip(vals, system.triples):
                assert value == res.data[i, j, k]
            # solving the equation is the same as the graph closing
            graph = dirac_span(HomDatum(qb, Subspace.zero(3), r))
            closes = is_subalgebra(dbl, graph).ok
            assert (all(v == 0 for v in vals)) == res.is_zero() == closes


def test_twist_equation_residual_at_frozen_point():
    # sl2 coboundary source, r = e^f: residual = 3 * (h wedge e wedge f)
    qb = builtin("sl2_coboundary").algebra
    system = twist_equations(qb)
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])
    hef = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), -1)])
    assert system.residual(r) == Fraction(3) * hef
    assert system.evaluate(r)[0] == -3


def test_twist_equations_json_shape():
    qb = builtin("sl2_coboundary").algebra
    d = twist_equations(qb).as_dict()
    assert set(d) == {"unknowns", "equations"}
    assert d["unknowns"] == ["r_0_1", "r_0_2", "r_1_2"]
    for eq in d["equations"]:
        for mono in eq["monomials"]:
            assert set(mono) == {"vars", "coef"}
            Fraction(mono["coef"])
            assert all(v in d["unknowns"] for v in mono["vars"])


def test_twist_equations_evaluate_rejects_wrong_size():
    system = twist_equations(builtin("sl2_coboundary").algebra)
    for r in (Tensor.zero(2, 2), Tensor.zero(4, 2), Tensor.zero(3, 3)):
        with pytest.raises(ValueError, match="degree-2 tensor over g"):
            system.evaluate(r)
        with pytest.raises(ValueError, match="degree-2 tensor over g"):
            system.residual(r)


def test_twist_equations_match_polarization_oracle(catalog_entries):
    rng = random.Random(60)
    qbs = [entry.algebra for entry in catalog_entries]
    qbs.append(twist(manin_quasi_triple(gl_trace_form(2)), big_bivector(rng, 4)))
    n = 4
    g = LieAlgebra.from_brackets(n, [(i, j, k, rand_frac(rng)) for i in range(n)
                                     for j in range(i + 1, n) for k in range(n)])
    qbs.append(QuasiBialgebra(g, Cocycle(g, rand_cocycle_array(rng, n)),
                              rand_antisym(rng, n, 3)))
    for qb in qbs:
        want = oracle_twist_coefficients(qb.algebra.c, qb.delta.d, qb.phi.data)
        assert twist_equations(qb).equations == want


def direct_sum(*algebras) -> LieAlgebra:
    n = sum(g.dim for g in algebras)
    c = rzeros((n, n, n))
    at = 0
    for g in algebras:
        end = at + g.dim
        c[at:end, at:end, at:end] = g.c
        at = end
    return LieAlgebra(c)


def test_twist_equations_above_dim_10_sort_monomials_by_name():
    # sl2 + so3 + sl2 + aff1 (dim 11): "r_1_10" sorts before "r_1_2", so
    # the emitted order is not the integer-index order
    g = direct_sum(sl2(), so3(), sl2(), aff1())
    r0 = Tensor.from_alternating_entries(11, 2, [((0, 2), 1), ((3, 9), 2),
                                                 ((5, 10), Fraction(-1, 3))])
    phi = Tensor.from_alternating_entries(11, 3, [((0, 4, 10), 1), ((1, 9, 10), -2),
                                                  ((2, 3, 7), Fraction(1, 2))])
    qb = QuasiBialgebra(g, Cocycle.coboundary(g, r0), phi)
    system = twist_equations(qb)
    index = {name: i for i, name in enumerate(system.unknowns)}
    reordered = False
    for eq in system.as_dict()["equations"]:
        monos = [tuple(m["vars"]) for m in eq["monomials"]]
        assert all(list(m) == sorted(m) for m in monos)
        assert monos == sorted(monos)
        reordered |= monos != sorted(monos, key=lambda m: sorted(index[v] for v in m))
    assert reordered
    rng = random.Random(61)
    for _ in range(3):
        r = rand_antisym(rng, 11)
        res = system.residual(r)
        assert system.evaluate(r) == [res.data[t] for t in system.triples]


def test_twist_equations_gl3_bytes():
    system = twist_equations(manin_quasi_triple(gl_trace_form(3)))
    digest = hashlib.sha256(dumps_canonical(system.as_dict()).encode()).hexdigest()
    assert digest == "b48c4b905d8adba0ae24111849e55ca5d96b1e1b45697ca6cc1e2d8d2bdb9c06"
