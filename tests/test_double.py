import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from quasilie.catalog import builtin, sl2
from quasilie.double import (bivector_from_lagrangian, build_double,
                             check_double_axioms, intersect_with_g,
                             is_isotropic, is_lagrangian, is_subalgebra)
from quasilie.homogeneous import HomDatum, dirac_span
from quasilie.liealg import (Cocycle, LieAlgebra, QuasiBialgebra, axiom_report,
                             check_cocycle)
from quasilie.subspace import Subspace, project_quotient
from quasilie.tensor import Tensor, rarray, reye, rzeros

from _oracles import oracle_double_bracket, oracle_jacobi_pass, oracle_pairing
from conftest import rand_antisym, rand_cocycle_array, rand_frac, rand_vector


def abelian_qb(n=3):
    g = LieAlgebra.abelian(n)
    return QuasiBialgebra(g, Cocycle.zero(g), Tensor.zero(n, 3))


def test_double_of_abelian_is_abelian_with_identity_pairing():
    dbl = build_double(abelian_qb(3))
    assert not dbl.algebra.c.any()
    for i, j in product(range(6), repeat=2):
        expected = 1 if abs(i - j) == 3 else 0
        assert dbl.q[i, j] == expected


def _assert_bracket_rules(qb):
    dbl = build_double(qb)
    c, d, phi = qb.algebra.c, qb.delta.d, qb.phi.data
    e = reye(dbl.dim)
    for i, j in product(range(dbl.dim), repeat=2):
        assert (dbl.algebra.c[i, j] == oracle_double_bracket(c, d, phi, e[i], e[j])).all()


def test_build_double_matches_bracket_rules(catalog_entries):
    # [a, l] = coad_a l - coad_l a and [l, m] = [l, m]_delta - (l (x) m (x) id) phi
    for entry in catalog_entries:
        _assert_bracket_rules(entry.algebra)
    # broken sources too: the rules are definitions, not consequences of the axioms
    rng = random.Random(37)
    for n in (2, 3, 4):
        for _ in range(4):
            entries = [(i, j, k, rand_frac(rng)) for i in range(n)
                       for j in range(i + 1, n) for k in range(n)]
            g = LieAlgebra.from_brackets(n, entries)
            phi = rand_antisym(rng, n, 3) if n >= 3 else Tensor.zero(n, 3)
            _assert_bracket_rules(QuasiBialgebra(g, Cocycle(g, rand_cocycle_array(rng, n)), phi))


def test_g_bracket_reproduced_and_q_values():
    qb = builtin("sl2_coboundary").algebra
    dbl = build_double(qb)
    n = 3
    assert (dbl.algebra.c[:n, :n, :n] == qb.algebra.c).all()
    for i, j in product(range(n), repeat=2):
        ei = rzeros((6,)); ei[i] = Fraction(1)
        ej_star = rzeros((6,)); ej_star[n + j] = Fraction(1)
        assert ei @ dbl.q @ ej_star == (1 if i == j else 0)
        ej = rzeros((6,)); ej[j] = Fraction(1)
        assert ei @ dbl.q @ ej == 0
        ei_star = rzeros((6,)); ei_star[n + i] = Fraction(1)
        assert ei_star @ dbl.q @ ej_star == 0


def test_q_symmetric_on_random_vectors():
    dbl = build_double(builtin("manin_sl2_trace").algebra)
    rng = random.Random(30)
    for _ in range(10):
        u, v = rand_vector(rng, 6), rand_vector(rng, 6)
        assert u @ dbl.q @ v == v @ dbl.q @ u


def test_dual_is_subalgebra_exactly_for_vanishing_phi():
    bial = builtin("sl2_coboundary").algebra
    dbl = build_double(bial)
    assert is_subalgebra(dbl, dbl.dual_subspace()).ok
    manin = builtin("manin_sl2_trace").algebra
    dbl2 = build_double(manin)
    v = is_subalgebra(dbl2, dbl2.dual_subspace())
    assert not v.ok and v.residual.any()


def test_dual_dual_bracket_carries_phi_component():
    manin = builtin("manin_sl2_trace").algebra
    dbl = build_double(manin)
    n = 3
    for i, j in product(range(n), repeat=2):
        w = dbl.algebra.c[n + i, n + j]
        assert (w[:n] == -manin.phi.data[i, j]).all()


def test_double_axioms_on_catalog(catalog_entries):
    for entry in catalog_entries:
        rep = check_double_axioms(build_double(entry.algebra))
        assert rep.jacobi.ok and rep.q_invariance.ok, entry.name


def test_double_axioms_negative_control_breaks_jacobi():
    g = sl2()
    # delta(h) = e ^ f on top of the coboundary cobracket is not a cocycle
    base = builtin("sl2_coboundary").algebra
    d = base.delta.d.copy()
    d[1, 0, 2] = d[1, 0, 2] + 1
    d[1, 2, 0] = d[1, 2, 0] - 1
    broken = QuasiBialgebra(g, Cocycle(g, d), base.phi)
    assert not check_cocycle(broken.delta).ok
    rep = check_double_axioms(build_double(broken))
    assert not rep.jacobi.ok
    assert not oracle_jacobi_pass(build_double(broken).algebra.c)


def test_jacobi_iff_axioms_under_random_perturbations():
    rng = random.Random(31)
    for name in ("sl2_coboundary", "manin_sl2_trace", "aff1"):
        base = builtin(name).algebra
        g = base.algebra
        n = g.dim
        for _ in range(25):
            d = base.delta.d.copy()
            phi = base.phi
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n - 1)
                k = rng.randrange(j + 1, n)
                v = rand_frac(rng)
                d[i, j, k] = d[i, j, k] + v
                d[i, k, j] = d[i, k, j] - v
            elif n >= 3:
                phi = phi + Tensor.from_alternating_entries(
                    n, 3, [((0, 1, 2), rand_frac(rng))])
            qb = QuasiBialgebra(g, Cocycle(g, d), phi)
            rep = axiom_report(qb)
            axioms_ok = all(v.ok for v in rep.values())
            jac_ok = check_double_axioms(build_double(qb)).jacobi.ok
            assert axioms_ok == jac_ok


def test_any_cobracket_on_dim2_gives_a_valid_double():
    # in dim 2 every image-antisymmetric delta is a cocycle and the
    # degree-3 identities are vacuous, so the double always closes
    from quasilie.catalog import aff1
    rng = random.Random(36)
    g = aff1()
    for _ in range(20):
        d = Cocycle(g, rand_cocycle_array(rng, 2))
        qb = QuasiBialgebra(g, d, Tensor.zero(2, 3))
        assert all(v.ok for v in axiom_report(qb).values())
        assert check_double_axioms(build_double(qb)).ok


def test_q_invariance_holds_whenever_cocycle_does():
    # empirically stronger: it holds for every structurally valid source
    rng = random.Random(32)
    g = sl2()
    for _ in range(20):
        d = Cocycle(g, rand_cocycle_array(rng, 3))
        phi = rand_antisym(rng, 3, 3)
        qb = QuasiBialgebra(g, d, phi)
        assert check_double_axioms(build_double(qb)).q_invariance.ok


def test_isotropy_and_lagrangian_examples():
    dbl = build_double(builtin("sl2_coboundary").algebra)
    g_sub = dbl.g_subspace()
    dual = dbl.dual_subspace()
    assert is_lagrangian(dbl, g_sub) and is_lagrangian(dbl, dual)
    mixed = Subspace(6, rarray([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]))
    assert not is_isotropic(dbl, mixed)
    assert is_subalgebra(dbl, g_sub).ok


def graph(qb, r):
    """The Dirac span at h = 0: the graph of r over g*."""
    return dirac_span(HomDatum(qb, Subspace.zero(qb.dim), r))


def test_lagrangian_from_bivector():
    qb = builtin("sl2_coboundary").algebra
    dbl = build_double(qb)
    assert graph(qb, Tensor.zero(3, 2)) == dbl.dual_subspace()
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])  # e ^ f
    sub = graph(qb, r)
    assert sub.member(rarray([0, 0, 1, 1, 0, 0]))    # e* + f
    assert sub.member(rarray([-1, 0, 0, 0, 0, 1]))   # f* - e
    assert sub.member(rarray([0, 0, 0, 0, 1, 0]))    # h*
    rng = random.Random(33)
    for _ in range(50):
        rr = rand_antisym(rng, 3)
        s = graph(qb, rr)
        assert s.dim == 3 and is_lagrangian(dbl, s)
        assert intersect_with_g(dbl, s).dim == 0


def test_bivector_from_lagrangian_roundtrip():
    rng = random.Random(34)
    for name in ("sl2_coboundary", "aff1"):
        entry = builtin(name)
        dbl = build_double(entry.algebra)
        n = entry.algebra.dim
        # trivial case: L = g recovers nothing (quotient is zero)
        v = bivector_from_lagrangian(dbl, dbl.g_subspace(), Subspace.full(n))
        assert v.dim == 0
        # graph case: recovers r itself
        for _ in range(25):
            r = rand_antisym(rng, n)
            sub = graph(entry.algebra, r)
            got = bivector_from_lagrangian(dbl, sub, Subspace.zero(n))
            assert got == Tensor(n, r.data, antisymmetric=True)
            assert got.is_antisymmetric()
        # general case: recovers the class of r modulo h
        for _ in range(25):
            h = rng.choice(entry.subalgebras)
            r = rand_antisym(rng, n)
            sub = dirac_span(HomDatum(entry.algebra, h, r))
            got = bivector_from_lagrangian(dbl, sub, h)
            assert got == project_quotient(r, h)
            assert got.is_antisymmetric()


def test_bivector_from_lagrangian_errors():
    dbl = build_double(builtin("sl2_coboundary").algebra)
    with pytest.raises(ValueError, match="not Lagrangian"):
        bivector_from_lagrangian(dbl, Subspace.full(6), Subspace.zero(3))
    with pytest.raises(ValueError, match="differs"):
        bivector_from_lagrangian(dbl, dbl.g_subspace(), Subspace.zero(3))


def test_bracket_pairing_identities(catalog_entries):
    # <l1 x l2 x l3, [r12,r13]> = Q([l1, R l2], R l3)
    # <l1 x l2 x l3, (delta x id) r> = -Q([l1, l2], R l3)
    # <l1 x l2 x l3, phi> = -Q([l1, l2], l3)
    rng = random.Random(35)
    for entry in catalog_entries:
        qb = entry.algebra
        n = qb.dim
        dbl = build_double(qb)
        for _ in range(20):
            ls = [rand_vector(rng, n) for _ in range(3)]
            r = rand_antisym(rng, n)
            emb = [dbl.embed_dual(l) for l in ls]
            remb = [dbl.embed_g(l @ r.data) for l in ls]

            t1 = np.tensordot(r.data, qb.algebra.c, axes=(0, 0))
            t1 = np.transpose(np.tensordot(r.data, t1, axes=(0, 1)), (2, 1, 0))
            lhs = oracle_pairing(ls, t1)
            rhs = dbl.algebra.bracket(emb[0], remb[1]) @ dbl.q @ remb[2]
            assert lhs == rhs

            t2 = np.transpose(np.tensordot(r.data, qb.delta.d, axes=(0, 0)), (1, 2, 0))
            lhs = oracle_pairing(ls, t2)
            rhs = -(dbl.algebra.bracket(emb[0], emb[1]) @ dbl.q @ remb[2])
            assert lhs == rhs

            lhs = oracle_pairing(ls, qb.phi.data)
            rhs = -(dbl.algebra.bracket(emb[0], emb[1]) @ dbl.q @ emb[2])
            assert lhs == rhs
