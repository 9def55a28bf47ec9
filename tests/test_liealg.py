import random
from fractions import Fraction

import numpy as np
import pytest

from quasilie.catalog import aff1, sl2
from quasilie.liealg import (Cocycle, LieAlgebra, QuasiBialgebra,
                             ad_tensor_components, check_cocycle, check_jacobi,
                             check_pentagon, check_quasi_cojacobi, cyb,
                             half_alt_delta)
from quasilie.tensor import Tensor, alt

from _oracles import (bracket_delta, coad_a, coad_l, fzeros, oracle_ad_tensor,
                      oracle_bracket, oracle_cyb, oracle_half_alt_delta,
                      oracle_jacobi_pass)
from conftest import (rand_antisym, rand_cocycle_array, rand_frac, rand_tensor,
                      rand_vector)

EHF = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), 1)])   # e ^ h ^ f


def e_h_f():
    return [Tensor.basis(3, i) for i in range(3)]


def sl2_coboundary_qb():
    g = sl2()
    r0 = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])
    return QuasiBialgebra(g, Cocycle.coboundary(g, r0), Tensor.zero(3, 3))


def test_structure_constants_must_be_antisymmetric():
    c = fzeros((2, 2, 2))
    c[0, 1, 1] = Fraction(1)   # missing the mirrored entry
    with pytest.raises(ValueError):
        LieAlgebra(c)


def test_bracket_matches_oracle():
    rng = random.Random(20)
    g = sl2()
    for _ in range(10):
        x, y = rand_vector(rng, 3), rand_vector(rng, 3)
        assert (g.bracket(x, y) == oracle_bracket(g.c, x, y)).all()


def test_check_jacobi_abelian_and_sl2():
    assert check_jacobi(LieAlgebra.abelian(3)).ok
    assert check_jacobi(sl2()).ok
    assert check_jacobi(aff1()).ok


def test_check_jacobi_verdict_agrees_with_oracle_on_perturbations():
    rng = random.Random(21)
    base = sl2().c
    for _ in range(20):
        c = base.copy()
        i, j = rng.randrange(3), rng.randrange(3)
        if i == j:
            continue
        k = rng.randrange(3)
        v = rand_frac(rng)
        c = c.copy()
        c[i, j, k] = c[i, j, k] + v
        c[j, i, k] = c[j, i, k] - v
        g = LieAlgebra(c)
        assert check_jacobi(g).ok == oracle_jacobi_pass(c)


def test_check_jacobi_witness_is_actionable():
    # [e0,e1]=e0, [e0,e2]=e2 and [e1,e2]=0 breaks Jacobi
    g = LieAlgebra.from_brackets(3, [(0, 1, 0, 1), (0, 2, 2, 1)])
    v = check_jacobi(g)
    assert not v.ok and v.witness == (0, 1, 2)
    assert v.residual.any()


def test_ad_multi_examples_and_oracle():
    g = sl2()
    e, h, f = e_h_f()
    ef = np.multiply.outer(e.data, f.data)
    assert not ad_tensor_components(g.c, h.data, ef).any()
    assert not ad_tensor_components(LieAlgebra.abelian(3).c, h.data, ef).any()
    rng = random.Random(22)
    for _ in range(10):
        t = rand_tensor(rng, 3, 3)
        x = rand_vector(rng, 3)
        got = ad_tensor_components(g.c, x, t.data)
        assert (got == oracle_ad_tensor(g.c, x, t.data)).all()
        # Leibniz commutes with antisymmetrization
        assert (ad_tensor_components(g.c, x, alt(t).data) == alt(Tensor(3, got)).data).all()


def test_coad_a_defining_identity():
    g = sl2()
    rng = random.Random(23)
    for _ in range(10):
        a, l = rand_vector(rng, 3), rand_vector(rng, 3)
        out = coad_a(g.c, a, l)
        for b in range(3):
            eb = Tensor.basis(3, b).data
            assert out[b] == -np.tensordot(l, g.bracket(a, eb), axes=(0, 0))
    # sl2: coad_h(e*) = -2 e*
    h = Tensor.basis(3, 1).data
    estar = Tensor.basis(3, 0).data
    assert (coad_a(g.c, h, estar) == -2 * Tensor.basis(3, 0).data).all()
    # abelian: zero
    assert not coad_a(LieAlgebra.abelian(3).c, h, estar).any()


def test_bracket_delta_and_coad_l():
    qb = sl2_coboundary_qb()
    delta = qb.delta
    rng = random.Random(24)
    for _ in range(10):
        l, m, a = (rand_vector(rng, 3) for _ in range(3))
        lm = bracket_delta(delta.d, l, m)
        # defining identity against every basis vector
        for i in range(3):
            pair = np.tensordot(l, np.tensordot(delta.d[i], m, axes=(1, 0)), axes=(0, 0))
            assert lm[i] == pair
        # antisymmetry from image antisymmetry
        assert (lm == -bracket_delta(delta.d, m, l)).all()
        # coad_l identity
        cl = coad_l(delta.d, l, a)
        for i in range(3):
            ei = Tensor.basis(3, i).data
            assert np.tensordot(cl, ei, axes=(0, 0)) == -np.tensordot(
                bracket_delta(delta.d, l, ei), a, axes=(0, 0))
    # zero cocycle gives zero operations
    z = Cocycle.zero(sl2())
    l, m = rand_vector(rng, 3), rand_vector(rng, 3)
    assert not bracket_delta(z.d, l, m).any()
    assert not coad_l(z.d, l, m).any()


def test_bracket_delta_catalog_component():
    # <[e*,h*]_delta, e> = <e* x h*, delta(e)> = 1 for the coboundary of e^f
    qb = sl2_coboundary_qb()
    estar = Tensor.basis(3, 0).data
    hstar = Tensor.basis(3, 1).data
    lm = bracket_delta(qb.delta.d, estar, hstar)
    assert lm[0] == 1


def test_check_cocycle_zero_and_coboundaries():
    for g in (sl2(), aff1(), LieAlgebra.abelian(4)):
        assert check_cocycle(Cocycle.zero(g)).ok
    rng = random.Random(25)
    for g in (sl2(), aff1()):
        for _ in range(20):
            r0 = rand_antisym(rng, g.dim)
            assert check_cocycle(Cocycle.coboundary(g, r0)).ok


def test_check_cocycle_rejects_random_non_cocycle():
    g = sl2()
    # delta(e) = e^h alone (no companion terms) fails on the pair (e, f)
    d = Cocycle.from_entries(g, [(0, 0, 1, 1)])
    v = check_cocycle(d)
    assert not v.ok and v.witness is not None and v.residual.any()


def test_quasi_cojacobi_examples():
    abelian = LieAlgebra.abelian(3)
    qb0 = QuasiBialgebra(abelian, Cocycle.zero(abelian), Tensor.zero(3, 3))
    assert check_quasi_cojacobi(qb0).ok
    g = sl2()
    for c in (Fraction(1), Fraction(-7, 2)):
        phi = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), c)])
        qb = QuasiBialgebra(g, Cocycle.zero(g), phi)
        # the unique wedge-cube line of sl2 is invariant: ad_x phi = 0
        for i in range(3):
            assert not ad_tensor_components(g.c, Tensor.basis(3, i).data, phi.data).any()
        assert check_quasi_cojacobi(qb).ok
    # coboundary of e^f with phi = 0: passes because cyb(e^f) is invariant
    qb = sl2_coboundary_qb()
    r0 = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])
    for i in range(3):
        assert not ad_tensor_components(g.c, Tensor.basis(3, i).data, cyb(g, r0).data).any()
    assert check_quasi_cojacobi(qb).ok


def test_quasi_cojacobi_failure_has_witness():
    # two-wedge-term cobracket on an abelian algebra violates quasi-co-Jacobi
    abelian = LieAlgebra.abelian(3)
    d = Cocycle.from_entries(abelian, [(0, 0, 1, 1), (1, 1, 2, 1)])
    qb = QuasiBialgebra(abelian, d, Tensor.zero(3, 3))
    assert check_cocycle(d).ok
    v = check_quasi_cojacobi(qb)
    assert not v.ok and v.witness is not None


def test_pentagon_examples():
    g = sl2()
    qb = sl2_coboundary_qb()
    assert check_pentagon(qb).ok                     # phi = 0
    phi = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), 3)])
    qb2 = QuasiBialgebra(g, Cocycle.zero(g), phi)
    assert check_pentagon(qb2).ok                    # delta = 0
    # coboundary delta with invariant phi still passes
    qb3 = QuasiBialgebra(g, qb.delta, phi)
    assert check_pentagon(qb3).ok


def test_cyb_examples_and_oracle():
    g = sl2()
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])  # e ^ f
    got = cyb(g, r)
    assert (got.data == oracle_cyb(g.c, r.data)).all()
    assert got == -EHF                               # frozen regression value
    assert cyb(LieAlgebra.abelian(3), r).is_zero()
    g2 = aff1()
    r2 = Tensor.from_alternating_entries(2, 2, [((0, 1), 5)])
    assert cyb(g2, r2).is_zero()                     # wedge cube of a plane


def test_cyb_antisymmetry_and_scaling():
    from quasilie.catalog import builtin, canonical_names
    rng = random.Random(26)
    for name in canonical_names():
        g = builtin(name).algebra.algebra
        for _ in range(35):
            r = rand_antisym(rng, g.dim)
            out = cyb(g, r)
            assert out.antisymmetric and out.is_antisymmetric()
            assert cyb(g, -r) == out
            c = rand_frac(rng)
            assert cyb(g, c * r) == (c * c) * out
    # the flag rests on antisymmetry of r and of the bracket, not on Jacobi
    entries = [(i, j, k, rand_frac(rng)) for i in range(4) for j in range(i + 1, 4)
               for k in range(4)]
    g = LieAlgebra.from_brackets(4, entries)
    assert not check_jacobi(g).ok
    for _ in range(10):
        out = cyb(g, rand_antisym(rng, 4))
        assert out.antisymmetric and out.is_antisymmetric()


def test_half_alt_delta_oracle_and_tau_identity():
    rng = random.Random(27)
    g = sl2()
    for _ in range(15):
        d = Cocycle(g, rand_cocycle_array(rng, 3))
        r = rand_antisym(rng, 3)
        got = half_alt_delta(d, r)
        assert (got.data == oracle_half_alt_delta(d.d, r.data)).all()
        # tau identity: (1/2) Alt T = T + tau T + tau^2 T with tau(x,y,z) = (z,x,y)
        t = np.transpose(np.tensordot(r.data, d.d, axes=(0, 0)), (1, 2, 0))
        tau = np.transpose(t, (1, 2, 0))   # tau(T)[a,b,c] = T[b,c,a]
        tau2 = np.transpose(tau, (1, 2, 0))
        assert (got.data == t + tau + tau2).all()
    assert half_alt_delta(Cocycle.zero(g), rand_antisym(rng, 3)).is_zero()


def test_half_alt_delta_sl2_coboundary_value():
    qb = sl2_coboundary_qb()
    r = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])
    assert half_alt_delta(qb.delta, r) == Fraction(2) * EHF
