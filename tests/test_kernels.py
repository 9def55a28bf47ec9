"""The integer certificate kernels against the loop oracles of `_oracles`,
on large rationals: the same verdict, witness and residual (same shape,
equal `Fraction`s).  Twisted catalog structures pass every certificate
by theorem; single-entry perturbations of them exercise the witnesses."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from quasilie.catalog import builtin, manin_quasi_triple
from quasilie.double import (DoubleAlgebra, build_double, certify_bracket_map,
                             check_double_axioms)
from quasilie.liealg import (Cocycle, LieAlgebra, QuasiBialgebra, check_cocycle,
                             check_jacobi, check_pentagon, check_quasi_cojacobi)
from quasilie.tensor import Tensor, perm_sign
from quasilie.twisting import f_r_matrix, twist

from _oracles import (oracle_bracket_map, oracle_cocycle, oracle_jacobi,
                      oracle_pentagon, oracle_q_invariance, oracle_quasi_cojacobi)
from conftest import big_bivector, big_frac, gl_trace_form


BASES = {
    "aff1": lambda: builtin("aff1").algebra,
    "sl2_coboundary": lambda: builtin("sl2_coboundary").algebra,
    "manin_so3": lambda: builtin("manin_so3").algebra,
    "manin_gl2": lambda: manin_quasi_triple(gl_trace_form(2)),
}


def twisted(name, rng):
    qb = BASES[name]()
    r = big_bivector(rng, qb.dim)
    return qb, r, twist(qb, r)


def assert_same(v, oracle):
    if oracle is None:
        assert v.ok and v.witness is None and v.residual is None
        return
    witness, res = oracle
    assert not v.ok and v.witness == witness
    got = np.asarray(v.residual, dtype=object)
    assert got.shape == np.shape(res)
    assert all(type(x) is Fraction for x in got.flat)
    assert np.array_equal(got, np.asarray(res, dtype=object))


def assert_checks_match(qb):
    """The four axioms of qb and the two axioms of its double; returns
    the six verdicts."""
    c, d, phi = qb.algebra.c, qb.delta.d, qb.phi.data
    pairs = [(check_jacobi(qb.algebra), oracle_jacobi(c)),
             (check_cocycle(qb.delta), oracle_cocycle(c, d)),
             (check_quasi_cojacobi(qb), oracle_quasi_cojacobi(c, d, phi)),
             (check_pentagon(qb), oracle_pentagon(d, phi))]
    for v, oracle in pairs:
        assert_same(v, oracle)
    return [v for v, _ in pairs] + assert_double_matches(build_double(qb))


def assert_double_matches(dbl):
    rep = check_double_axioms(dbl)
    assert_same(rep.jacobi, oracle_jacobi(dbl.algebra.c))
    assert_same(rep.q_invariance, oracle_q_invariance(dbl.algebra.c, dbl.q))
    return [rep.jacobi, rep.q_invariance]


def assert_map_matches(src, dst, m):
    v = certify_bracket_map(src, dst, m)
    assert_same(v, oracle_bracket_map(src.c, dst.c, m))
    return v


@pytest.mark.parametrize("name", sorted(BASES))
def test_integer_kernels_pass_on_twisted_structures(name):
    qb, r, tq = twisted(name, random.Random(name))
    assert all(v.ok for v in assert_checks_match(tq))
    m = f_r_matrix(qb, r)
    assert assert_map_matches(build_double(qb).algebra, build_double(tq).algebra, m).ok


def bump_pair(arr, i, j, k, v):
    """arr + v at (i, j, k), minus v at (j, i, k): antisymmetry kept."""
    out = arr.copy()
    out[i, j, k] += v
    out[j, i, k] -= v
    return out


def perturbed(tq, kind, rng):
    g, n = tq.algebra, tq.dim
    i, j = rng.sample(range(n), 2)
    k = rng.randrange(n)
    v = big_frac(rng)
    if kind == "bracket":
        g2 = LieAlgebra(bump_pair(g.c, i, j, k, v))
        return QuasiBialgebra(g2, Cocycle(g2, tq.delta.d), tq.phi)
    if kind == "delta":
        d = np.transpose(bump_pair(np.transpose(tq.delta.d, (1, 2, 0)), i, j, k, v), (2, 0, 1))
        return QuasiBialgebra(g, Cocycle(g, d), tq.phi)
    idx = sorted(rng.sample(range(n), 3))
    phi = tq.phi.data.copy()
    for perm in permutations(range(3)):
        phi[tuple(idx[p] for p in perm)] += perm_sign(perm) * v
    return QuasiBialgebra(g, tq.delta, Tensor(n, phi, antisymmetric=True))


@pytest.mark.parametrize("name", sorted(BASES))
def test_integer_kernels_match_oracles_on_perturbations(name):
    rng = random.Random("perturb " + name)
    qb, r, tq = twisted(name, rng)
    # a single-entry change may keep an axiom, and in dim 2 every bracket
    # and cobracket passes all four, so only require some witness path
    failing = []
    for kind in ["bracket", "delta"] + (["phi"] if tq.dim >= 3 else []):
        failing += [v for v in assert_checks_match(perturbed(tq, kind, rng)) if not v.ok]
    assert failing or tq.dim == 2
    # a broken double, for which Q-invariance fails, and a broken map
    src, dst = build_double(qb), build_double(tq)
    a, b = rng.sample(range(src.dim), 2)
    c2 = bump_pair(dst.algebra.c, a, b, rng.randrange(src.dim), big_frac(rng))
    assert not assert_double_matches(DoubleAlgebra(tq, LieAlgebra(c2), dst.q))[1].ok
    m = f_r_matrix(qb, r)
    m[rng.randrange(src.dim), rng.randrange(src.dim)] += big_frac(rng)
    assert not assert_map_matches(src.algebra, dst.algebra, m).ok
