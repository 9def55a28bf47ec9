import random
from fractions import Fraction

import numpy as np
import pytest

from quasilie.catalog import builtin
from quasilie.homogeneous import HomDatum, dirac_span
from quasilie.subspace import Subspace, annihilator, rref, solve_exact
from quasilie.tensor import Tensor, alt, apply_linear, rarray, rzeros

from _oracles import oracle_quotient_map, oracle_reduce
from conftest import rand_antisym, rand_frac, rand_vector, rand_tensor


def test_intersection_of_transversal_lines_is_zero():
    a = Subspace(2, rarray([[1, 1]]))
    b = Subspace(2, rarray([[1, -1]]))
    assert a.intersect(b) == Subspace.zero(2)


def test_membership():
    s = Subspace(3, rarray([[1, 0, 0], [0, 1, 0]]))
    assert s.member(rarray([2, -3, 0]))
    assert not s.member(rarray([0, 0, 1]))


def test_echelonize_is_canonical_under_row_operations():
    rng = random.Random(10)
    for _ in range(20):
        rows = np.array([rand_vector(rng, 5) for _ in range(3)], dtype=object)
        s = Subspace(5, rows)
        # a random invertible P assembled from elementary row operations
        mixed = rows.copy()
        for _ in range(8):
            kind = rng.randrange(3)
            i, j = rng.sample(range(3), 2)
            if kind == 0:
                mixed[[i, j]] = mixed[[j, i]]
            elif kind == 1:
                scale = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
                mixed[i] = scale * mixed[i]
            else:
                mixed[i] = mixed[i] + rand_frac(rng) * mixed[j]
        assert Subspace(5, mixed) == s


def test_integer_rows_stay_exact():
    # int/int division would produce floats; rref must coerce first
    s = Subspace(2, [[2, 4]])
    assert s.rows[0, 1] == Fraction(2) and isinstance(s.rows[0, 1], Fraction)


def test_rref_pivots_are_clean():
    rows, pivots = rref(rarray([[0, 2, 4], [1, 1, 1]]))
    for i, p in enumerate(pivots):
        assert rows[i, p] == 1
        for i2 in range(rows.shape[0]):
            if i2 != i:
                assert rows[i2, p] == 0


def test_kernel_annihilator():
    rng = random.Random(11)
    for _ in range(10):
        rows = [rand_vector(rng, 4) for _ in range(2)]
        h = Subspace(4, rows)
        hp = annihilator(h)
        assert h.dim + hp.dim == 4
        for i in range(h.dim):
            for j in range(hp.dim):
                assert not np.tensordot(h.rows[i], hp.rows[j], axes=(0, 0))


def test_annihilator_of_zero_is_full():
    assert annihilator(Subspace.zero(3)) == Subspace.full(3)


def test_quotient_matrix_kills_subspace_and_has_full_rank():
    rng = random.Random(12)
    for _ in range(10):
        h = Subspace(5, [rand_vector(rng, 5) for _ in range(2)])
        m = h.quotient_matrix()
        assert m.shape == (5 - h.dim, 5)
        for i in range(h.dim):
            assert not (m @ h.rows[i]).any()
        _, pivots = rref(m)
        assert len(pivots) == 5 - h.dim


def test_project_quotient_examples():
    # e0 ^ e1 modulo span(e0) in dim 2 collapses to a 1-dim square, hence 0
    w = Tensor.from_alternating_entries(2, 2, [((0, 1), 1)])
    h = Subspace(2, rarray([[1, 0]]))
    assert apply_linear(h.quotient_matrix(), w).is_zero()
    # h = 0 keeps components
    z = Subspace.zero(2)
    assert apply_linear(z.quotient_matrix(), w) == w
    # every term of the alternating cube contains index 2
    cube = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), 1)])
    h2 = Subspace(3, rarray([[0, 0, 1]]))
    assert apply_linear(h2.quotient_matrix(), cube).is_zero()


def test_project_quotient_commutes_with_alt():
    rng = random.Random(13)
    for _ in range(10):
        t = rand_tensor(rng, 4, 3)
        m = Subspace(4, [rand_vector(rng, 4)]).quotient_matrix()
        assert apply_linear(m, alt(t)) == alt(apply_linear(m, t))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        Subspace(2, rarray([[1, 0]])).intersect(Subspace(3, rarray([[1, 0, 0]])))


def test_solve_exact_roundtrip_and_errors():
    a = rarray([[1, 2], [0, 1], [1, 3]])
    x = rarray([[5], [7]])
    b = a @ x
    assert (solve_exact(a, b) == x).all()
    with pytest.raises(ValueError):
        solve_exact(a, rarray([[1], [0], [0]]))  # inconsistent
    with pytest.raises(ValueError):
        solve_exact(rarray([[1, 1], [2, 2]]), rarray([[1], [2]]))  # rank deficient


def oracle_rank(vectors):
    """Rank by inserting the vectors one at a time: each new remainder
    vanishes at the leading coordinates of the rows kept before it."""
    kept = []
    for v in vectors:
        rem = oracle_reduce(kept, v)
        if rem.any():
            kept.append(rem)
    return len(kept)


def random_pair(rng, n, a):
    """A of dimension a (almost surely) and B sharing up to dim A of its
    rows with A, so that the intersection is often larger than generic."""
    arows = [rand_vector(rng, n) for _ in range(a)]
    b = rng.randint(0, n)
    shared = rng.randint(0, min(a, b))
    brows = [sum((rand_frac(rng) * row for row in arows), np.zeros(n, dtype=object))
             for _ in range(shared)] + [rand_vector(rng, n) for _ in range(b - shared)]
    return Subspace(n, arows), Subspace(n, brows)


def test_subspace_operations_against_oracles():
    rng = random.Random(14)
    for n in range(1, 9):
        for a in range(n + 1):
            for _ in range(2):
                sa, sb = random_pair(rng, n, a)
                inter = sa.intersect(sb)
                for row in inter.rows:
                    assert not oracle_reduce(sa.rows, row).any()
                    assert not oracle_reduce(sb.rows, row).any()
                rank = oracle_rank(list(sa.rows) + list(sb.rows))
                assert inter.dim == sa.dim + sb.dim - rank
                ann = annihilator(sa)
                assert sa.dim + ann.dim == n
                assert all(not (x @ y) for x in sa.rows for y in ann.rows)
                v = rand_vector(rng, n)
                assert (sa.reduce(v) == oracle_reduce(sa.rows, v)).all()


def test_dirac_span_against_oracles():
    rng = random.Random(15)
    for n in range(1, 9):
        qb = builtin("abelian(%d)" % n).algebra
        for k in range(n + 1):
            h = Subspace(n, [rand_vector(rng, n) for _ in range(k)])
            r = rand_antisym(rng, n)
            span = dirac_span(HomDatum(qb, h, r))
            assert span.dim == n
            lifted = [np.concatenate([l @ r.data, l])
                      for l in oracle_quotient_map(h.rows, n)]
            lifted += [np.concatenate([row, np.zeros(n, dtype=object)]) for row in h.rows]
            for x in lifted:
                assert not oracle_reduce(span.rows, x).any()
