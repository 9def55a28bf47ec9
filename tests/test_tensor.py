import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from quasilie.tensor import Tensor, alt, apply_linear

from _oracles import oracle_alt, fzeros
from conftest import rand_antisym, rand_tensor, rand_vector


def basis(n):
    return [Tensor.basis(n, i) for i in range(n)]


def outer(u, v):
    return Tensor(u.dim, np.multiply.outer(u.data, v.data))


def test_alt_of_simple_tensor():
    e0, e1 = basis(2)
    t = alt(outer(e0, e1))
    assert t.data[0, 1] == 1 and t.data[1, 0] == -1
    assert t.data[0, 0] == 0 and t.data[1, 1] == 0
    assert t.antisymmetric and t.is_antisymmetric()


def test_alt_kills_symmetric_input():
    e0, _ = basis(2)
    assert alt(outer(e0, e0)).is_zero()


def test_alt_idempotent_up_to_factorial():
    rng = random.Random(1)
    for k in (1, 2, 3, 4):
        for n in (2, 3, 6):
            t = rand_tensor(rng, n, k)
            a = alt(t)
            assert alt(a) == Fraction(factorial(k)) * a


def test_alt_matches_permutation_sum_oracle():
    rng = random.Random(2)
    for _ in range(10):
        t = rand_tensor(rng, 3, 3)
        assert (alt(t).data == oracle_alt(t.data)).all()


def test_wedge_of_two_vectors():
    # e0 ^ e1 in wedge-basis coordinates is Alt(e0 (x) e1)
    e0, e1 = basis(2)
    w = Tensor.from_alternating_entries(2, 2, [((0, 1), 1)])
    assert w == alt(outer(e0, e1))


def test_wedge_against_expanded_oracle():
    e0, e1, e2 = basis(3)
    cube = outer(outer(e0, e1), e2)
    w = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), 1)])
    assert (w.data == oracle_alt(cube.data)).all()
    assert alt(cube) == w


def test_wedge_square_of_vector_vanishes():
    rng = random.Random(6)
    v = Tensor(4, rand_vector(rng, 4))
    assert alt(outer(v, v)).is_zero()


def test_wedge_graded_commutative():
    rng = random.Random(3)
    for m, nn in ((1, 1), (1, 2), (2, 2), (2, 3)):
        u = rand_antisym(rng, 4, m)
        v = rand_antisym(rng, 4, nn)
        sign = Fraction((-1) ** (m * nn))
        assert alt(outer(u, v)) == sign * alt(outer(v, u))


def test_wedge_requires_matching_dimension():
    # vectors over spaces of different dimension give no dim^k cube
    with pytest.raises(ValueError):
        outer(Tensor.basis(2, 0), Tensor.basis(3, 0))


def test_from_alternating_entries_matches_wedge():
    e0, e1, e2 = basis(3)
    built = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), Fraction(5, 2))])
    assert built == Fraction(5, 2) * alt(outer(outer(e0, e1), e2))
    with pytest.raises(ValueError):
        Tensor.from_alternating_entries(3, 2, [((1, 0), 1)])


def test_entries_sorted_lexicographically():
    t = Tensor.from_alternating_entries(3, 2, [((0, 2), 1), ((0, 1), 2)])
    idx = [i for i, _ in t.entries()]
    assert idx == sorted(idx)


def test_scalar_and_linear_ops():
    rng = random.Random(4)
    a = rand_tensor(rng, 3, 2)
    b = rand_tensor(rng, 3, 2)
    assert a + b == b + a
    assert a - a == Tensor.zero(3, 2)
    assert Fraction(2) * a == a + a
    assert -a == Fraction(-1) * a


def test_apply_linear_identity_and_collapse():
    rng = random.Random(5)
    t = rand_tensor(rng, 3, 2)
    eye = fzeros((3, 3))
    for i in range(3):
        eye[i, i] = Fraction(1)
    assert apply_linear(eye, t) == t
    # collapsing map onto the first coordinate kills antisymmetric tensors
    m = fzeros((1, 3))
    m[0, 0] = Fraction(1)
    w = alt(t)
    assert apply_linear(m, w).is_zero()
