from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from quasilie.catalog import QuadraticLieAlgebra, builtin, canonical_names
from quasilie.liealg import LieAlgebra
from quasilie.tensor import Tensor, rarray


def rand_frac(rng, lo=-3, hi=3, denoms=(1, 2)):
    return Fraction(rng.randint(lo, hi), rng.choice(denoms))


def rand_vector(rng, n):
    return np.array([rand_frac(rng) for _ in range(n)], dtype=object)


def rand_tensor(rng, n, degree):
    data = np.empty((n,) * degree, dtype=object)
    for idx in np.ndindex(data.shape):
        data[idx] = rand_frac(rng)
    return Tensor(n, data)


def rand_antisym(rng, n, degree=2):
    entries = []
    for combo in combinations(range(n), degree):
        entries.append((combo, rand_frac(rng)))
    return Tensor.from_alternating_entries(n, degree, entries)


def coprime_values(count, top=2 ** 40):
    out = []
    q = top
    while len(out) < count:
        if all(gcd(q, p) == 1 for p in out):
            out.append(q)
        q -= 1
    return out


DENOMS = coprime_values(6)


def big_frac(rng):
    return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.choice(DENOMS))


def big_bivector(rng, n):
    return Tensor.from_alternating_entries(
        n, 2, [(pair, big_frac(rng)) for pair in combinations(range(n), 2)])


def rand_cocycle_array(rng, n):
    d = np.empty((n, n, n), dtype=object)
    d[...] = Fraction(0)
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                v = rand_frac(rng)
                d[i, j, k] = v
                d[i, k, j] = -v
    return d


def gl_trace_form(m: int) -> QuadraticLieAlgebra:
    """gl(m) on the basis E_ij (index i*m + j), [E_ij, E_kl] = d_jk E_il -
    d_li E_kj, with the trace form B(E_ij, E_kl) = d_jk d_il."""
    n = m * m
    entries = []
    for i, j, k, l in np.ndindex(m, m, m, m):
        a, b = i * m + j, k * m + l
        if a < b:
            if j == k:
                entries.append((a, b, i * m + l, 1))
            if l == i:
                entries.append((a, b, k * m + j, -1))
    form = rarray([[int(b == (a % m) * m + a // m) for b in range(n)] for a in range(n)])
    return QuadraticLieAlgebra(LieAlgebra.from_brackets(n, entries), form)


@pytest.fixture(scope="session")
def catalog_entries():
    return [builtin(name) for name in canonical_names()]
