"""Exact multilinear algebra over a based rational vector space.

Tensors are dense numpy object arrays of `fractions.Fraction`; all
arithmetic is exact and every comparison is an exact equality.  The
antisymmetrization convention is the plain signed sum over permutations
(no 1/k! factor).

The certificate kernels contract on integers instead: `scaled` clears
the denominators of their inputs once, and `unscaled` turns a residual
back into `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def rzeros(shape) -> np.ndarray:
    a = np.empty(shape, dtype=object)
    a[...] = ZERO
    return a


def reye(n: int) -> np.ndarray:
    """n x n identity with `Fraction` entries."""
    a = rzeros((n, n))
    np.fill_diagonal(a, ONE)
    return a


def rarray(data) -> np.ndarray:
    a = np.array(data, dtype=object)
    flat = a.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = as_rational(x)
    return a


def scaled(*arrays):
    """Clear denominators: (int_arrays, den) with arrays[k] equal to
    int_arrays[k] / den exactly, den the lcm of every denominator.  The
    integer arrays hold Python ints (object dtype), which cannot overflow."""
    arrays = [np.asarray(a, dtype=object) for a in arrays]
    dens = {x.denominator for a in arrays for x in a.flat}
    den = lcm(*dens)
    mult = {q: den // q for q in dens}
    ints = tuple(np.array([x.numerator * mult[x.denominator] for x in a.flat],
                          dtype=object).reshape(a.shape) for a in arrays)
    return ints, den


def unscaled(arr, den: int = 1):
    """Inverse of `scaled`: arr / den as `Fraction`s (an array or a scalar)."""
    if np.ndim(arr) == 0:
        return Fraction(arr, den)
    return np.array([Fraction(x, den) for x in arr.flat], dtype=object).reshape(arr.shape)


def basis_vector(dim: int, i: int) -> np.ndarray:
    v = rzeros((dim,))
    v[i] = ONE
    return v


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class Tensor:
    """Degree-k tensor over an n-dimensional based space.

    Immutable by convention: no operation here mutates `data` after
    construction.  The `antisymmetric` flag certifies total antisymmetry
    of the components; constructors only set it when it is guaranteed.
    """

    __slots__ = ("dim", "degree", "data", "antisymmetric")

    def __init__(self, dim: int, data, antisymmetric: bool = False):
        data = np.asarray(data, dtype=object)
        if data.shape != (dim,) * data.ndim:
            raise ValueError("tensor data must be a dim^k cube, got shape %s for dim %d"
                             % (data.shape, dim))
        self.dim = dim
        self.degree = data.ndim
        self.data = data
        self.antisymmetric = antisymmetric

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Tensor":
        return cls(dim, rzeros((dim,) * degree), antisymmetric=True)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Tensor":
        return cls(dim, basis_vector(dim, i), antisymmetric=True)

    @classmethod
    def from_entries(cls, dim: int, degree: int, entries, antisymmetric: bool = False) -> "Tensor":
        data = rzeros((dim,) * degree)
        for idx, val in entries:
            data[tuple(idx)] = as_rational(val)
        return cls(dim, data, antisymmetric=antisymmetric)

    @classmethod
    def from_alternating_entries(cls, dim: int, degree: int, entries) -> "Tensor":
        """Build from coefficients on strictly increasing index tuples,
        filling all other components by sign (wedge-basis coordinates)."""
        data = rzeros((dim,) * degree)
        for idx, val in entries:
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)):
                raise ValueError("expected strictly increasing indices, got %s" % (idx,))
            val = as_rational(val)
            for perm in permutations(range(degree)):
                data[tuple(idx[p] for p in perm)] = perm_sign(perm) * val
        return cls(dim, data, antisymmetric=True)

    def entries(self):
        """Nonzero components as (index tuple, value), lexicographic order."""
        for idx in np.ndindex(self.data.shape):
            v = self.data[idx]
            if v:
                yield idx, v

    def is_zero(self) -> bool:
        return not self.data.any()

    def is_antisymmetric(self) -> bool:
        for perm in permutations(range(self.degree)):
            if perm_sign(perm) == 1:
                if (self.data != np.transpose(self.data, perm)).any():
                    return False
            else:
                if (self.data != -np.transpose(self.data, perm)).any():
                    return False
        return True

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.dim, self.data + other.data,
                      antisymmetric=self.antisymmetric and other.antisymmetric)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(self.dim, self.data - other.data,
                      antisymmetric=self.antisymmetric and other.antisymmetric)

    def __neg__(self) -> "Tensor":
        return Tensor(self.dim, -self.data, antisymmetric=self.antisymmetric)

    def __rmul__(self, scalar) -> "Tensor":
        return Tensor(self.dim, as_rational(scalar) * self.data,
                      antisymmetric=self.antisymmetric)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor)
                and self.dim == other.dim
                and self.degree == other.degree
                and bool((self.data == other.data).all()))

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(sorted(self.entries()))))

    def __repr__(self):
        terms = ", ".join("%s: %s" % (idx, v) for idx, v in self.entries())
        return "Tensor(dim=%d, degree=%d, {%s})" % (self.dim, self.degree, terms)

    def _check_compatible(self, other: "Tensor"):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("tensor dimension/degree mismatch")


def alt_components(arr: np.ndarray) -> np.ndarray:
    """Signed sum over all axis permutations (array level, `Fraction` or int
    entries)."""
    k = arr.ndim
    out = None
    for perm in permutations(range(k)):
        term = np.transpose(arr, perm)
        term = term if perm_sign(perm) == 1 else -term
        out = term.copy() if out is None else out + term
    return out


def alt(t: Tensor) -> Tensor:
    return Tensor(t.dim, alt_components(t.data), antisymmetric=True)


def apply_linear(matrix: np.ndarray, t: Tensor) -> Tensor:
    """Push every slot of t through the linear map given by matrix (rows
    index the target space).  Preserves antisymmetry."""
    matrix = np.asarray(matrix, dtype=object)
    new_dim = matrix.shape[0]
    if matrix.shape[1] != t.dim:
        raise ValueError("linear map does not match tensor dimension")
    cur = push_components(matrix, t.data)
    if t.degree == 0:
        cur = cur.copy()
    return Tensor(new_dim, cur, antisymmetric=t.antisymmetric)


def push_components(matrix: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Every slot of arr pushed through matrix (array level, `Fraction` or
    int entries)."""
    for axis in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(matrix, arr, axes=(1, axis)), 0, axis)
    return arr
