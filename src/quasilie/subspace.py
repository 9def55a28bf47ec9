"""Echelon-form subspace toolkit over the rationals.

A subspace is stored as its reduced row echelon basis, which is a
canonical form: two subspaces are equal iff their matrices are equal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .tensor import Tensor, ONE, apply_linear, as_rational, reye, rzeros


def rref(mat: np.ndarray):
    """Reduced row echelon form; returns (rows without zero rows, pivots)."""
    a = np.array(mat, dtype=object)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    flat = a.reshape(-1)
    for i, x in enumerate(flat):
        # int entries would fall into float division below
        if not isinstance(x, Fraction):
            flat[i] = as_rational(x)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i, col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = a[r] / a[r, col]
        for i in range(nrows):
            if i != r and a[i, col]:
                a[i] = a[i] - a[i, col] * a[r]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a[:r], tuple(pivots)


class Subspace:
    """Subspace of Q^N with canonical reduced-row-echelon basis."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors=None):
        self.ambient = ambient
        if vectors is None or len(vectors) == 0:
            self.rows = rzeros((0, ambient))
            self.pivots = ()
            return
        mat = np.array(vectors, dtype=object)
        if mat.ndim != 2 or mat.shape[1] != ambient:
            raise ValueError("basis vectors must have length %d" % ambient)
        self.rows, self.pivots = rref(mat)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, reye(ambient))

    @classmethod
    def kernel(cls, mat) -> "Subspace":
        """Null space {x : mat @ x = 0}."""
        mat = np.asarray(mat, dtype=object)
        n = mat.shape[1]
        if mat.shape[0] == 0:
            return cls.full(n)
        rows, pivots = rref(mat)
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for f in free:
            v = rzeros((n,))
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -rows[i, f]
            basis.append(v)
        return cls(n, basis)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def basis(self):
        return [self.rows[i].copy() for i in range(self.dim)]

    def reduce(self, vector: np.ndarray) -> np.ndarray:
        """Remainder of vector after elimination against the echelon basis."""
        v = np.array(vector, dtype=object)
        if v.shape != (self.ambient,):
            raise ValueError("vector has wrong ambient dimension")
        for i, p in enumerate(self.pivots):
            if v[p]:
                v = v - v[p] * self.rows[i]
        return v

    def member(self, vector) -> bool:
        return not self.reduce(vector).any()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, np.vstack([self.rows, other.rows]))

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked system
        [A^T | -B^T] (s; t) = 0."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        stacked = np.hstack([self.rows.T, -other.rows.T])
        coeffs = Subspace.kernel(stacked)
        vecs = [coeffs.rows[i, :self.dim] @ self.rows for i in range(coeffs.dim)]
        return Subspace(self.ambient, vecs)

    def quotient_matrix(self) -> np.ndarray:
        """Matrix of the canonical surjection onto the quotient by this
        subspace; quotient coordinates are the non-pivot coordinates."""
        free = [j for j in range(self.ambient) if j not in self.pivots]
        m = rzeros((len(free), self.ambient))
        for a, f in enumerate(free):
            m[a, f] = ONE
            for i, p in enumerate(self.pivots):
                m[a, p] = -self.rows[i, f]
        return m

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient
                and self.rows.shape == other.rows.shape
                and bool((self.rows == other.rows).all()))

    def __hash__(self):
        return hash((self.ambient, self.rows.shape))

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")


def annihilator(s: Subspace) -> Subspace:
    """Covectors vanishing on s (same coordinates via the standard pairing)."""
    return Subspace.kernel(s.rows) if s.dim else Subspace.full(s.ambient)


def project_quotient(t: Tensor, h: Subspace) -> Tensor:
    """Push a tensor over g through the canonical surjection g -> g/h."""
    if h.ambient != t.dim:
        raise ValueError("subspace ambient does not match tensor dimension")
    return apply_linear(h.quotient_matrix(), t)


def solve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unique exact solution X of A X = B for A of full column rank;
    raises if the system is inconsistent or underdetermined."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    ncols = a.shape[1]
    aug, pivots = rref(np.hstack([a, b]))
    if any(p >= ncols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    x = rzeros((ncols,) + b.shape[1:])
    for i, p in enumerate(pivots):
        x[p] = aug[i, ncols:]
    return x
