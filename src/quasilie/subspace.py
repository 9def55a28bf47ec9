"""Echelon-form subspace toolkit over the rationals.

A subspace is stored as its reduced row echelon basis, which is a
canonical form: two subspaces are equal iff their matrices are equal.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .tensor import ONE, as_rational, reye, rzeros


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

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def reduce(self, vector: np.ndarray) -> np.ndarray:
        """Remainder of vector after elimination against the echelon basis."""
        v = np.asarray(vector, dtype=object)
        if v.shape != (self.ambient,):
            raise ValueError("vector has wrong ambient dimension")
        # the basis is in RREF, so removing each pivot coordinate times its
        # row is the whole reduction
        return v - v[list(self.pivots)] @ self.rows

    def member(self, vector) -> bool:
        return not self.reduce(vector).any()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection as the annihilator of the sum of the two
        annihilators, (A^perp + B^perp)^perp."""
        self._check_ambient(other)
        return annihilator(Subspace(self.ambient, np.vstack(
            [self.quotient_matrix(), other.quotient_matrix()])))

    def quotient_matrix(self) -> np.ndarray:
        """Matrix of the canonical surjection onto the quotient by this
        subspace; quotient coordinates are the non-pivot coordinates.  Its
        rows are a basis of the annihilator of this subspace."""
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
    return Subspace(s.ambient, s.quotient_matrix())


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
