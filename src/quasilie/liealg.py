"""Lie algebras by structure constants, cocycles, quasi-bialgebra axioms.

Conventions: [e_i, e_j] = sum_k c[i][j][k] e_k, and a cocycle stores
delta(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k with d[i] antisymmetric.
All verdicts carry the first failing witness so test failures point at
a concrete basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, alt_components, as_rational, rzeros, scaled, unscaled

# Largest dim g accepted from input: the double's Jacobi check allocates
# (2 dim)^4 object entries, about 16.8M at 32 (gl(4) is 16, sl(5) is 24).
MAX_DIM = 32


@dataclass
class Verdict:
    ok: bool
    witness: tuple | None = None
    residual: object = None

    def __bool__(self) -> bool:
        return self.ok


def residual_verdict(res: np.ndarray, lead: int | None = None, den: int = 1) -> Verdict:
    """Verdict on `res == 0`.  On failure the witness is the first index,
    in row-major order over the leading `lead` axes (all by default), at
    which `res` is nonzero, and the residual is `res / den` at that index,
    in `Fraction`s; `den` undoes the scaling of an integer kernel."""
    if not res.any():
        return Verdict(True)
    shape = res.shape if lead is None else res.shape[:lead]
    idx = next(i for i in np.ndindex(shape) if np.any(res[i]))
    return Verdict(False, witness=idx, residual=unscaled(res[idx], den))


class LieAlgebra:
    __slots__ = ("dim", "c", "labels")

    def __init__(self, c, labels=None):
        c = np.asarray(c, dtype=object)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValueError("structure constants must be an n^3 cube")
        witness = residual_verdict(c + np.transpose(c, (1, 0, 2))).witness
        if witness is not None:
            raise ValueError("structure constants not antisymmetric at (%d,%d,%d)" % witness)
        self.dim = n
        self.c = c
        self.labels = list(labels) if labels is not None else ["e%d" % i for i in range(n)]

    @classmethod
    def from_brackets(cls, dim: int, entries, labels=None) -> "LieAlgebra":
        """entries: (i, j, k, value) with i < j; antisymmetric completion implied."""
        c = rzeros((dim, dim, dim))
        for i, j, k, val in entries:
            if not i < j:
                raise ValueError("bracket entries must have i < j")
            val = as_rational(val)
            c[i, j, k] += val
            c[j, i, k] -= val
        return cls(c, labels=labels)

    @classmethod
    def abelian(cls, dim: int, labels=None) -> "LieAlgebra":
        return cls(rzeros((dim, dim, dim)), labels=labels)

    def bracket(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=object)
        y = np.asarray(y, dtype=object)
        return np.tensordot(y, np.tensordot(x, self.c, axes=(0, 0)), axes=(0, 0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and bool((self.c == other.c).all()))

    def __repr__(self):
        return "LieAlgebra(dim=%d, labels=%r)" % (self.dim, self.labels)


def check_jacobi(g: LieAlgebra) -> Verdict:
    """Cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0."""
    (c,), den = scaled(g.c)
    t1 = np.tensordot(c, c, axes=(2, 0))   # t1[i,j,k,l] = sum_m c[i,j,m] c[m,k,l]
    jac = t1 + np.transpose(t1, (1, 2, 0, 3)) + np.transpose(t1, (2, 0, 1, 3))
    # jac is totally antisymmetric in (i, j, k), so its first nonzero
    # triple in row-major order is strictly increasing
    return residual_verdict(jac, lead=3, den=den * den)


def closed_under_bracket(g: LieAlgebra, rows) -> Verdict:
    """Closure of a spanning set under the bracket, with membership taken
    against the span itself; bilinearity makes basis pairs sufficient.
    The witness is the first echelon pair (i, j), i < j, whose bracket
    leaves the span, and the residual its remainder against the basis."""
    from .subspace import Subspace
    sub = rows if isinstance(rows, Subspace) else Subspace(g.dim, rows)
    (c, ell), den = scaled(g.c, sub.rows)
    pivots = list(sub.pivots)
    for i in range(sub.dim - 1):
        b = ell[i + 1:] @ np.tensordot(ell[i], c, axes=(0, 0))   # [L_i, L_j], over den^3
        # the basis is in RREF, so removing each pivot coordinate times its
        # row is the whole reduction; over den^4
        v = residual_verdict(den * b - b[:, pivots] @ ell, lead=1, den=den ** 4)
        if not v.ok:
            return Verdict(False, witness=(i, i + 1 + v.witness[0]), residual=v.residual)
    return Verdict(True)


def leibniz_components(a: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Leibniz action of the matrix a on every slot of a degree-k array.
    ad of the basis vector e_i is the matrix c[i].T."""
    out = None
    for axis in range(arr.ndim):
        term = np.moveaxis(np.tensordot(a, arr, axes=(1, axis)), 0, axis)
        out = term if out is None else out + term
    return out


def ad_tensor_components(c: np.ndarray, x, arr: np.ndarray) -> np.ndarray:
    """Leibniz action of ad_x on a degree-k component array."""
    x = np.asarray(x, dtype=object)
    return leibniz_components(np.tensordot(x, c, axes=(0, 0)).T, arr)


def coboundary_components(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """out[i] = ad_{e_i} r for a square matrix r, at the array level."""
    return (np.tensordot(c, r, axes=(1, 0))
            + np.transpose(np.tensordot(c, r, axes=(1, 1)), (0, 2, 1)))


class Cocycle:
    __slots__ = ("algebra", "d")

    def __init__(self, algebra: LieAlgebra, d):
        d = np.asarray(d, dtype=object)
        n = algebra.dim
        if d.shape != (n, n, n):
            raise ValueError("cocycle data must be an n^3 cube")
        witness = residual_verdict(d + np.transpose(d, (0, 2, 1))).witness
        if witness is not None:
            raise ValueError("cocycle image not antisymmetric at %s" % (witness,))
        self.algebra = algebra
        self.d = d

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "Cocycle":
        return cls(algebra, rzeros((algebra.dim,) * 3))

    @classmethod
    def from_entries(cls, algebra: LieAlgebra, entries) -> "Cocycle":
        """entries: (i, j, k, value) with j < k; antisymmetric completion implied."""
        n = algebra.dim
        d = rzeros((n, n, n))
        for i, j, k, val in entries:
            if not j < k:
                raise ValueError("cocycle entries must have j < k")
            val = as_rational(val)
            d[i, j, k] += val
            d[i, k, j] -= val
        return cls(algebra, d)

    @classmethod
    def coboundary(cls, algebra: LieAlgebra, r: Tensor) -> "Cocycle":
        """delta(x) = ad_x r for a bivector r."""
        return cls(algebra, coboundary_components(algebra.c, r.data))

    def delta(self, x) -> Tensor:
        x = np.asarray(x, dtype=object)
        return Tensor(self.algebra.dim, np.tensordot(x, self.d, axes=(0, 0)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cocycle) and self.algebra == other.algebra
                and bool((self.d == other.d).all()))


class QuasiBialgebra:
    """(g, delta, phi) with phi a 3-vector; the axioms are checkable, not
    enforced, so deliberately broken structures can be built for negative
    tests."""

    __slots__ = ("algebra", "delta", "phi")

    def __init__(self, algebra: LieAlgebra, delta: Cocycle, phi: Tensor):
        if delta.algebra.dim != algebra.dim:
            raise ValueError("cocycle is over a different algebra")
        if phi.dim != algebra.dim or phi.degree != 3:
            raise ValueError("phi must be a degree-3 tensor over g")
        if not (phi.antisymmetric or phi.is_antisymmetric()):
            raise ValueError("phi must be antisymmetric")
        self.algebra = algebra
        self.delta = delta
        self.phi = Tensor(phi.dim, phi.data, antisymmetric=True)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuasiBialgebra)
                and self.algebra == other.algebra
                and self.delta == other.delta
                and self.phi == other.phi)


def check_cocycle(delta: Cocycle) -> Verdict:
    """delta([x,y]) = ad_x delta(y) - ad_y delta(x) at all basis pairs."""
    (c, d), den = scaled(delta.algebra.c, delta.d)
    lhs = np.tensordot(c, d, axes=(2, 0))   # lhs[i,j] = delta([e_i, e_j])
    # ad[i,j] = ad_{e_i} delta(e_j), with ad_{e_i} = c[i].T on each slot
    ad = (np.transpose(np.tensordot(c, d, axes=(1, 1)), (0, 2, 1, 3))
          + np.transpose(np.tensordot(c, d, axes=(1, 2)), (0, 2, 3, 1)))
    res = lhs - ad + np.transpose(ad, (1, 0, 2, 3))
    # res is antisymmetric in (i, j), so its first nonzero pair has i < j
    return residual_verdict(res, lead=2, den=den * den)


def check_quasi_cojacobi(qb: QuasiBialgebra) -> Verdict:
    """(1/2) Alt(delta (x) id) delta(x) = ad_x phi at every basis x."""
    (c, d, phi), den = scaled(qb.algebra.c, qb.delta.d, qb.phi.data)
    n = qb.dim
    # both sides times 2 den^2: Alt without the 1/2, against twice ad_{e_i} phi
    res = np.empty((n,) * 4, dtype=object)
    for i in range(n):
        res[i] = (alt_components(delta_id_components(d, d[i]))
                  - 2 * leibniz_components(c[i].T, phi))
    return residual_verdict(res, lead=1, den=2 * den * den)


def check_pentagon(qb: QuasiBialgebra) -> Verdict:
    """Alt(delta (x) id (x) id) phi = 0."""
    (d, phi), den = scaled(qb.delta.d, qb.phi.data)
    res = alt_components(np.tensordot(d, phi, axes=(0, 0)))  # [a,b,j,k], over den^2
    v = residual_verdict(res, den=den * den)
    return v if v.ok else Verdict(False, witness=v.witness, residual=unscaled(res, den * den))


def axiom_report(qb: QuasiBialgebra) -> dict:
    """All four structural checks, never short-circuiting."""
    return {
        "jacobi": check_jacobi(qb.algebra),
        "cocycle": check_cocycle(qb.delta),
        "quasi_cojacobi": check_quasi_cojacobi(qb),
        "pentagon": check_pentagon(qb),
    }


def cyb_components(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """[r12,r13] + [r12,r23] + [r13,r23] expanded through the structure
    constants, for any square matrix r of `Fraction`s or ints (a bivector,
    or the symmetric Omega of `manin_quasi_triple`)."""
    # t1[a,b,c] = sum_{i,k} r[i,b] r[k,c] c[i,k,a]
    u = np.tensordot(r, c, axes=(0, 0))            # u[b,k,a]
    t1 = np.transpose(np.tensordot(r, u, axes=(0, 1)), (2, 1, 0))
    # t2[a,b,c] = sum_{j,k} r[a,j] r[k,c] c[j,k,b]
    u = np.tensordot(r, c, axes=(1, 0))            # u[a,k,b]
    t2 = np.transpose(np.tensordot(r, u, axes=(0, 1)), (1, 2, 0))
    # t3[a,b,c] = sum_{j,l} r[a,j] r[b,l] c[j,l,c]
    u = np.tensordot(r, c, axes=(1, 0))            # u[a,l,c]
    t3 = np.transpose(np.tensordot(r, u, axes=(1, 1)), (1, 0, 2))
    return t1 + t2 + t3


def cyb(g: LieAlgebra, r: Tensor) -> Tensor:
    """Classical Yang-Baxter expression of a bivector, as a 3-tensor."""
    if r.dim != g.dim or r.degree != 2:
        raise ValueError("cyb expects a degree-2 tensor over g")
    (c, ri), den = scaled(g.c, r.data)
    # antisymmetry of r and of the bracket alone make CYB(r) antisymmetric
    return Tensor(g.dim, unscaled(cyb_components(c, ri), den ** 3),
                  antisymmetric=r.antisymmetric or r.is_antisymmetric())


def delta_id_components(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(delta (x) id) r at the array level."""
    return np.transpose(np.tensordot(r, d, axes=(0, 0)), (1, 2, 0))


def half_alt_delta_components(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(1/2) Alt((delta (x) id) r) at the array level: the sum of the three
    cyclic rotations, since (delta (x) id) r is antisymmetric in its first
    two slots."""
    t = delta_id_components(d, r)
    return t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1))


def half_alt_delta(delta: Cocycle, r: Tensor) -> Tensor:
    if r.dim != delta.algebra.dim or r.degree != 2:
        raise ValueError("expected a degree-2 tensor over g")
    return Tensor(r.dim, half_alt_delta_components(delta.d, r.data), antisymmetric=True)
