"""The double g + g* of a quasi-bialgebra: bracket, invariant form Q,
and the Lagrangian / subalgebra machinery on its subspaces.

Basis order in the double is (e_0..e_{n-1}, e^0..e^{n-1}); the dual
basis vector e^i sits at coordinate n+i, which makes Q the
block-antidiagonal identity pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import (LieAlgebra, QuasiBialgebra, Verdict, check_jacobi,
                     closed_under_bracket, residual_verdict)
from .subspace import Subspace, solve_exact
from .tensor import Tensor, reye, rzeros, scaled


class DoubleAlgebra:
    __slots__ = ("source", "algebra", "q")

    def __init__(self, source: QuasiBialgebra, algebra: LieAlgebra, q: np.ndarray):
        self.source = source
        self.algebra = algebra
        self.q = q

    @property
    def n(self) -> int:
        return self.source.dim

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def g_subspace(self) -> Subspace:
        return Subspace(self.dim, reye(self.dim)[:self.n])

    def dual_subspace(self) -> Subspace:
        return Subspace(self.dim, reye(self.dim)[self.n:])

    def embed_g(self, vector) -> np.ndarray:
        out = rzeros((self.dim,))
        out[:self.n] = np.asarray(vector, dtype=object)
        return out

    def embed_dual(self, covector) -> np.ndarray:
        out = rzeros((self.dim,))
        out[self.n:] = np.asarray(covector, dtype=object)
        return out


def build_double(qb: QuasiBialgebra) -> DoubleAlgebra:
    """Structure constants of the double from the three bracket rules:
    g x g is the given bracket, dual x dual is the delta-bracket minus the
    phi contraction, and mixed pairs are the two coadjoint actions.
    Invalid sources are accepted; axiom status is reported, not enforced."""
    n = qb.dim
    c, d, phi = qb.algebra.c, qb.delta.d, qb.phi.data
    full = rzeros((2 * n, 2 * n, 2 * n))
    full[:n, :n, :n] = c
    full[n:, n:, n:] = np.transpose(d, (1, 2, 0))       # [l,m]_delta component
    full[n:, n:, :n] = -phi                             # -(l (x) m (x) id) phi
    full[:n, n:, n:] = -np.transpose(c, (0, 2, 1))      # coad_a l
    full[:n, n:, :n] = d                                # -coad_l a
    full[n:, :n, :n] = -np.transpose(full[:n, n:, :n], (1, 0, 2))
    full[n:, :n, n:] = -np.transpose(full[:n, n:, n:], (1, 0, 2))
    q = rzeros((2 * n, 2 * n))
    q[:n, n:] = q[n:, :n] = reye(n)
    labels = list(qb.algebra.labels) + [lab + "*" for lab in qb.algebra.labels]
    return DoubleAlgebra(qb, LieAlgebra(full, labels=labels), q)


@dataclass
class DoubleAxiomReport:
    jacobi: Verdict
    q_invariance: Verdict

    @property
    def ok(self) -> bool:
        return self.jacobi.ok and self.q_invariance.ok

    def __bool__(self) -> bool:
        return self.ok


def check_double_axioms(dbl: DoubleAlgebra) -> DoubleAxiomReport:
    """Jacobi plus Q([x,y],z) + Q(y,[x,z]) = 0 at every basis triple."""
    jac = check_jacobi(dbl.algebra)
    (c, q), den = scaled(dbl.algebra.c, dbl.q)
    qc = np.tensordot(c, q, axes=(2, 0))   # Q([e_a,e_b], e_c), over den^2
    qv = residual_verdict(qc + np.transpose(qc, (0, 2, 1)), den=den * den)
    return DoubleAxiomReport(jacobi=jac, q_invariance=qv)


def is_isotropic(dbl: DoubleAlgebra, sub: Subspace) -> bool:
    if sub.ambient != dbl.dim:
        raise ValueError("subspace lives in a different ambient space")
    gram = sub.rows @ dbl.q @ sub.rows.T
    return not gram.any()


def is_lagrangian(dbl: DoubleAlgebra, sub: Subspace) -> bool:
    return sub.dim == dbl.n and is_isotropic(dbl, sub)


def is_subalgebra(dbl: DoubleAlgebra, sub: Subspace) -> Verdict:
    """Closure of the echelon basis under the double bracket."""
    if sub.ambient != dbl.dim:
        raise ValueError("subspace lives in a different ambient space")
    return closed_under_bracket(dbl.algebra, sub)


def certify_bracket_map(src: LieAlgebra, dst: LieAlgebra, m: np.ndarray) -> Verdict:
    """m([x,y]_src) = [m x, m y]_dst at every basis pair."""
    (cs, cd, m), den = scaled(src.c, dst.c, m)
    lhs = den * np.tensordot(cs, m, axes=(2, 1))   # both sides over den^3
    u = np.tensordot(m, cd, axes=(0, 0))
    rhs = np.transpose(np.tensordot(m, u, axes=(0, 1)), (1, 0, 2))
    return residual_verdict(lhs - rhs, lead=2, den=den ** 3)


def certify_form_map(q_src: np.ndarray, q_dst: np.ndarray, m: np.ndarray) -> Verdict:
    """q_dst(m u, m v) = q_src(u, v)."""
    return residual_verdict(m.T @ q_dst @ m - q_src)


def intersect_with_g(dbl: DoubleAlgebra, sub: Subspace) -> Subspace:
    """L intersect g, expressed as a subspace of g."""
    inter = sub.intersect(dbl.g_subspace())
    return Subspace(dbl.n, inter.rows[:, :dbl.n])


def bivector_from_lagrangian(dbl: DoubleAlgebra, sub: Subspace, h: Subspace) -> Tensor:
    """Inverse of `dirac_span`: recover the bivector class over g/h from
    a Lagrangian subspace with L intersect g = h."""
    if not is_lagrangian(dbl, sub):
        raise ValueError("not Lagrangian")
    if intersect_with_g(dbl, sub) != h:
        raise ValueError("L intersect g differs from h")
    n = dbl.n
    m = h.quotient_matrix()
    free = [j for j in range(n) if j not in h.pivots]
    # each basis row (u | w) of L gives the equation wbar . v = (m u)
    wbar = rzeros((sub.dim, len(free)))
    ubar = rzeros((sub.dim, len(free)))
    for s in range(sub.dim):
        u, w = sub.rows[s, :n], sub.rows[s, n:]
        for a, f in enumerate(free):
            wbar[s, a] = w[f]
        ubar[s] = m @ u
    v = solve_exact(wbar, ubar) if free else rzeros((0, 0))
    # antisymmetric because L is Lagrangian
    return Tensor(len(free), v, antisymmetric=True)
