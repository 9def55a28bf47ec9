"""Homogeneous-space germs (h, r): the attached Lagrangian subspace,
the obstruction 3-tensor, and the stability residuals.

The stability condition is implemented at the infinitesimal level, as
vanishing of delta(a) + ad_a r in the exterior square of g/h for every
a in h.  This is the implementer's reduction of the group-equivariance
requirement; `ad_stable_direct` performs the ground-truth test through
the double bracket, and the two are held equivalent by the test suite,
never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .double import (DoubleAlgebra, build_double, intersect_with_g,
                     is_lagrangian, is_subalgebra)
from .liealg import (QuasiBialgebra, Verdict, closed_under_bracket, cyb_components,
                     half_alt_delta_components, leibniz_components)
from .subspace import Subspace
from .tensor import Tensor, push_components, rzeros, scaled, unscaled


class HomDatum:
    """A subalgebra h of g plus a bivector representative r; only the
    class of r in the exterior square of g/h matters."""

    __slots__ = ("qb", "h", "r")

    def __init__(self, qb: QuasiBialgebra, h: Subspace, r: Tensor):
        n = qb.dim
        if h.ambient != n:
            raise ValueError("h must be a subspace of g")
        if r.dim != n or r.degree != 2:
            raise ValueError("r must be a bivector over g")
        if not (r.antisymmetric or r.is_antisymmetric()):
            raise ValueError("r must be antisymmetric")
        self.qb = qb
        self.h = h
        self.r = Tensor(n, r.data, antisymmetric=True)


def h_subalgebra(d: HomDatum) -> Verdict:
    """Closure of h under the bracket of g."""
    return closed_under_bracket(d.qb.algebra, d.h)


def dirac_span(d: HomDatum) -> Subspace:
    """span{ l + R(l) : l in the annihilator of h } + h inside the double,
    with R(l) = (l (x) id) r.  Defined for any subspace h; the rows of
    the quotient matrix of h span its annihilator."""
    q = d.h.quotient_matrix()
    return Subspace(2 * d.qb.dim, np.block([[q @ d.r.data, q],
                                            [d.h.rows, rzeros(d.h.rows.shape)]]))


def obstruction(d: HomDatum) -> Tensor:
    """Image of phi - CYB(r) + (1/2) Alt(delta (x) id) r in the exterior
    cube of g/h.  On integers the 3-tensor is over den^3 and each slot's
    push through the quotient matrix adds one den, so the image is over
    den^6."""
    qb = d.qb
    (c, dd, phi, r, m), den = scaled(qb.algebra.c, qb.delta.d, qb.phi.data,
                                     d.r.data, d.h.quotient_matrix())
    t = den * (den * phi + half_alt_delta_components(dd, r)) - cyb_components(c, r)
    return Tensor(m.shape[0], unscaled(push_components(m, t), den ** 6),
                  antisymmetric=True)


def stability_residuals(d: HomDatum) -> list[Tensor]:
    """Image of delta(a) + ad_a r in the exterior square of g/h, one
    residual per basis vector a of h.  On integers each bivector is over
    den^3 and its image over den^5."""
    qb = d.qb
    (c, dd, r, h, m), den = scaled(qb.algebra.c, qb.delta.d, d.r.data,
                                   d.h.rows, d.h.quotient_matrix())
    out = []
    for a in h:
        t = (den * np.tensordot(a, dd, axes=(0, 0))
             + leibniz_components(np.tensordot(a, c, axes=(0, 0)).T, r))
        out.append(Tensor(m.shape[0], unscaled(push_components(m, t), den ** 5)))
    return out


def ad_stable_direct(d: HomDatum, dbl: DoubleAlgebra | None = None) -> bool:
    """Ground truth for stability: ad_a(L) inside L for every a in h,
    computed through the double bracket."""
    dbl = dbl if dbl is not None else build_double(d.qb)
    sub = dirac_span(d)
    for j in range(d.h.dim):
        a = dbl.embed_g(d.h.rows[j])
        for i in range(sub.dim):
            if not sub.member(dbl.algebra.bracket(a, sub.rows[i])):
                return False
    return True


@dataclass
class DatumReport:
    """The classification of one datum, together with the objects its
    checks were read from: the double, the Dirac span L, the obstruction,
    the stability residuals and the closure verdict of L."""

    double: DoubleAlgebra
    span: Subspace
    h_subalgebra: bool
    residuals: list[Tensor]
    obstruction: Tensor
    lagrangian: bool
    span_closure: Verdict

    @property
    def stable(self) -> bool:
        return all(t.is_zero() for t in self.residuals)

    @property
    def obstruction_zero(self) -> bool:
        return self.obstruction.is_zero()

    @property
    def subalgebra(self) -> bool:
        return self.span_closure.ok

    @property
    def verdict(self) -> bool:
        return (self.h_subalgebra and self.stable
                and self.lagrangian and self.subalgebra)

    def as_dict(self) -> dict:
        return {
            "h_subalgebra": self.h_subalgebra,
            "stable": self.stable,
            "obstruction_zero": self.obstruction_zero,
            "lagrangian": self.lagrangian,
            "subalgebra": self.subalgebra,
            "verdict": self.verdict,
        }


def is_quasi_poisson_datum(d: HomDatum, dbl: DoubleAlgebra | None = None) -> DatumReport:
    """Full classification report; all sub-checks always run so negative
    tests can assert the exact failure pattern."""
    dbl = dbl if dbl is not None else build_double(d.qb)
    sub = dirac_span(d)
    return DatumReport(
        double=dbl,
        span=sub,
        h_subalgebra=h_subalgebra(d).ok,
        residuals=stability_residuals(d),
        obstruction=obstruction(d),
        lagrangian=is_lagrangian(dbl, sub) and intersect_with_g(dbl, sub) == d.h,
        span_closure=is_subalgebra(dbl, sub),
    )
