"""Twisting of quasi-bialgebras by a bivector r, the induced isomorphism
of doubles, the transported homogeneous data, and the twist-equation
system: one {monomial: coefficient} per increasing index triple, read
off the nonzeros of c, delta and phi.

Sign convention for the double isomorphism: the map sends a + l to
a + l + (id (x) l) r, i.e. the off-diagonal block of its matrix is r
itself.  With this orientation the bracket and Q certificates hold and
a graph Lagrangian with bivector v is carried to the graph of v - r,
matching the transported datum (h, r_d - r).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .double import (DoubleAlgebra, build_double, certify_bracket_map,
                     certify_form_map)
from .homogeneous import HomDatum
from .liealg import (Cocycle, QuasiBialgebra, Verdict, coboundary_components, cyb,
                     cyb_components, half_alt_delta, half_alt_delta_components)
from .tensor import ZERO, Tensor, reye, scaled, unscaled


def twist(qb: QuasiBialgebra, r: Tensor) -> QuasiBialgebra:
    """(delta, phi) -> (delta + ad_. r, phi + (1/2)Alt(delta (x) id)r - CYB(r))."""
    g = qb.algebra
    n = g.dim
    if r.dim != n or r.degree != 2:
        raise ValueError("twist expects a bivector over g")
    if not (r.antisymmetric or r.is_antisymmetric()):
        raise ValueError("twist bivector must be antisymmetric")
    (c, d, phi, ri), den = scaled(g.c, qb.delta.d, qb.phi.data, r.data)
    d_new = den * d + coboundary_components(c, ri)                  # over den^2
    phi_new = (den * (den * phi + half_alt_delta_components(d, ri))
               - cyb_components(c, ri))                             # over den^3
    return QuasiBialgebra(g, Cocycle(g, unscaled(d_new, den ** 2)),
                          Tensor(n, unscaled(phi_new, den ** 3), antisymmetric=True))


def f_r_matrix(qb: QuasiBialgebra, r: Tensor) -> np.ndarray:
    """Unipotent block matrix [[I, R], [0, I]] in (g, g*) coordinates,
    where R sends a covector l to (id (x) l) r."""
    n = qb.dim
    m = reye(2 * n)
    m[:n, n:] = r.data
    return m


def certify_double_map(src: DoubleAlgebra, dst: DoubleAlgebra, m: np.ndarray):
    """Certify that m intertwines the brackets, carries Q to Q, and fixes
    every element of g.  Returns three verdicts."""
    bracket = certify_bracket_map(src.algebra, dst.algebra, m)
    form = certify_form_map(src.q, dst.q, m)
    fixes = Verdict(not (m[:, :src.n] - reye(src.dim)[:, :src.n]).any())
    return bracket, form, fixes


@dataclass
class TwistReport:
    source: QuasiBialgebra
    target: QuasiBialgebra
    r: Tensor
    matrix: np.ndarray
    bracket_ok: Verdict
    q_ok: Verdict
    fixes_g: Verdict

    @property
    def ok(self) -> bool:
        return self.bracket_ok.ok and self.q_ok.ok and self.fixes_g.ok

    def __bool__(self) -> bool:
        return self.ok


def check_twist_iso(qb: QuasiBialgebra, r: Tensor) -> TwistReport:
    target = twist(qb, r)
    m = f_r_matrix(qb, r)
    bracket, form, fixes = certify_double_map(build_double(qb), build_double(target), m)
    return TwistReport(source=qb, target=target, r=r, matrix=m,
                       bracket_ok=bracket, q_ok=form, fixes_g=fixes)


def twist_datum(d: HomDatum, r: Tensor) -> HomDatum:
    """Transport a datum to the twisted quasi-bialgebra: (h, r_d - r).
    `f_r_matrix` carries the Dirac span of d onto that of the result, so
    the classification verdict is unchanged."""
    return HomDatum(twist(d.qb, r), d.h, d.r - r)


def unknown_name(i: int, j: int) -> str:
    return "r_%d_%d" % (i, j)


@dataclass
class TwistEquationSystem:
    """Quadratic system in the independent bivector components whose
    solutions are exactly the r with CYB(r) - (1/2)Alt(delta (x) id)r = phi."""

    qb: QuasiBialgebra
    unknowns: list
    equations: list          # one {monomial: coefficient} per increasing index triple
    triples: list

    def residual(self, r: Tensor) -> Tensor:
        """Direct evaluation of CYB(r) - (1/2)Alt(delta (x) id)r - phi."""
        return cyb(self.qb.algebra, r) - half_alt_delta(self.qb.delta, r) - self.qb.phi

    def evaluate(self, r: Tensor) -> list:
        n = self.qb.dim
        if r.dim != n or r.degree != 2:
            raise ValueError("evaluate expects a degree-2 tensor over g")
        env = {unknown_name(i, j): r.data[i, j] for i, j in combinations(range(n), 2)}
        return [sum((coef * prod(env[v] for v in mono) for mono, coef in eq.items()), ZERO)
                for eq in self.equations]

    def as_dict(self) -> dict:
        eqs = [{"monomials": [{"vars": list(m), "coef": str(c)} for m, c in sorted(eq.items())]}
               for eq in self.equations]
        return {"unknowns": list(self.unknowns), "equations": eqs}


def twist_equations(qb: QuasiBialgebra) -> TwistEquationSystem:
    """Read the system off the nonzeros of phi (constant), c (quadratic)
    and delta (linear).  A monomial is the name-sorted tuple of its
    unknowns."""
    n, c, d, phi = qb.dim, qb.algebra.c, qb.delta.d, qb.phi.data
    pairs = list(combinations(range(n), 2))
    unknowns = [unknown_name(i, j) for i, j in pairs]
    entry = {}  # r[x, y] = sign * name
    for name, (i, j) in zip(unknowns, pairs):
        entry[i, j], entry[j, i] = (name, 1), (name, -1)
    triples = list(combinations(range(n), 3))
    eqs = {t: {(): -phi[t]} if phi[t] else {} for t in triples}

    def add(t, mono, coef):
        eq = eqs[t]
        eq[mono] = eq.get(mono, ZERO) + coef

    # CYB[a,b,c] = sum r[i,b] r[k,c] c[i,k,a] + r[a,j] r[k,c] c[j,k,b]
    #            + r[a,j] r[b,l] c[j,l,c]: each nonzero c[p,q,s] multiplies
    # r[p,x] r[q,y] placed at (s,x,y), -(x,s,y) or (x,y,s), whichever increases
    for p, q, s in np.argwhere(c).tolist():
        v = c[p, q, s]
        for x, y in pairs:
            if x == p or y == q or s in (x, y):
                continue
            (n1, sign1), (n2, sign2) = entry[p, x], entry[q, y]
            w = v if sign1 == sign2 else -v
            mono = (n1, n2) if n1 <= n2 else (n2, n1)
            if s < x:
                add((s, x, y), mono, w)
            elif s < y:
                add((x, s, y), mono, -w)
            else:
                add((x, y, s), mono, w)
    # -(1/2)Alt(delta (x) id)r = -(t[a,b,c] + t[b,c,a] + t[c,a,b]) with
    # t[a,b,c] = sum r[i,c] d[i,a,b]: each nonzero d[i,p,q] multiplies -r[i,x]
    # at the increasing rotation of (p,q,x), if any
    for i, p, q in np.argwhere(d).tolist():
        v = d[i, p, q]
        for x in range(n):
            if x == i:
                continue
            name, sign = entry[i, x]
            for t in ((p, q, x), (x, p, q), (q, x, p)):
                if t[0] < t[1] < t[2]:
                    add(t, (name,), -v if sign > 0 else v)
    equations = [{m: v for m, v in eqs[t].items() if v} for t in triples]
    return TwistEquationSystem(qb=qb, unknowns=unknowns,
                               equations=equations, triples=triples)
