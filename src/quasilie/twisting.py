"""Twisting of quasi-bialgebras by a bivector r, the induced isomorphism
of doubles, the transported homogeneous data, and the twist-equation
polynomial system.

Sign convention for the double isomorphism: the map sends a + l to
a + l + (id (x) l) r, i.e. the off-diagonal block of its matrix is r
itself.  With this orientation the bracket and Q certificates hold and
a graph Lagrangian with bivector v is carried to the graph of v - r,
matching the transported datum (h, r_d - r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .double import (DoubleAlgebra, build_double, certify_bracket_map,
                     certify_form_map)
from .homogeneous import HomDatum, is_quasi_poisson_datum
from .liealg import (Cocycle, QuasiBialgebra, Verdict, cyb, cyb_components,
                     half_alt_delta, half_alt_delta_components)
from .subspace import Subspace
from .tensor import Tensor, as_rational, reye


def twist(qb: QuasiBialgebra, r: Tensor) -> QuasiBialgebra:
    """(delta, phi) -> (delta + ad_. r, phi + (1/2)Alt(delta (x) id)r - CYB(r))."""
    g = qb.algebra
    n = g.dim
    if r.dim != n or r.degree != 2:
        raise ValueError("twist expects a bivector over g")
    if not (r.antisymmetric or r.is_antisymmetric()):
        raise ValueError("twist bivector must be antisymmetric")
    d_new = qb.delta.d + Cocycle.coboundary(g, r).d
    phi_new = qb.phi + half_alt_delta(qb.delta, r) - cyb(g, r)
    return QuasiBialgebra(g, Cocycle(g, d_new), phi_new)


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


@dataclass
class ComposeReport:
    delta_additive: bool
    phi_additive: bool
    matrix_law: bool


def compose_twists(qb: QuasiBialgebra, r: Tensor, s: Tensor) -> ComposeReport:
    """Compare twisting by r then s against twisting by r + s.  The
    matrix law is forced algebraically; additivity of (delta, phi) is
    reported as evidence, not presumed."""
    two_step = twist(twist(qb, r), s)
    one_step = twist(qb, r + s)
    m_two = f_r_matrix(qb, s) @ f_r_matrix(qb, r)
    m_one = f_r_matrix(qb, r + s)
    matrix_law = not (m_two - m_one).any()
    assert matrix_law, "unipotent block matrices must compose additively"
    return ComposeReport(
        delta_additive=bool((two_step.delta.d == one_step.delta.d).all()),
        phi_additive=two_step.phi == one_step.phi,
        matrix_law=matrix_law,
    )


def twist_datum(d: HomDatum, r: Tensor) -> HomDatum:
    """Transport a datum to the twisted quasi-bialgebra: (h, r_d - r).
    The double isomorphism must carry the old Lagrangian onto the new
    one, and the classification verdict must be preserved."""
    new = HomDatum(twist(d.qb, r), d.h, d.r - r)
    old, moved = is_quasi_poisson_datum(d), is_quasi_poisson_datum(new)
    m = f_r_matrix(d.qb, r)
    image = Subspace(2 * d.qb.dim, [m @ row for row in old.span.rows])
    assert image == moved.span, "twist must carry the Lagrangian onto its transport"
    assert old.verdict == moved.verdict
    return new


class Poly:
    """Polynomial with rational coefficients; monomials are sorted
    variable-name tuples (repetition encodes powers)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    self.terms[tuple(mono)] = coef

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({(name,): Fraction(1)})

    @classmethod
    def const(cls, value) -> "Poly":
        value = as_rational(value)
        return cls({(): value} if value else {})

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        return Poly.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coef
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == self._coerce(other).terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def evaluate(self, env: dict) -> Fraction:
        total = Fraction(0)
        for mono, coef in self.terms.items():
            v = coef
            for name in mono:
                v *= env[name]
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = ["%s*%s" % (c, "*".join(m) if m else "1")
                for m, c in sorted(self.terms.items())]
        return "Poly(%s)" % " + ".join(bits)


def unknown_name(i: int, j: int) -> str:
    return "r_%d_%d" % (i, j)


@dataclass
class TwistEquationSystem:
    """Quadratic system in the independent bivector components whose
    solutions are exactly the r with CYB(r) - (1/2)Alt(delta (x) id)r = phi."""

    qb: QuasiBialgebra
    unknowns: list
    equations: list          # one Poly per increasing index triple
    triples: list

    def residual(self, r: Tensor) -> Tensor:
        """Direct evaluation of CYB(r) - (1/2)Alt(delta (x) id)r - phi."""
        return cyb(self.qb.algebra, r) - half_alt_delta(self.qb.delta, r) - self.qb.phi

    def evaluate(self, r: Tensor) -> list:
        env = {unknown_name(i, j): r.data[i, j]
               for i in range(r.dim) for j in range(i + 1, r.dim)}
        return [p.evaluate(env) for p in self.equations]

    def as_dict(self) -> dict:
        eqs = []
        for p in self.equations:
            monos = [{"vars": list(m), "coef": str(c)}
                     for m, c in sorted(p.terms.items())]
            eqs.append({"monomials": monos})
        return {"unknowns": list(self.unknowns), "equations": eqs}


def twist_equations(qb: QuasiBialgebra) -> TwistEquationSystem:
    n = qb.dim
    unknowns = [unknown_name(i, j) for i in range(n) for j in range(i + 1, n)]
    rp = np.empty((n, n), dtype=object)
    rp[...] = Poly.const(0)
    for i in range(n):
        for j in range(i + 1, n):
            v = Poly.var(unknown_name(i, j))
            rp[i, j] = v
            rp[j, i] = -v
    lhs = cyb_components(qb.algebra.c, rp) - half_alt_delta_components(qb.delta.d, rp)
    equations, triples = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                p = Poly._coerce(lhs[i, j, k]) - qb.phi.data[i, j, k]
                equations.append(p)
                triples.append((i, j, k))
    return TwistEquationSystem(qb=qb, unknowns=unknowns,
                               equations=equations, triples=triples)
