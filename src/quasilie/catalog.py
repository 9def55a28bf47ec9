"""Built-in example quasi-bialgebras and homogeneous data, plus the
quasi-triple construction for a quadratic Lie algebra and its graph
Lagrangians in g x g.

Fixed conventions: sl2 has basis (e, h, f) with [h,e] = 2e, [h,f] = -2f,
[e,f] = h; the affine line algebra has basis (x, y) with [x,y] = y; so3
has basis (x, y, z) with [x,y] = z, [y,z] = x, [z,x] = y.  A graph
Lagrangian is built only after its automorphism is validated; its
algebraic properties (isotropy, closure, fixed-point intersection) are
theorems, and nothing geometric is verified here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .double import certify_bracket_map, certify_form_map
from .homogeneous import HomDatum
from .liealg import (MAX_DIM, Cocycle, LieAlgebra, QuasiBialgebra, Verdict,
                     cyb_components, residual_verdict)
from .subspace import Subspace, annihilator, rref, solve_exact
from .tensor import Tensor, ONE, as_rational, rarray, reye, rzeros, scaled, unscaled

HALF = Fraction(1, 2)


def sl2() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, [
        (0, 1, 0, -2),   # [e,h] = -2e
        (0, 2, 1, 1),    # [e,f] = h
        (1, 2, 2, -2),   # [h,f] = -2f
    ], labels=["e", "h", "f"])


def aff1() -> LieAlgebra:
    return LieAlgebra.from_brackets(2, [(0, 1, 1, 1)], labels=["x", "y"])


def so3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, [
        (0, 1, 2, 1),    # [x,y] = z
        (1, 2, 0, 1),    # [y,z] = x
        (0, 2, 1, -1),   # [x,z] = -y
    ], labels=["x", "y", "z"])


class QuadraticLieAlgebra:
    """Lie algebra with a nondegenerate invariant symmetric bilinear form."""

    __slots__ = ("algebra", "b", "b_inv")

    def __init__(self, algebra: LieAlgebra, b):
        b = np.asarray(b, dtype=object)
        n = algebra.dim
        if b.shape != (n, n):
            raise ValueError("form matrix must be n x n")
        if (b != b.T).any():
            raise ValueError("form is not symmetric")
        t = np.tensordot(algebra.c, b, axes=(2, 0))
        witness = residual_verdict(t + np.transpose(t, (0, 2, 1))).witness
        if witness is not None:
            raise ValueError("form is not invariant at basis triple %s" % (witness,))
        try:
            self.b_inv = solve_exact(b, reye(n))
        except ValueError:
            raise ValueError("form is degenerate") from None
        self.algebra = algebra
        self.b = b

    def omega(self) -> Tensor:
        """The inverse form as a symmetric 2-tensor."""
        return Tensor(self.algebra.dim, self.b_inv)


def sl2_trace_form() -> QuadraticLieAlgebra:
    b = rarray([[0, 0, 1], [0, 2, 0], [1, 0, 0]])
    return QuadraticLieAlgebra(sl2(), b)


def so3_standard_form() -> QuadraticLieAlgebra:
    return QuadraticLieAlgebra(so3(), reye(3))


def manin_quasi_triple(q: QuadraticLieAlgebra) -> QuasiBialgebra:
    """delta = 0 and phi = -CYB(Omega) for Omega the inverse form; the
    three-term bracket expression is applied verbatim to the symmetric
    Omega.  phi is antisymmetric because the form is symmetric and
    invariant (`QuadraticLieAlgebra` checks both), and ad-invariant when
    g also satisfies Jacobi; tests/test_catalog.py checks both claims."""
    g = q.algebra
    (c, omega), den = scaled(g.c, q.b_inv)
    phi = Tensor(g.dim, unscaled(-cyb_components(c, omega), den ** 3), antisymmetric=True)
    return QuasiBialgebra(g, Cocycle.zero(g), phi)


def product_algebra(q: QuadraticLieAlgebra):
    """g x g with the split form ((a,b),(c,d)) -> (1/2)((a|c) - (b|d))."""
    g = q.algebra
    n = g.dim
    c = rzeros((2 * n,) * 3)
    c[:n, :n, :n] = g.c
    c[n:, n:, n:] = g.c
    labels = [lab + "_1" for lab in g.labels] + [lab + "_2" for lab in g.labels]
    form = rzeros((2 * n, 2 * n))
    form[:n, :n] = HALF * q.b
    form[n:, n:] = -HALF * q.b
    return LieAlgebra(c, labels=labels), form


def diagonal_subspace(n: int) -> Subspace:
    return Subspace(2 * n, np.hstack([reye(n), reye(n)]))


@dataclass
class ProductModelReport:
    map_matrix: np.ndarray
    bracket_ok: Verdict
    form_ok: Verdict
    diagonal_ok: bool

    @property
    def ok(self) -> bool:
        return self.bracket_ok.ok and self.form_ok.ok and self.diagonal_ok

    def __bool__(self) -> bool:
        return self.ok


def product_double_model(q: QuadraticLieAlgebra) -> ProductModelReport:
    """Certify the model of the double inside g x g: a + l goes to
    (a + x_l, a - x_l) with x_l the B-dual of l, carrying Q to the split
    form and g onto the diagonal."""
    from .double import build_double
    g = q.algebra
    n = g.dim
    dbl = build_double(manin_quasi_triple(q))
    prod, form = product_algebra(q)
    psi = np.block([[reye(n), q.b_inv], [reye(n), -q.b_inv]])
    bracket_ok = certify_bracket_map(dbl.algebra, prod, psi)
    form_ok = certify_form_map(dbl.q, form, psi)
    image_of_g = Subspace(2 * n, [psi[:, i] for i in range(n)])
    diagonal_ok = image_of_g == diagonal_subspace(n)
    return ProductModelReport(map_matrix=psi, bracket_ok=bracket_ok,
                              form_ok=form_ok, diagonal_ok=diagonal_ok)


def graph_subspace(a: np.ndarray) -> Subspace:
    """{(x, Ax)} inside g x g, with no validation of A."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    return Subspace(2 * n, np.hstack([reye(n), a.T]))


def is_automorphism(g: LieAlgebra, a: np.ndarray) -> Verdict:
    """A[x,y] = [Ax, Ay] at every basis pair, A invertible."""
    a = np.asarray(a, dtype=object)
    _, pivots = rref(a)
    if len(pivots) < g.dim:
        return Verdict(False, witness=(), residual=None)
    return certify_bracket_map(g, g, a)


def is_b_orthogonal(q: QuadraticLieAlgebra, a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=object)
    return not (a.T @ q.b @ a - q.b).any()


def fixed_point_diagonal(a: np.ndarray) -> Subspace:
    """{(x, x) : Ax = x} as a subspace of g x g."""
    a = np.asarray(a, dtype=object)
    n = a.shape[0]
    fixed = annihilator(Subspace(n, a - reye(n)))
    return Subspace(2 * n, np.hstack([fixed.rows, fixed.rows]))


def graph_lagrangian(q: QuadraticLieAlgebra, a) -> Subspace:
    """Graph of a form-preserving automorphism: a Lagrangian subalgebra of
    g x g whose intersection with the diagonal is the fixed-point
    subalgebra.  Only the automorphism is validated; the three properties
    of its graph are theorems, checked by tests/test_catalog.py."""
    a = np.asarray(a, dtype=object)
    auto = is_automorphism(q.algebra, a)
    if not auto.ok:
        raise ValueError("matrix is not a Lie algebra automorphism (witness %s)"
                         % (auto.witness,))
    if not is_b_orthogonal(q, a):
        raise ValueError("matrix does not preserve the bilinear form")
    return graph_subspace(a)


def sl2_scaling_automorphism(t) -> np.ndarray:
    """e -> t^2 e, h -> h, f -> t^-2 f."""
    t = as_rational(t)
    if t == 0:
        raise ValueError("scaling parameter must be nonzero")
    a = rzeros((3, 3))
    a[0, 0] = t * t
    a[1, 1] = ONE
    a[2, 2] = 1 / (t * t)
    return a


def sl2_weyl_automorphism() -> np.ndarray:
    """e -> f, f -> e, h -> -h."""
    a = rzeros((3, 3))
    a[2, 0] = ONE
    a[0, 2] = ONE
    a[1, 1] = -ONE
    return a


@dataclass
class CatalogEntry:
    name: str
    algebra: QuasiBialgebra
    datums: dict = field(default_factory=dict)
    subalgebras: list = field(default_factory=list)
    quadratic: QuadraticLieAlgebra | None = None


def canonical_names() -> list:
    return ["abelian(3)", "aff1", "sl2_coboundary", "sl2_invariant_phi(1)",
            "manin_sl2_trace", "manin_so3"]


def fixture_stem(name: str) -> str:
    return name.replace("(", "_").replace(")", "").replace("/", "_").replace("-", "m")


def _span(vectors, n) -> Subspace:
    return Subspace(n, rarray(vectors))


def _zero_r(n: int) -> Tensor:
    return Tensor.zero(n, 2)


def _standard_datums(qb: QuasiBialgebra) -> dict:
    n = qb.dim
    return {
        "point": HomDatum(qb, Subspace.full(n), _zero_r(n)),
        "zero": HomDatum(qb, Subspace.zero(n), _zero_r(n)),
    }


def _sl2_subalgebras() -> list:
    return [
        Subspace.zero(3),
        _span([[1, 0, 0]], 3),            # span(e)
        _span([[0, 1, 0]], 3),            # span(h)
        _span([[0, 0, 1]], 3),            # span(f)
        _span([[1, 0, 1]], 3),            # span(e+f)
        _span([[1, 0, 0], [0, 1, 0]], 3), # borel(e,h)
        _span([[0, 1, 0], [0, 0, 1]], 3), # borel(h,f)
        Subspace.full(3),
    ]


def builtin(name: str) -> CatalogEntry:
    """Fully populated, axiom-passing example by name; raises on an
    unknown name."""
    m = re.fullmatch(r"abelian\((\d+)\)", name)
    if m:
        n = int(m.group(1))
        if n > MAX_DIM:
            raise ValueError("abelian(n) needs n <= %d" % MAX_DIM)
        g = LieAlgebra.abelian(n)
        subs = [Subspace.zero(n), Subspace.full(n)]
        if n >= 1:
            subs.append(_span([[1] + [0] * (n - 1)], n))
        if n >= 2:
            subs.append(Subspace(n, reye(n)[:2]))
            subs.append(_span([[1, 1] + [0] * (n - 2)], n))
        qb = QuasiBialgebra(g, Cocycle.zero(g), Tensor.zero(n, 3))
        return CatalogEntry(name, qb, _standard_datums(qb), subs)

    m = re.fullmatch(r"sl2_invariant_phi\((-?\d+(?:/\d+)?)\)", name)
    if m:
        try:
            c = Fraction(m.group(1))
        except ZeroDivisionError:
            raise ValueError("sl2_invariant_phi(c) needs a nonzero denominator") from None
        g = sl2()
        phi = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), c)])
        qb = QuasiBialgebra(g, Cocycle.zero(g), phi)
        return CatalogEntry(name, qb, _standard_datums(qb), _sl2_subalgebras())

    if name == "aff1":
        g = aff1()
        r0 = Tensor.from_alternating_entries(2, 2, [((0, 1), 1)])  # x ^ y
        qb = QuasiBialgebra(g, Cocycle.coboundary(g, r0), Tensor.zero(2, 3))
        datums = _standard_datums(qb)
        datums["line_y"] = HomDatum(qb, _span([[0, 1]], 2), _zero_r(2))
        subs = [Subspace.zero(2), _span([[1, 0]], 2), _span([[0, 1]], 2),
                _span([[1, 2]], 2), Subspace.full(2)]
        return CatalogEntry(name, qb, datums, subs)

    if name == "sl2_coboundary":
        g = sl2()
        r0 = Tensor.from_alternating_entries(3, 2, [((0, 2), 1)])  # e ^ f
        qb = QuasiBialgebra(g, Cocycle.coboundary(g, r0), Tensor.zero(3, 3))
        return CatalogEntry(name, qb, _standard_datums(qb), _sl2_subalgebras())

    if name == "manin_sl2_trace":
        q = sl2_trace_form()
        qb = manin_quasi_triple(q)
        return CatalogEntry(name, qb, _standard_datums(qb), _sl2_subalgebras(), quadratic=q)

    if name == "manin_so3":
        q = so3_standard_form()
        qb = manin_quasi_triple(q)
        subs = [Subspace.zero(3), _span([[1, 0, 0]], 3), _span([[0, 1, 0]], 3),
                _span([[0, 0, 1]], 3), _span([[1, 2, -1]], 3), Subspace.full(3)]
        return CatalogEntry(name, qb, _standard_datums(qb), subs, quadratic=q)

    raise ValueError("unknown catalog name: %r" % name)


def catalog_entries() -> list:
    return [builtin(name) for name in canonical_names()]
