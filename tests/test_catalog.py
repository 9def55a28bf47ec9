from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quasilie.catalog as catalog
from quasilie.catalog import (QuadraticLieAlgebra, builtin, canonical_names,
                              diagonal_subspace, fixed_point_diagonal,
                              fixture_stem, graph_lagrangian, graph_subspace,
                              is_automorphism, is_b_orthogonal,
                              manin_quasi_triple, product_algebra,
                              product_double_model, sl2, sl2_scaling_automorphism,
                              sl2_trace_form, sl2_weyl_automorphism,
                              so3_standard_form)
from quasilie.double import build_double, check_double_axioms
from quasilie.liealg import (MAX_DIM, Cocycle, QuasiBialgebra, ad_tensor_components,
                             axiom_report, check_quasi_cojacobi, closed_under_bracket)
from quasilie.subspace import Subspace
from quasilie.tensor import Tensor, rarray, rzeros

from _oracles import oracle_cyb
from conftest import gl_trace_form

DATA = Path(catalog.__file__).parent / "data"

VOLUME = Tensor.from_alternating_entries(3, 3, [((0, 1, 2), 1)])   # e0 ^ e1 ^ e2


def assert_graph_lagrangian(q, a):
    """graph_lagrangian(q, a) is isotropic for the split form of g x g, of
    dim n, closed under the bracket of g x g, and meets the diagonal in the
    fixed points of a; returns the graph."""
    graph = graph_lagrangian(q, a)
    prod, form = product_algebra(q)
    n = q.algebra.dim
    assert not (graph.rows @ form @ graph.rows.T).any()
    assert graph.dim == n
    assert closed_under_bracket(prod, graph).ok
    assert graph.intersect(diagonal_subspace(n)) == fixed_point_diagonal(a)
    return graph


def test_every_builtin_passes_all_axioms(catalog_entries):
    for entry in catalog_entries:
        rep = axiom_report(entry.algebra)
        assert all(v.ok for v in rep.values()), entry.name
        assert check_double_axioms(build_double(entry.algebra)).ok, entry.name


def test_aff1_values():
    qb = builtin("aff1").algebra
    assert qb.algebra.labels == ["x", "y"]
    assert qb.algebra.c[0, 1, 1] == 1          # [x,y] = y
    # delta(x) = x ^ y, delta(y) = 0
    assert qb.delta.d[0, 0, 1] == 1 and qb.delta.d[0, 1, 0] == -1
    assert not qb.delta.d[1].any()
    assert qb.phi.is_zero()


def test_sl2_coboundary_values():
    qb = builtin("sl2_coboundary").algebra
    c = qb.algebra.c
    assert c[1, 0, 0] == 2 and c[1, 2, 2] == -2 and c[0, 2, 1] == 1
    assert Tensor(3, qb.delta.d[0]) == Tensor.from_alternating_entries(3, 2, [((0, 1), 1)])
    assert Tensor(3, qb.delta.d[2]) == Tensor.from_alternating_entries(3, 2, [((1, 2), -1)])
    assert not qb.delta.d[1].any()


def test_sl2_invariant_phi_parametrized():
    for c in ("1", "5", "-3/2"):
        entry = builtin("sl2_invariant_phi(%s)" % c)
        assert entry.algebra.phi == Fraction(c) * VOLUME
        assert entry.algebra.delta.d.any() == False
        assert all(v.ok for v in axiom_report(entry.algebra).values())


def test_abelian_parametrized():
    entry = builtin("abelian(4)")
    assert entry.algebra.dim == 4
    assert not entry.algebra.algebra.c.any()
    with pytest.raises(ValueError):
        builtin("abelian(%d)" % (MAX_DIM + 1))


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown catalog name"):
        builtin("nope")
    with pytest.raises(ValueError):
        builtin("abelian(x)")


def test_quadratic_form_validation():
    g = sl2()
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticLieAlgebra(g, rarray([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticLieAlgebra(g, rzeros((3, 3)))
    with pytest.raises(ValueError, match="invariant"):
        QuadraticLieAlgebra(g, np.identity(3, dtype=object))


def test_trace_form_omega():
    q = sl2_trace_form()
    omega = q.omega()
    # e (x) f + f (x) e + (1/2) h (x) h
    assert omega.data[0, 2] == 1 and omega.data[2, 0] == 1
    assert omega.data[1, 1] == Fraction(1, 2)
    assert (q.b @ q.b_inv == np.identity(3, dtype=object)).all()


def test_manin_quasi_triple_regression_constant():
    qb = builtin("manin_sl2_trace").algebra
    # frozen after first derivation: phi = -CYB(Omega) = -(e ^ h ^ f)
    assert qb.phi == -VOLUME
    assert qb.phi.data[0, 1, 2] == -1
    q = sl2_trace_form()
    assert (qb.phi.data == -oracle_cyb(qb.algebra.c, q.b_inv)).all()
    for i in range(3):
        assert not ad_tensor_components(qb.algebra.c, Tensor.basis(3, i).data, qb.phi.data).any()


@pytest.mark.parametrize("q", [sl2_trace_form(), so3_standard_form(),
                               gl_trace_form(2), gl_trace_form(3)],
                         ids=["sl2", "so3", "gl2", "gl3"])
def test_manin_phi_is_antisymmetric_and_invariant(q):
    # both are theorems for a nondegenerate invariant symmetric form on a
    # Lie algebra; invariance of phi is quasi-co-Jacobi at delta = 0
    phi = manin_quasi_triple(q).phi
    assert phi.is_antisymmetric()
    g = q.algebra
    assert check_quasi_cojacobi(QuasiBialgebra(g, Cocycle.zero(g), phi)).ok


def test_manin_so3_phi():
    qb = builtin("manin_so3").algebra
    assert qb.phi == -VOLUME


def test_manin_of_abelian_is_trivial():
    from quasilie.liealg import LieAlgebra
    g = LieAlgebra.abelian(3)
    b = rarray([[2, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]])
    qb = manin_quasi_triple(QuadraticLieAlgebra(g, b))
    assert qb.phi.is_zero() and not qb.delta.d.any()


def test_product_double_model_certifies():
    for q in (sl2_trace_form(), so3_standard_form()):
        rep = product_double_model(q)
        assert rep.bracket_ok.ok and rep.form_ok.ok and rep.diagonal_ok
        n = q.algebra.dim
        # psi(a + 0) lands on the diagonal
        for i in range(n):
            col = rep.map_matrix[:, i]
            assert (col[:n] == col[n:]).all()
        # dual vectors map to isotropic pairs (x_l, -x_l): form vanishes
        _, form = product_algebra(q)
        for i in range(n):
            for j in range(n):
                u = rep.map_matrix[:, n + i]
                v = rep.map_matrix[:, n + j]
                assert not (u @ form @ v)


def test_graph_lagrangian_identity_is_diagonal():
    q = sl2_trace_form()
    graph = assert_graph_lagrangian(q, np.identity(3, dtype=object))
    assert graph == diagonal_subspace(3)
    assert graph.intersect(diagonal_subspace(3)) == diagonal_subspace(3)


def test_graph_lagrangian_scaling_family():
    q = sl2_trace_form()
    for t in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)):
        a = sl2_scaling_automorphism(t)
        graph = assert_graph_lagrangian(q, a)
        # fixed subalgebra of the scaling is the Cartan line
        fixed = graph.intersect(diagonal_subspace(3))
        expect = Subspace(6, rarray([[0, 1, 0, 0, 1, 0]]))
        assert fixed == expect if t * t != 1 else True


def test_graph_lagrangian_weyl():
    q = sl2_trace_form()
    graph = assert_graph_lagrangian(q, sl2_weyl_automorphism())
    # fixed points of (e,h,f) -> (f,-h,e): the line through e + f
    fixed = graph.intersect(diagonal_subspace(3))
    assert fixed == Subspace(6, rarray([[1, 0, 1, 1, 0, 1]]))
    assert fixed == fixed_point_diagonal(sl2_weyl_automorphism())


def test_graph_lagrangian_so3_rotations():
    q = so3_standard_form()
    cyclic = rarray([[0, 0, 1], [1, 0, 0], [0, 1, 0]])   # x -> y -> z -> x
    rot = rarray([[Fraction(3, 5), Fraction(-4, 5), 0],
                  [Fraction(4, 5), Fraction(3, 5), 0],
                  [0, 0, 1]])
    for a in (cyclic, rot):
        assert is_automorphism(q.algebra, a).ok and is_b_orthogonal(q, a)
        assert_graph_lagrangian(q, a)


def test_orthogonal_non_automorphisms_error_and_fail_closure():
    q = sl2_trace_form()
    prod, form = product_algebra(q)
    swap = rarray([[0, 0, 1], [0, 1, 0], [1, 0, 0]])      # e <-> f, h fixed
    flip = rarray([[1, 0, 0], [0, -1, 0], [0, 0, 1]])     # h -> -h only
    for a in (swap, flip):
        assert is_b_orthogonal(q, a)
        assert not is_automorphism(q.algebra, a).ok
        with pytest.raises(ValueError, match="automorphism"):
            graph_lagrangian(q, a)
        # the graph is still isotropic but not closed under the bracket
        graph = graph_subspace(a)
        assert not (graph.rows @ form @ graph.rows.T).any()
        assert not closed_under_bracket(prod, graph).ok


def test_non_orthogonal_automorphism_rejected():
    q = so3_standard_form()
    a = rarray([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    with pytest.raises(ValueError):
        graph_lagrangian(q, a)


def test_subalgebra_lists_are_subalgebras(catalog_entries):
    for entry in catalog_entries:
        g = entry.algebra.algebra
        for h in entry.subalgebras:
            assert closed_under_bracket(g, h).ok, entry.name


def test_fixture_files_byte_identical_to_builtin():
    from quasilie.serialize import dumps_canonical, qb_to_dict
    for name in canonical_names():
        path = DATA / (fixture_stem(name) + ".json")
        entry = builtin(name)
        assert path.read_text() == dumps_canonical(qb_to_dict(entry.algebra)), name
