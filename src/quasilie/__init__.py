"""Exact-arithmetic toolkit for Lie quasi-bialgebras: doubles, Lagrangian
subalgebras, quasi-Poisson homogeneous data, and twisting."""

from .tensor import Tensor, alt, apply_linear
from .subspace import Subspace, annihilator
from .liealg import (Cocycle, LieAlgebra, QuasiBialgebra, Verdict, axiom_report,
                     check_cocycle, check_jacobi, check_pentagon,
                     check_quasi_cojacobi, closed_under_bracket, cyb,
                     half_alt_delta)
from .double import (DoubleAlgebra, bivector_from_lagrangian, build_double,
                     check_double_axioms, intersect_with_g, is_isotropic,
                     is_lagrangian, is_subalgebra)
from .homogeneous import (DatumReport, HomDatum, ad_stable_direct,
                          is_quasi_poisson_datum, obstruction,
                          stability_residuals)
from .twisting import (TwistReport, check_twist_iso, f_r_matrix, twist,
                       twist_datum, twist_equations)
from .catalog import (CatalogEntry, QuadraticLieAlgebra, builtin,
                      graph_lagrangian, manin_quasi_triple,
                      product_double_model)

__version__ = "0.1.0"
