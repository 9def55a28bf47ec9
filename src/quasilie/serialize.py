"""JSON interchange for every value the toolkit exchanges.

Rationals travel as text "p/q" (or "p" when q = 1).  A sparse entry list
holds [index, ..., value] entries with 0-based integer indices, one entry
per index tuple; ENTRY_ORDER says which index orders each list stores,
and antisymmetry fills in the rest.  `read_entries` and `write_entries`
are the one reader and the one writer of that format; the writer sorts
entries lexicographically.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from .double import DoubleAlgebra
from .homogeneous import HomDatum
from .liealg import MAX_DIM, Cocycle, LieAlgebra, QuasiBialgebra, Verdict
from .subspace import Subspace
from .tensor import Tensor, as_rational

# entry list -> (number of indices, index positions (a, b) with idx[a] < idx[b])
ENTRY_ORDER = {
    "bracket": (3, ((0, 1),)),           # c[i, j, k], i < j
    "delta": (3, ((1, 2),)),             # d[i, j, k], j < k
    "phi": (3, ((0, 1), (1, 2))),        # phi[i, j, k], i < j < k
    "r": (2, ((0, 1),)),                 # datum bivector r[i, j], i < j
    "bivector": (2, ()),                 # bivector file: any (i, j)
}


def _stored(kind, idx) -> bool:
    return all(idx[a] < idx[b] for a, b in ENTRY_ORDER[kind][1])


def frac_str(x) -> str:
    return str(as_rational(x))


def parse_frac(s) -> Fraction:
    # only "p" and "p/q": Fraction would also read "1e999999999" as a
    # billion-digit integer
    if type(s) is int or (type(s) is str and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s)):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("bad rational %r: %s" % (s, exc)) from None
    raise ValueError("bad rational literal: %r" % (s,))


def read_dim(obj, what: str) -> int:
    """The 'dim' field of a JSON object: an integer in 0..MAX_DIM."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("%s object needs a 'dim' field" % what)
    n = obj["dim"]
    if type(n) is not int or not 0 <= n <= MAX_DIM:
        raise ValueError("dim must be an integer in 0..%d, got %r" % (MAX_DIM, n))
    return n


def read_entries(kind: str, entries, dim: int) -> dict:
    """{index tuple: Fraction} of a sparse entry list of the given kind;
    rejects non-integer, out-of-range, misordered and repeated indices."""
    arity = ENTRY_ORDER[kind][0]
    if not isinstance(entries, list):
        raise ValueError("%s must be a list of entries" % kind)
    out = {}
    for e in entries:
        if not (isinstance(e, list) and len(e) == arity + 1
                and all(type(i) is int and 0 <= i < dim for i in e[:arity])):
            raise ValueError("%s entry must be %d integer indices in range(%d) "
                             "and a value, got %r" % (kind, arity, dim, e))
        idx = tuple(e[:arity])
        if not _stored(kind, idx):
            raise ValueError("%s entry %r breaks the index order" % (kind, e))
        if idx in out:
            raise ValueError("duplicate %s entry %r" % (kind, idx))
        out[idx] = parse_frac(e[arity])
    return out


def write_entries(kind: str, arr) -> list:
    """The sparse entry list of kind `kind` that `read_entries` maps back to `arr`."""
    return [idx + [frac_str(arr[tuple(idx)])]
            for idx in np.argwhere(arr).tolist() if _stored(kind, idx)]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def tensor_to_entries(t) -> list:
    """Nonzero components of a Tensor or array as [[index...], value]."""
    arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=object)
    return [[idx, frac_str(arr[tuple(idx)])] for idx in np.argwhere(arr).tolist()]


def bivector_to_entries(t: Tensor) -> list:
    return write_entries("r", t.data)


def bivector_from_entries(dim: int, entries) -> Tensor:
    return Tensor.from_alternating_entries(dim, 2, read_entries("r", entries, dim).items())


def qb_to_dict(qb: QuasiBialgebra) -> dict:
    return {
        "dim": qb.dim,
        "labels": list(qb.algebra.labels),
        "bracket": write_entries("bracket", qb.algebra.c),
        "delta": write_entries("delta", qb.delta.d),
        "phi": write_entries("phi", qb.phi.data),
    }


def qb_from_dict(obj) -> QuasiBialgebra:
    n = read_dim(obj, "algebra")
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == n
                                   and all(type(s) is str for s in labels)):
        raise ValueError("labels must be a list of %d strings" % n)
    bracket, delta, phi = (read_entries(kind, obj.get(kind, []), n)
                           for kind in ("bracket", "delta", "phi"))
    g = LieAlgebra.from_brackets(n, [idx + (v,) for idx, v in bracket.items()], labels=labels)
    return QuasiBialgebra(g, Cocycle.from_entries(g, [idx + (v,) for idx, v in delta.items()]),
                          Tensor.from_alternating_entries(n, 3, phi.items()))


def subspace_to_rows(s: Subspace) -> list:
    return [[frac_str(x) for x in s.rows[i]] for i in range(s.dim)]


def subspace_from_rows(rows, ambient: int) -> Subspace:
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == ambient for row in rows)):
        raise ValueError("h must be a list of rows of length %d" % ambient)
    return Subspace(ambient, [[parse_frac(x) for x in row] for row in rows])


def double_to_dict(dbl: DoubleAlgebra) -> dict:
    return {
        "dim": dbl.dim,
        "labels": list(dbl.algebra.labels),
        "bracket": write_entries("bracket", dbl.algebra.c),
        "q_matrix": [[frac_str(x) for x in dbl.q[i]] for i in range(dbl.dim)],
        "source": qb_to_dict(dbl.source),
    }


def datum_to_dict(d: HomDatum, inline_algebra: bool = True) -> dict:
    out = {
        "h": subspace_to_rows(d.h),
        "r": bivector_to_entries(d.r),
    }
    if inline_algebra:
        out["algebra"] = qb_to_dict(d.qb)
    return out


def datum_from_dict(obj, default_qb: QuasiBialgebra | None = None) -> HomDatum:
    if not isinstance(obj, dict):
        raise ValueError("datum object must be a JSON object")
    if "algebra" in obj and obj["algebra"] is not None:
        qb = qb_from_dict(obj["algebra"])
    elif default_qb is not None:
        qb = default_qb
    else:
        raise ValueError("datum needs an inline algebra or a default one")
    n = qb.dim
    h = subspace_from_rows(obj.get("h", []), n)
    r = bivector_from_entries(n, obj.get("r", []))
    return HomDatum(qb, h, r)


def rmatrix_from_dict(obj) -> Tensor:
    """Bivector file: {"dim": n, "r": [[i, j, "p/q"], ...]}; general (i, j)
    index pairs are accepted and checked for antisymmetric consistency."""
    n = read_dim(obj, "bivector")
    given = read_entries("bivector", obj.get("r", []), n)
    for (i, j), val in given.items():
        if i == j and val:
            raise ValueError("r not antisymmetric: diagonal entry (%d,%d)" % (i, j))
        if (j, i) in given and given[(j, i)] != -val:
            raise ValueError("r not antisymmetric: entries (%d,%d) and (%d,%d)"
                             % (i, j, j, i))
    entries = [((i, j), val) for (i, j), val in given.items() if i < j]
    entries += [((j, i), -val) for (i, j), val in given.items()
                if i > j and (j, i) not in given]
    return Tensor.from_alternating_entries(n, 2, entries)


def verdict_to_dict(v: Verdict) -> dict:
    out = {"ok": v.ok}
    out["witness"] = list(v.witness) if v.witness is not None else None
    if v.residual is None:
        out["residual"] = None
    else:
        out["residual"] = tensor_to_entries(v.residual)
    return out
