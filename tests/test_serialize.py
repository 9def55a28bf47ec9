import copy
import json
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilie.catalog import builtin, canonical_names
from quasilie.double import build_double
from quasilie.homogeneous import HomDatum
from quasilie.liealg import MAX_DIM, QuasiBialgebra, Verdict
from quasilie.serialize import (bivector_from_entries,
                                bivector_to_entries, datum_from_dict,
                                datum_to_dict, double_to_dict, dumps_canonical,
                                frac_str, parse_frac, qb_from_dict, qb_to_dict,
                                rmatrix_from_dict, subspace_from_rows,
                                subspace_to_rows, tensor_to_entries,
                                verdict_to_dict)
from quasilie.subspace import Subspace
from quasilie.tensor import Tensor, rarray

from conftest import rand_antisym


def test_fraction_text_forms():
    assert frac_str(Fraction(3, 2)) == "3/2"
    assert frac_str(Fraction(-7)) == "-7"
    assert parse_frac("3/2") == Fraction(3, 2)
    assert parse_frac("4") == Fraction(4)
    assert parse_frac(5) == Fraction(5)
    for bad in ("1/0", "a", None, 1.5, True, "1e3", "0.5"):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_qb_roundtrip_all_catalog():
    for name in canonical_names():
        qb = builtin(name).algebra
        again = qb_from_dict(qb_to_dict(qb))
        assert again == qb
        assert again.algebra.labels == qb.algebra.labels


def test_qb_dict_sparse_conventions():
    d = qb_to_dict(builtin("sl2_coboundary").algebra)
    for i, j, k, _ in d["bracket"]:
        assert i < j
    for i, j, k, _ in d["delta"]:
        assert j < k
    for i, j, k, _ in d["phi"]:
        assert i < j < k


def test_qb_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        qb_from_dict({"bracket": []})
    with pytest.raises(ValueError):
        qb_from_dict({"dim": 2, "bracket": [[1, 0, 0, "1"]]})    # needs i < j
    with pytest.raises(ValueError):
        qb_from_dict({"dim": 2, "bracket": [[0, 1, 5, "1"]]})    # out of range
    with pytest.raises(ValueError):
        qb_from_dict({"dim": 2, "delta": [[0, 1, 1, "1"]]})      # needs j < k
    with pytest.raises(ValueError):
        qb_from_dict({"dim": 3, "phi": [[0, 2, 1, "1"]]})        # needs i<j<k
    with pytest.raises(ValueError):
        qb_from_dict({"dim": MAX_DIM + 1})                         # over the cap
    for kind, entry in (("bracket", [0, 1, 1, "1"]), ("delta", [0, 0, 1, "1"]),
                        ("phi", [0, 1, 2, "1"])):
        with pytest.raises(ValueError, match="duplicate"):
            qb_from_dict({"dim": 3, kind: [entry, entry]})


def test_bivector_roundtrip():
    rng = random.Random(60)
    for _ in range(10):
        r = rand_antisym(rng, 4)
        entries = bivector_to_entries(r)
        for i, j, _ in entries:
            assert i < j
        assert bivector_from_entries(4, entries) == r


def test_rmatrix_general_index_forms():
    t = rmatrix_from_dict({"dim": 2, "r": [[0, 1, "1/2"]]})
    assert t.data[0, 1] == Fraction(1, 2) and t.data[1, 0] == Fraction(-1, 2)
    t2 = rmatrix_from_dict({"dim": 2, "r": [[1, 0, "-1/2"]]})
    assert t2 == t
    t3 = rmatrix_from_dict({"dim": 2, "r": [[0, 1, "1/2"], [1, 0, "-1/2"]]})
    assert t3 == t
    with pytest.raises(ValueError, match="not antisymmetric"):
        rmatrix_from_dict({"dim": 2, "r": [[0, 1, "1"], [1, 0, "1"]]})
    with pytest.raises(ValueError, match="not antisymmetric"):
        rmatrix_from_dict({"dim": 2, "r": [[0, 0, "1"]]})
    with pytest.raises(ValueError, match="duplicate"):
        rmatrix_from_dict({"dim": 2, "r": [[0, 1, "1"], [0, 1, "1"]]})
    with pytest.raises(ValueError):
        rmatrix_from_dict({"dim": MAX_DIM + 1})                    # over the cap
    with pytest.raises(ValueError, match="duplicate"):
        datum_from_dict({"h": [], "r": [[0, 1, "1"], [0, 1, "1"]]},
                        default_qb=builtin("aff1").algebra)


def test_subspace_roundtrip():
    s = Subspace(3, rarray([[1, 2, 3], [0, 1, Fraction(1, 2)]]))
    rows = subspace_to_rows(s)
    assert subspace_from_rows(rows, 3) == s
    assert subspace_from_rows([], 3) == Subspace.zero(3)


def test_datum_roundtrip_inline_and_default():
    entry = builtin("aff1")
    d = HomDatum(entry.algebra, Subspace(2, rarray([[0, 1]])),
                 Tensor.from_alternating_entries(2, 2, [((0, 1), Fraction(1, 2))]))
    obj = datum_to_dict(d)
    back = datum_from_dict(obj)
    assert back.qb == d.qb and back.h == d.h and back.r == d.r
    obj2 = datum_to_dict(d, inline_algebra=False)
    assert "algebra" not in obj2
    back2 = datum_from_dict(obj2, default_qb=entry.algebra)
    assert back2.h == d.h and back2.r == d.r
    with pytest.raises(ValueError):
        datum_from_dict(obj2)


def test_double_dict_shape():
    dbl = build_double(builtin("sl2_coboundary").algebra)
    d = double_to_dict(dbl)
    assert d["dim"] == 6
    assert d["source"] == qb_to_dict(dbl.source)
    assert len(d["q_matrix"]) == 6
    assert d["q_matrix"][0][3] == "1" and d["q_matrix"][0][0] == "0"
    # bracket entries rebuild the double's algebra
    from quasilie.liealg import LieAlgebra
    rebuilt = LieAlgebra.from_brackets(6, [(i, j, k, v) for i, j, k, v in d["bracket"]])
    assert rebuilt == dbl.algebra


def test_verdict_serialization():
    v = Verdict(True)
    assert verdict_to_dict(v) == {"ok": True, "witness": None, "residual": None}
    v2 = Verdict(False, witness=(0, 1), residual=rarray([0, 2, 0]))
    d = verdict_to_dict(v2)
    assert d["ok"] is False and d["witness"] == [0, 1]
    assert d["residual"] == [[[1], "2"]]


def test_dumps_canonical_is_stable():
    obj = {"b": 1, "a": [1, 2], "c": {"y": "2", "x": "1"}}
    assert dumps_canonical(obj) == dumps_canonical(json.loads(dumps_canonical(obj)))


def test_tensor_entries_sorted():
    t = rand_antisym(random.Random(61), 4, 3)
    entries = tensor_to_entries(t)
    assert entries == sorted(entries)


# ---- fuzzing the readers ---------------------------------------------------

FIELDS = ["dim", "labels", "bracket", "delta", "phi", "algebra", "h", "r"]
# no integer between MAX_DIM + 2 and 2**64: were the cap lost, such a dim
# would allocate dim^3 objects, while 2**64 fails at once in numpy
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, MAX_DIM + 2) | st.integers(min_value=2**64)
    | st.integers(max_value=-3)
    | st.floats() | st.text(max_size=4) | st.sampled_from(["1", "1/2", "-3", "1/0"]),
    lambda kids: (st.lists(kids, max_size=5)
                  | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), kids,
                                    max_size=5)),
    max_leaves=24)
SL2 = builtin("sl2_coboundary").algebra
READERS = [qb_from_dict, partial(datum_from_dict, default_qb=SL2), rmatrix_from_dict]
CATALOG_DICTS = (
    [(qb_from_dict, qb_to_dict(builtin(name).algebra)) for name in canonical_names()]
    + [(datum_from_dict, datum_to_dict(d)) for d in builtin("aff1").datums.values()]
    + [(rmatrix_from_dict, {"dim": 3, "r": [[0, 2, "1"], [2, 1, "-1/2"]]})])


def read_or_reject(reader, obj):
    """reader(obj) raises ValueError or returns a value its writer reproduces."""
    try:
        value = reader(obj)
    except ValueError:
        return
    if isinstance(value, QuasiBialgebra):
        assert qb_from_dict(qb_to_dict(value)) == value
    elif isinstance(value, HomDatum):
        back = datum_from_dict(datum_to_dict(value))
        assert (back.qb, back.h, back.r) == (value.qb, value.h, value.r)
    else:
        assert rmatrix_from_dict({"dim": value.dim, "r": bivector_to_entries(value)}) == value


@st.composite
def mutated_catalog_dicts(draw):
    """A catalog dict with one field, or one value nested in it, replaced."""
    reader, obj = draw(st.sampled_from(CATALOG_DICTS))
    obj = copy.deepcopy(obj)
    node, key = obj, draw(st.sampled_from(sorted(obj)))
    while isinstance(node[key], (list, dict)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
    node[key] = draw(JSON)
    return reader, obj


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(READERS), JSON)
def test_readers_accept_or_reject_any_json(reader, obj):
    read_or_reject(reader, obj)


@settings(max_examples=300, deadline=None)
@given(mutated_catalog_dicts())
def test_readers_accept_or_reject_mutated_catalog_dicts(case):
    read_or_reject(*case)
