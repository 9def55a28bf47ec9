import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasilie.catalog as catalog
import quasilie.cli as cli
import quasilie.homogeneous as homogeneous
from quasilie.cli import main
from quasilie.liealg import MAX_DIM
from quasilie.serialize import dumps_canonical, qb_to_dict

DATA = Path(catalog.__file__).parent / "data"


def fixture(name):
    return str(DATA / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout):
    return json.loads(stdout)


def without_timing(stdout):
    obj = report_of(stdout)
    obj.pop("timing_s", None)
    return dumps_canonical(obj)


def test_validate_catalog_fixture_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", fixture("sl2_coboundary.json"))
    assert code == 0
    rep = report_of(out)
    assert rep["verdict"] == "pass"
    assert set(rep["checks"]) == {"jacobi", "cocycle", "quasi_cojacobi", "pentagon"}
    assert rep["inputs"]["algebra"]["sha256"]


def test_validate_corrupted_fixture_fails_with_witness(tmp_path, capsys):
    obj = json.loads(Path(fixture("sl2_coboundary.json")).read_text())
    # [e,f] = e instead of h: breaks Jacobi
    obj["bracket"] = [e for e in obj["bracket"] if e[:2] != [0, 2]] + [[0, 2, 0, "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    rep = report_of(out)
    assert rep["verdict"] == "fail"
    assert rep["checks"]["jacobi"]["ok"] is False
    assert rep["checks"]["jacobi"]["witness"] == [0, 1, 2]
    assert rep["checks"]["jacobi"]["residual"]


SO3 = fixture("manin_so3.json")
MALFORMED = {   # argv; bytes are written verbatim, other non-str values as JSON
    "empty_file": ["validate", b""],
    "deep_nesting": ["validate", b"[" * 100000 + b"]" * 100000],
    "dim_null": ["validate", {"dim": None}],
    "dim_true": ["validate", {"dim": True}],
    "dim_float": ["validate", {"dim": 2.5}],
    "dim_string": ["validate", {"dim": "2"}],
    "catalog_over_cap": ["catalog", "abelian(%d)" % (MAX_DIM + 1)],
    "catalog_zero_denominator": ["catalog", "sl2_invariant_phi(1/0)"],
    "index_null": ["validate", {"dim": 2, "bracket": [[0, None, 1, "1"]]}],
    "index_float": ["validate", {"dim": 2, "bracket": [[0, 1.9, 1, "1"]]}],
    "index_string": ["validate", {"dim": 2, "bracket": [[0, "1", 1, "1"]]}],
    "index_false": ["validate", {"dim": 2, "bracket": [[False, 1, 1, "1"]]}],
    "value_true": ["validate", {"dim": 2, "bracket": [[0, 1, 1, True]]}],
    "bracket_not_list": ["validate", {"dim": 2, "bracket": 5}],
    "labels_not_list": ["validate", {"dim": 2, "labels": 7}],
    "labels_short": ["validate", {"dim": 2, "labels": ["x"]}],
    "labels_not_strings": ["validate", {"dim": 2, "labels": [0, 1]}],
    "delta_duplicate": ["validate", {"dim": 2, "delta": [[0, 0, 1, "1"], [0, 0, 1, "1"]]}],
    "bivector_dim_null": ["twist", SO3, {"dim": None, "r": []}],
    "bivector_r_not_list": ["twist", SO3, {"dim": 3, "r": 3}],
    "bivector_entry_not_list": ["twist", SO3, {"dim": 3, "r": [5]}],
    "bivector_index_float": ["twist", SO3, {"dim": 3, "r": [[0, 1.5, "1"]]}],
    "datum_h_not_list": ["classify", SO3, {"h": 5, "r": []}],
    "datum_h_row_not_list": ["classify", SO3, {"h": [5], "r": []}],
    "datum_r_not_list": ["classify", SO3, {"h": [], "r": 7}],
    "datum_r_index_float": ["classify", SO3, {"h": [], "r": [[0, 1.0, "1"]]}],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_input_error(tmp_path, capsys, argv):
    args = []
    for k, arg in enumerate(argv):
        if not isinstance(arg, str):
            path = tmp_path / ("input%d.json" % k)
            path.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
            arg = str(path)
        args.append(arg)
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and "input error" in err and out == ""


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/file.json")
    assert code == 2 and "input error" in err


def test_double_abelian(capsys):
    code, out, _ = run_cli(capsys, "double", fixture("abelian_3.json"))
    assert code == 0
    rep = report_of(out)
    assert rep["verdict"] == "pass"
    assert rep["double"]["bracket"] == []
    assert rep["double"]["dim"] == 6


def test_double_corrupted_delta_reports_jacobi_witness(tmp_path, capsys):
    obj = json.loads(Path(fixture("sl2_coboundary.json")).read_text())
    obj["delta"] = obj["delta"] + [[1, 0, 2, "1"]]   # delta(h) = e^f: non-cocycle
    bad = tmp_path / "bad_delta.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "double", str(bad))
    assert code == 1
    rep = report_of(out)
    assert rep["axioms"]["jacobi"]["ok"] is False
    assert rep["axioms"]["jacobi"]["witness"] is not None


def test_classify_point_datum_passes(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("aff1.json"),
                           fixture("aff1_point.datum.json"))
    assert code == 0
    rep = report_of(out)
    assert rep["report"]["verdict"] is True
    assert rep["obstruction"] == []


def test_classify_valid_aff1_line_datum(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("aff1.json"),
                           fixture("aff1_line_y.datum.json"))
    assert code == 0


def test_classify_manin_zero_datum_fails_with_obstruction(capsys):
    code, out, _ = run_cli(capsys, "classify", fixture("manin_sl2_trace.json"),
                           fixture("manin_sl2_trace_zero.datum.json"))
    assert code == 1
    rep = report_of(out)
    assert rep["report"]["obstruction_zero"] is False
    assert rep["report"]["subalgebra"] is False
    assert rep["obstruction"]   # nonzero entries listed
    assert rep["stability_residuals"] == []   # h = 0: nothing to stabilize
    witness = rep["subalgebra_witness"]
    assert witness["ok"] is False and witness["witness"] and witness["residual"]


def test_classify_builds_each_certificate_once(monkeypatch, capsys):
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_double", "dirac_span", "obstruction"):
        wrapper = counting(name, getattr(homogeneous, name))
        monkeypatch.setattr(homogeneous, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)
    code, _, _ = run_cli(capsys, "classify", fixture("aff1.json"),
                         fixture("aff1_line_y.datum.json"))
    assert code == 0
    assert calls == {"build_double": 1, "dirac_span": 1, "obstruction": 1}


def test_classify_rejects_mismatched_inline_algebra(tmp_path, capsys):
    datum = {"algebra": json.loads(Path(fixture("aff1.json")).read_text()),
             "h": [], "r": []}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, _, err = run_cli(capsys, "classify", fixture("sl2_coboundary.json"), str(path))
    assert code == 2 and "different inline algebra" in err


def test_twist_zero_is_identity(tmp_path, capsys):
    rfile = tmp_path / "r0.json"
    rfile.write_text(json.dumps({"dim": 3, "r": []}))
    code, out, _ = run_cli(capsys, "twist", fixture("sl2_coboundary.json"), str(rfile))
    assert code == 0
    rep = report_of(out)
    assert rep["verdict"] == "pass"
    original = json.loads(Path(fixture("sl2_coboundary.json")).read_text())
    assert rep["twisted"] == original


def test_twist_random_r_certificates_true(tmp_path, capsys):
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"dim": 3, "r": [[0, 1, "1/2"], [0, 2, "-3"], [1, 2, "2"]]}))
    code, out, _ = run_cli(capsys, "twist", fixture("sl2_coboundary.json"), str(rfile))
    assert code == 0
    rep = report_of(out)
    for cert in rep["certificates"].values():
        assert cert["ok"] is True


def test_twist_non_antisymmetric_r_is_input_error(tmp_path, capsys):
    rfile = tmp_path / "bad_r.json"
    rfile.write_text(json.dumps({"dim": 3, "r": [[0, 0, "1"]]}))
    code, _, err = run_cli(capsys, "twist", fixture("sl2_coboundary.json"), str(rfile))
    assert code == 2 and "not antisymmetric" in err


def test_twist_equations_shapes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "twist-equations", fixture("aff1.json"))
    assert code == 0
    rep = report_of(out)
    assert rep["system"]["equations"] == []         # no wedge-cube in dim 2
    code, out, _ = run_cli(capsys, "twist-equations", fixture("abelian_3.json"))
    rep = report_of(out)
    assert len(rep["system"]["equations"]) == 1
    assert rep["system"]["equations"][0]["monomials"] == []   # the zero system
    code, out, _ = run_cli(capsys, "twist-equations", fixture("sl2_coboundary.json"))
    rep = report_of(out)
    assert len(rep["system"]["unknowns"]) == 3
    assert len(rep["system"]["equations"]) == 1
    assert rep["system"]["equations"][0]["monomials"]


def test_catalog_output_matches_fixture_bytes(capsys):
    for name in catalog.canonical_names():
        code, out, _ = run_cli(capsys, "catalog", name)
        assert code == 0
        path = DATA / (catalog.fixture_stem(name) + ".json")
        assert out == path.read_text()


def test_catalog_unknown_name(capsys):
    code, _, err = run_cli(capsys, "catalog", "mystery")
    assert code == 2 and "unknown catalog name" in err


def test_reports_deterministic_modulo_timing(capsys):
    _, out1, _ = run_cli(capsys, "validate", "--seed", "7", fixture("manin_so3.json"))
    _, out2, _ = run_cli(capsys, "validate", "--seed", "7", fixture("manin_so3.json"))
    assert without_timing(out1) == without_timing(out2)
    rep = report_of(out1)
    assert rep["seed"] == 7 and "timing_s" in rep


def test_emitted_algebra_reparses_to_equal_value(tmp_path, capsys):
    rfile = tmp_path / "r.json"
    rfile.write_text(json.dumps({"dim": 3, "r": [[0, 2, "1"]]}))
    code, out, _ = run_cli(capsys, "twist", fixture("manin_sl2_trace.json"), str(rfile))
    rep = report_of(out)
    from quasilie.serialize import qb_from_dict
    twisted = qb_from_dict(rep["twisted"])
    assert qb_to_dict(twisted) == rep["twisted"]


def test_json_out_and_quiet(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "validate", "--quiet", "--json-out", str(target),
                           fixture("aff1.json"))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def run_subprocess(*argv):
    # the child imports the same quasilie as this process, installed or not
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "quasilie.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [["validate", fixture("aff1.json")], ["catalog", "aff1"]])
def test_unwritable_json_out_is_input_error(tmp_path, argv):
    target = tmp_path / "missing" / "out.json"
    proc = run_subprocess(argv[0], "--json-out", str(target), *argv[1:])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "input error: cannot write %s" % target in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_entry_point_subprocess():
    proc = run_subprocess("catalog", "aff1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
