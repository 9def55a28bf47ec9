"""Seeded inputs and the job lists of the four benchmark workloads.

A job is one call a user would make: a CLI command through
`cli.main(argv)`, or one public-API step on objects built from generated
JSON.  A job returns (exit code, payload): the CLI's exit code and its
captured stdout, or 0/1 for a passing/failing API verdict and the report
dict a user would serialize.  Job names are `<subject>.<operation>`; the
checks in `checks.py` pair jobs by these names.

`expect` says what the exit code must be: "pass" (0), "fail" (1),
"input_error" (2), or "any" when only goldens and the cross-checks judge
the verdict.  `seeded` marks jobs whose input depends on the seed, whose
goldens therefore hold only for the default seed.  `defect` names a known
input-contract defect of the program that the job exposes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FIXTURES = {   # shipped algebra fixture -> catalog name
    "abelian_3": "abelian(3)", "aff1": "aff1", "sl2_coboundary": "sl2_coboundary",
    "sl2_invariant_phi_1": "sl2_invariant_phi(1)", "manin_sl2_trace": "manin_sl2_trace",
    "manin_so3": "manin_so3",
}
SHIPPED_DATUMS = {"aff1": ["line_y", "point"], "manin_sl2_trace": ["zero"]}

# Subalgebras (as spanning rows) offered to seeded homogeneous data.
SL2_SUBS = [[], [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 0, 1]],
            [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
SO3_SUBS = [[], [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 2, -1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
AFF1_SUBS = [[], [[1, 0]], [[0, 1]], [[1, 2]], [[1, 0], [0, 1]]]
ABELIAN3_SUBS = [[], [[1, 0, 0]], [[1, 1, 0]], [[1, 0, 0], [0, 1, 0]],
                 [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
SUBS = {"abelian_3": ABELIAN3_SUBS, "aff1": AFF1_SUBS, "sl2_coboundary": SL2_SUBS,
        "sl2_invariant_phi_1": SL2_SUBS, "manin_sl2_trace": SL2_SUBS,
        "manin_so3": SO3_SUBS}
# On sl2 and so3 every single-entry change of delta breaks the cocycle
# identity: a cocycle vanishing on two basis vectors is, by Whitehead's
# lemma, ad_x r with r killed by two elements that generate the algebra,
# so r = 0.  On aff1 and abelian(3) single entries can stay cocycles.
SEMISIMPLE = ("sl2_coboundary", "sl2_invariant_phi_1", "manin_sl2_trace", "manin_so3")


@dataclass
class Job:
    name: str
    fn: object
    expect: str = "any"
    seeded: bool = False
    defect: str | None = None


@dataclass
class Spec:
    jobs: list
    files: dict = field(default_factory=dict)     # file name -> bytes
    extra: dict = field(default_factory=dict)     # inputs the checks reuse


# ---- generators ------------------------------------------------------------

def _dump(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def rand_frac(rng, bits: int, denoms) -> Fraction:
    return Fraction(rng.randint(1, 2 ** bits) * rng.choice((1, -1)), rng.choice(denoms))


def small_frac(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2)))


def bivector(n: int, values) -> dict:
    """Bivector file over the pairs i < j, given one value per pair."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {"dim": n, "r": [[i, j, str(v)] for (i, j), v in zip(pairs, values) if v]}


def rand_bivector(rng, n: int, draw) -> dict:
    return bivector(n, [draw() for _ in range(n * (n - 1) // 2)])


def datum(rows, r: dict) -> dict:
    return {"h": [[str(x) for x in row] for row in rows], "r": r["r"]}


def perturb(entries: list, index: list, eps: Fraction) -> list:
    """Entries with eps added to the one stored at `index` (a new entry
    when none is stored there): a single-entry change of the tensor."""
    out = [list(e) for e in entries]
    for e in out:
        if e[:-1] == index:
            e[-1] = str(Fraction(e[-1]) + eps)
            return out
    return out + [index + [str(eps)]]


def gl_rung(m: int) -> dict:
    """gl(m) on the basis E_ij (index i*m + j) with [E_ij, E_kl] =
    d_jk E_il - d_li E_kj and the trace form B(E_ij, E_kl) = d_jk d_il."""
    n = m * m
    coef = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    a, b = i * m + j, k * m + l
                    if a >= b:
                        continue
                    if j == k:
                        coef[(a, b, i * m + l)] = coef.get((a, b, i * m + l), 0) + 1
                    if l == i:
                        coef[(a, b, k * m + j)] = coef.get((a, b, k * m + j), 0) - 1
    form = [[1 if b == (a % m) * m + a // m else 0 for b in range(n)] for a in range(n)]
    return {"algebra": {"dim": n,
                        "labels": ["E%d%d" % (i + 1, j + 1) for i in range(m) for j in range(m)],
                        "bracket": [[a, b, c, str(v)] for (a, b, c), v in sorted(coef.items()) if v]},
            "form": form}


def fixture_rung(data: Path, stem: str, form) -> dict:
    obj = json.loads((data / (stem + ".json")).read_text())
    return {"algebra": {k: obj[k] for k in ("dim", "labels", "bracket")}, "form": form}


def ladder_rungs(data: Path) -> dict:
    return {
        "sl2": fixture_rung(data, "manin_sl2_trace", [[0, 0, 1], [0, 2, 0], [1, 0, 0]]),
        "so3": fixture_rung(data, "manin_so3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "gl2": gl_rung(2),
        "gl3": gl_rung(3),
    }


def gl_subalgebras(m: int) -> dict:
    n = m * m

    def unit(a):
        return [1 if b == a else 0 for b in range(n)]
    return {"zero": [], "cartan": [unit(i * m + i) for i in range(m)],
            "borel": [unit(i * m + j) for i in range(m) for j in range(i, m)],
            "full": [unit(a) for a in range(n)]}


# ---- job bodies ------------------------------------------------------------

def cli_job(Q, argv):
    def run(ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = Q.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    return run


def _verdicts(Q, named) -> dict:
    return {k: Q.serialize.verdict_to_dict(v) for k, v in named.items()}


def manin(Q, rung):
    """(quadratic algebra, Manin quasi-triple) of a ladder rung."""
    base = Q.serialize.qb_from_dict(rung["algebra"])
    q = Q.catalog.QuadraticLieAlgebra(base.algebra, Q.tensor.rarray(rung["form"]))
    return q, Q.catalog.manin_quasi_triple(q)


def build_job(Q, key, rung):
    def run(ctx):
        ctx[key] = manin(Q, rung)
        return 0, Q.serialize.qb_to_dict(ctx[key][1])
    return run


def _qb(ctx, key):
    return ctx[key][1]


def validate_job(Q, get):
    def run(ctx):
        checks = Q.liealg.axiom_report(get(ctx))
        ok = all(v.ok for v in checks.values())
        return (0 if ok else 1), {"checks": _verdicts(Q, checks)}
    return run


def double_job(Q, get):
    def run(ctx):
        dbl = Q.double.build_double(get(ctx))
        ax = Q.double.check_double_axioms(dbl)
        return (0 if ax.ok else 1), {
            "double": Q.serialize.double_to_dict(dbl),
            "axioms": _verdicts(Q, {"jacobi": ax.jacobi, "q_invariance": ax.q_invariance})}
    return run


def twist_job(Q, get, rdict, store=None):
    def run(ctx):
        rep = Q.twisting.check_twist_iso(get(ctx), Q.serialize.rmatrix_from_dict(rdict))
        if store is not None:
            ctx[store] = (None, rep.target)
        return (0 if rep.ok else 1), {
            "twisted": Q.serialize.qb_to_dict(rep.target),
            "certificates": _verdicts(Q, {"bracket": rep.bracket_ok, "q_form": rep.q_ok,
                                          "fixes_g": rep.fixes_g})}
    return run


def product_model_job(Q, key):
    def run(ctx):
        rep = Q.catalog.product_double_model(ctx[key][0])
        return (0 if rep.ok else 1), {
            "certificates": _verdicts(Q, {"bracket": rep.bracket_ok, "form": rep.form_ok}),
            "diagonal": rep.diagonal_ok}
    return run


def twist_datum_job(Q, alg, dat, rdict):
    def run(ctx):
        qb = Q.serialize.qb_from_dict(alg)
        d = Q.serialize.datum_from_dict(dat, default_qb=qb)
        new = Q.twisting.twist_datum(d, Q.serialize.rmatrix_from_dict(rdict))
        return 0, Q.serialize.datum_to_dict(new, inline_algebra=False)
    return run


# ---- workloads -------------------------------------------------------------

def fixtures_cli(Q, rng, data: Path) -> Spec:
    spec = Spec(jobs=[])
    jobs, files = spec.jobs, spec.files

    def cli(name, argv, **kw):
        jobs.append(Job(name, cli_job(Q, argv), **kw))

    for stem in FIXTURES:
        files[stem + ".json"] = (data / (stem + ".json")).read_bytes()
    for stem, names in SHIPPED_DATUMS.items():
        for name in names:
            fname = "%s_%s.datum.json" % (stem, name)
            files[fname] = (data / fname).read_bytes()

    spec.extra["twist_equations_r"] = {}
    for stem, cat_name in FIXTURES.items():
        alg = stem + ".json"
        n = json.loads(files[alg])["dim"]
        cli(stem + ".validate", ["validate", alg], expect="pass")
        cli(stem + ".double", ["double", alg], expect="pass")
        cli(stem + ".twist_equations", ["twist-equations", alg], expect="pass")
        spec.extra["twist_equations_r"][stem] = rand_bivector(rng, n, lambda: small_frac(rng))
        cli("catalog." + stem, ["catalog", cat_name], expect="pass")
        for name in SHIPPED_DATUMS.get(stem, []):
            cli("%s.classify.%s" % (stem, name),
                ["classify", alg, "%s_%s.datum.json" % (stem, name)])
        files[stem + ".r.json"] = _dump(rand_bivector(rng, n, lambda: small_frac(rng)))
        cli(stem + ".twist", ["twist", alg, stem + ".r.json"], seeded=True)
        rows = rng.choice(SUBS[stem])
        files[stem + ".seeded.datum.json"] = _dump(
            datum(rows, rand_bivector(rng, n, lambda: small_frac(rng))))
        cli(stem + ".classify.seeded", ["classify", alg, stem + ".seeded.datum.json"],
            seeded=True)
        if stem in SEMISIMPLE:
            obj = json.loads(files[alg])
            j, k = sorted(rng.sample(range(n), 2))
            obj["delta"] = perturb(obj["delta"], [rng.randrange(n), j, k],
                                   rand_frac(rng, 3, (1, 2)))
            bad = stem + ".delta_perturbed"
            files[bad + ".json"] = _dump(obj)
            cli(bad + ".validate", ["validate", bad + ".json"], expect="fail", seeded=True)
            cli(bad + ".double", ["double", bad + ".json"], expect="fail", seeded=True)

    malformed = {
        "bad_json": b'{"dim": 3, "bracket": [',
        "bad_utf8": b'\xff\xfe{"dim": 1}',
        "no_dim": _dump({"bracket": []}),
        "bracket_out_of_range": _dump({"dim": 2, "bracket": [[0, 1, 5, "1"]]}),
        "bracket_arity": _dump({"dim": 2, "bracket": [[0, 1, "1"]]}),
        "zero_denominator": _dump({"dim": 2, "bracket": [[0, 1, 1, "1/0"]]}),
        "delta_not_increasing": _dump({"dim": 2, "delta": [[0, 1, 0, "1"]]}),
    }
    defects = {   # accepted or crashing today; the contract says exit 2
        "dim_null": (_dump({"dim": None}), "TypeError on a null dim"),
        "index_null": (_dump({"dim": 2, "bracket": [[0, None, 1, "1"]]}),
                       "TypeError on a null index"),
        "float_index": (_dump({"dim": 2, "bracket": [[0, 1.9, 1, "1"]]}),
                        "float index truncated and accepted"),
        "dim_true": (_dump({"dim": True}), "boolean dim accepted as 1"),
        "labels_wrong_length": (_dump({"dim": 2, "labels": ["x"],
                                       "bracket": [[0, 1, 1, "1"]]}),
                                "labels of the wrong length accepted"),
    }
    for name, raw in malformed.items():
        files["malformed_%s.json" % name] = raw
        cli("malformed." + name, ["validate", "malformed_%s.json" % name],
            expect="input_error")
    for name, (raw, why) in defects.items():
        files["malformed_%s.json" % name] = raw
        cli("malformed." + name, ["validate", "malformed_%s.json" % name],
            expect="input_error", defect=why)
    files["r_diagonal.json"] = _dump({"dim": 3, "r": [[1, 1, "1"]]})
    files["r_wrong_dim.json"] = _dump({"dim": 2, "r": [[0, 1, "1"]]})
    files["datum_bad_row.json"] = _dump({"h": [["1", "0"]], "r": []})
    cli("malformed.missing_file", ["validate", "no_such_file.json"], expect="input_error")
    cli("malformed.catalog_name", ["catalog", "gl(7)"], expect="input_error")
    cli("malformed.r_diagonal", ["twist", "manin_so3.json", "r_diagonal.json"],
        expect="input_error")
    cli("malformed.r_wrong_dim", ["twist", "manin_so3.json", "r_wrong_dim.json"],
        expect="input_error")
    cli("malformed.datum_bad_row", ["classify", "manin_so3.json", "datum_bad_row.json"],
        expect="input_error")
    spec.extra["algebras"] = {stem: json.loads(files[stem + ".json"]) for stem in FIXTURES}
    return spec


def manin_ladder(Q, rng, data: Path) -> Spec:
    """Sparse inputs with 1-bit rationals: Manin quasi-triples twisted by
    two +-1 entries."""
    spec = Spec(jobs=[])
    for key, rung in ladder_rungs(data).items():
        n = rung["algebra"]["dim"]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = set(rng.sample(pairs, 2))
        r = bivector(n, [rng.choice((1, -1)) if p in chosen else 0 for p in pairs])

        def get(ctx, key=key):
            return _qb(ctx, key)
        spec.jobs += [
            Job(key + ".build", build_job(Q, key, rung), expect="pass"),
            Job(key + ".validate", validate_job(Q, get), expect="pass"),
            Job(key + ".double", double_job(Q, get), expect="pass"),
            Job(key + ".twist", twist_job(Q, get, r), expect="pass", seeded=True),
            Job(key + ".product_model", product_model_job(Q, key), expect="pass"),
        ]
    return spec


def _dense(rng):
    # numerators up to 2^16 over mixed small denominators: entries of the
    # twisted doubles reach about 50 bits and their products overflow int64
    return lambda: rand_frac(rng, 16, (1, 2, 3, 4, 5, 6, 7, 8))


def twisted_ladder(Q, rng, data: Path) -> Spec:
    """The ladder twisted by dense bivectors with large rationals, plus
    single-entry perturbations of the twisted algebras that must fail."""
    spec = Spec(jobs=[])
    for key, rung in ladder_rungs(data).items():
        n = rung["algebra"]["dim"]
        r1 = rand_bivector(rng, n, _dense(rng))
        r2 = rand_bivector(rng, n, _dense(rng))
        tkey = key + ".twisted"

        def src(ctx, key=key):
            return _qb(ctx, key)

        def tgt(ctx, tkey=tkey):
            return _qb(ctx, tkey)
        spec.jobs += [
            Job(key + ".build", build_job(Q, key, rung), expect="pass"),
            Job(key + ".twist", twist_job(Q, src, r1, store=tkey), expect="pass", seeded=True),
            Job(tkey + ".validate", validate_job(Q, tgt), expect="pass", seeded=True),
            Job(tkey + ".double", double_job(Q, tgt), expect="pass", seeded=True),
            Job(tkey + ".twist", twist_job(Q, tgt, r2), expect="pass", seeded=True),
        ]
        if key == "gl3":
            continue     # its perturbed controls would add ~3.5 s to a 5 s pass
        twisted = Q.twisting.twist(manin(Q, rung)[1], Q.serialize.rmatrix_from_dict(r1))
        obj = Q.serialize.qb_to_dict(twisted)
        eps = rand_frac(rng, 16, (1, 2, 3))
        if key == "gl2":
            # the invariant 3-vectors of gl(2) are the multiples of one
            # two-term vector, so no single phi entry is invariant and the
            # quasi-co-Jacobi identity must fail
            what = key + ".phi_perturbed"
            obj["phi"] = perturb(obj["phi"], sorted(rng.sample(range(n), 3)), eps)
        else:
            what = key + ".delta_perturbed"     # see SEMISIMPLE
            j, k = sorted(rng.sample(range(n), 2))
            obj["delta"] = perturb(obj["delta"], [rng.randrange(n), j, k], eps)

        def broken(ctx, obj=obj):
            return Q.serialize.qb_from_dict(obj)
        spec.jobs += [
            Job(what + ".validate", validate_job(Q, broken), expect="fail", seeded=True),
            Job(what + ".double", double_job(Q, broken), expect="fail", seeded=True),
        ]
    return spec


def classify_twist(Q, rng, data: Path) -> Spec:
    spec = Spec(jobs=[])
    files = spec.files
    algebras = {}
    for stem in ("manin_sl2_trace", "sl2_coboundary", "sl2_invariant_phi_1",
                 "manin_so3", "aff1"):
        files[stem + ".json"] = (data / (stem + ".json")).read_bytes()
        algebras[stem] = (json.loads(files[stem + ".json"]), SUBS[stem])
    for m in (2, 3):
        obj = Q.serialize.qb_to_dict(manin(Q, gl_rung(m))[1])
        files["gl%d.json" % m] = Q.serialize.dumps_canonical(obj).encode()
        algebras["gl%d" % m] = (obj, list(gl_subalgebras(m).values()))

    spec.extra["algebras"] = {k: v[0] for k, v in algebras.items()}
    for stem, (obj, subs) in algebras.items():
        n = obj["dim"]
        for idx, rows in enumerate(subs):
            fname = "%s.h%d.datum.json" % (stem, idx)
            files[fname] = _dump(datum(rows, rand_bivector(rng, n, lambda: small_frac(rng))))
            spec.jobs.append(Job("%s.classify.h%d" % (stem, idx),
                                 cli_job(Q, ["classify", stem + ".json", fname]),
                                 seeded=True))
    spec.jobs.append(Job("gl3.twist_equations",
                         cli_job(Q, ["twist-equations", "gl3.json"]), expect="pass"))
    spec.extra["twist_equations_r"] = {"gl3": rand_bivector(rng, 9, lambda: small_frac(rng))}
    spec.extra["twist_datum"] = {}
    for stem in ("manin_sl2_trace", "manin_so3", "aff1", "gl2", "gl3"):
        obj, subs = algebras[stem]
        n = obj["dim"]
        # a fixed h: on gl(3) the cost of twist_datum grows steeply with dim h
        dat = datum(subs[1], rand_bivector(rng, n, lambda: small_frac(rng)))
        r = rand_bivector(rng, n, lambda: small_frac(rng))
        spec.extra["twist_datum"][stem] = (dat, r)
        spec.jobs.append(Job(stem + ".twist_datum", twist_datum_job(Q, obj, dat, r),
                             expect="pass", seeded=True))
    return spec


WORKLOADS = {"fixtures_cli": fixtures_cli, "manin_ladder": manin_ladder,
            "twisted_ladder": twisted_ladder, "classify_twist": classify_twist}


def make(workload: str, Q, seed: int, data: Path) -> Spec:
    """The workload's jobs and inputs; the same seed gives the same inputs."""
    return WORKLOADS[workload](Q, random.Random("%s:%d" % (workload, seed)), data)
