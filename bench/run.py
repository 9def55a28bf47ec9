#!/usr/bin/env python3
"""quasilie benchmark: one caller in a closed loop, in process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`.  A run sets up (import, seeded input generation, one checked
warm-up pass), then repeats passes over the workload's jobs for about
`--seconds` seconds, at least five times.  Every pass's report digests
must equal the warm-up's, which itself is checked against the goldens and
the theorem cross-checks.  The last stdout line is one JSON object:

    {"correct": bool, "attempted": jobs, "failed": jobs, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced passes alternate and the metrics are the per-layer
ones; the spans are written to `.bench_run/trace-<workload>.json`.
`--write-goldens` records the warm-up digests of the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

RUN_DIR = ROOT / ".bench_run"
GOLDENS = BENCH / "goldens.json"
DEFAULT_SEED = 0
MIN_PASSES = 5
SETUP_REPEATS = 3
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB")]
MODULES = ("cli", "serialize", "liealg", "tensor", "subspace", "double",
           "homogeneous", "twisting", "catalog")


def import_program():
    src = ROOT / "src"
    if not (src / "quasilie" / "__init__.py").is_file():
        raise SystemExit("bench: no quasilie sources under %s" % src)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import importlib
    mods = {m: importlib.import_module("quasilie." + m) for m in MODULES}
    elapsed = time.perf_counter() - t0
    if Path(mods["cli"].__file__).resolve().parent != src / "quasilie":
        raise SystemExit("bench: quasilie was imported from outside %s" % src)
    return SimpleNamespace(**mods), elapsed


def generate(workload, Q, seed, workdir: Path):
    """Seeded inputs, written to a fresh directory; returns the spec."""
    spec = workloads.make(workload, Q, seed, ROOT / "src" / "quasilie" / "data")
    workdir.mkdir(parents=True)
    for name, raw in spec.files.items():
        (workdir / name).write_bytes(raw)
    return spec


def run_pass(jobs, tracer=None, pass_no=0):
    """One pass in job order; returns (wall seconds, job seconds, outcomes)."""
    gc.collect()
    ctx, times, outcomes = {}, [], {}
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.name, pass_no)
        start = time.perf_counter()
        try:
            code, payload = job.fn(ctx)
            exc = None
        except Exception as e:  # a crash is an outcome the benchmark counts
            code, payload, exc = None, None, "%s: %s" % (type(e).__name__, e)
        times.append(tracer.end_job() if tracer is not None
                     else time.perf_counter() - start)
        outcomes[job.name] = (code, payload, exc)
    return time.perf_counter() - t0, times, outcomes


def judge(spec, outcomes, reference):
    """Errors and wrong outcomes of one pass; `reference` maps job name to
    the digest the report must have (None: no report expected)."""
    errors, wrong, reports, digests = {}, {}, {}, {}
    for job in spec.jobs:
        code, payload, exc = outcomes[job.name]
        err, bad = checks.classify_outcome(job, code, exc)
        if err:
            errors[job.name] = err
        if bad:
            wrong[job.name] = bad
        if exc is None and code in (0, 1):
            try:
                reports[job.name] = checks.report_of(payload)
            except ValueError as e:
                wrong[job.name] = "unparsable report: %s" % e
                continue
            digests[job.name] = checks.digest(payload)
        if job.name in reference and not err and digests.get(job.name) != reference[job.name]:
            wrong.setdefault(job.name, "report digest differs from the reference")
    return errors, wrong, reports, digests


def goldens_for(workload, spec, seed):
    if not GOLDENS.is_file():
        return {}
    table = json.loads(GOLDENS.read_text())
    recorded = table["digests"].get(workload, {})
    return {job.name: recorded.get(job.name) for job in spec.jobs
            if job.expect != "input_error" and (seed == table["seed"] or not job.seeded)}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args(argv)
    if args.write_goldens and args.seed != DEFAULT_SEED:
        ap.error("goldens are recorded for the default seed %d" % DEFAULT_SEED)

    os.chdir(ROOT)
    Q, import_s = import_program()
    spans = None
    if args.trace:
        import spans  # after the program, so numpy's import is timed above
    base = RUN_DIR / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    try:
        gen_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            spec = generate(args.workload, Q, args.seed, base / str(k))
            gen_s.append(time.perf_counter() - t0)
        os.chdir(base / str(SETUP_REPEATS - 1))
        warm_s, _, outcomes = run_pass(spec.jobs)
        setup_s = import_s + statistics.median(gen_s) + warm_s

        golden = {} if args.write_goldens else goldens_for(args.workload, spec, args.seed)
        errors, wrong, reports, ref = judge(spec, outcomes, golden)
        for name, msg in (checks.generic_checks(reports)
                          + checks.workload_checks(args.workload, Q, spec, reports)):
            wrong.setdefault(name, msg)
        bits = max((checks.max_bits(r) for r in reports.values()), default=0)
        if args.write_goldens:
            return write_goldens(args.workload, spec, ref, errors, wrong)
        result = measure(args, spec, ref, wrong, spans)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(base, ignore_errors=True)

    defect = {job.name: job.defect for job in spec.jobs}
    for name, msg in sorted(errors.items()):
        if not defect[name]:
            print("warm-up error: %s: %s" % (name, msg))
    for name, msg in sorted(wrong.items()):
        print("warm-up wrong: %s: %s" % (name, msg))
    ok = not result["wrong"] and all(defect[n] for n in result["error_jobs"])
    known = sorted(n for n in result["error_jobs"] if defect[n])
    if known:
        print("known input-contract defects (counted as failed): "
              + "; ".join("%s (%s)" % (n, defect[n]) for n in known))
    metrics = {}
    if args.trace:
        layer = result["tracer"].layer_metrics(result["traced"], result["traced_walls"],
                                               result["untraced_walls"], bits)
        for name, unit in spans.layer_metric_names():
            metrics[name] = {"value": layer[name], "unit": unit}
        RUN_DIR.mkdir(exist_ok=True)
        dump = result["tracer"].dump()
        dump.update(workload=args.workload, seed=args.seed, metrics=layer)
        (RUN_DIR / ("trace-%s.json" % args.workload)).write_text(json.dumps(dump))
    else:
        # each job's median over the timed passes, so that a burst of load
        # on the host during one pass moves none of the figures
        times = [statistics.median(per_job) for per_job in zip(*result["untraced_job_times"])]
        values = {
            "setup_s": setup_s,
            "wall_s": sum(times),
            "job_p50_ms": 1e3 * statistics.median(times),
            "job_p90_ms": 1e3 * percentile(times, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    attempted = result["attempted"]
    print("workload=%s seed=%d passes=%d jobs/pass=%d job samples=%d"
          % (args.workload, args.seed, result["passes"], len(spec.jobs), attempted))
    print("pass walls (s): " + " ".join("%.4f" % w for w in result["untraced_walls"]))
    summary = {name: m["value"] for name, m in metrics.items() if not args.trace}
    summary["error_ratio"] = result["failed"] / attempted
    summary["wrong_ratio"] = result["wrong"] / attempted
    units = dict(END_TO_END, error_ratio="ratio", wrong_ratio="ratio")
    print("  ".join("%s=%.6g %s" % (k, v, units[k]) for k, v in summary.items()))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def measure(args, spec, ref, warm_wrong, spans):
    """Timed passes; with tracing, untraced and traced passes alternate."""
    tracer = spans.Tracer() if args.trace else None
    walls, traced_walls, untraced_walls, traced = [], [], [], []
    untraced_job_times = []
    attempted = failed = n_wrong = 0
    error_jobs = set()
    t_start = time.perf_counter()
    pass_no = 0
    while True:
        # start another pass only while at least half of it fits in time
        done = pass_no and (time.perf_counter() - t_start + walls[-1] / 2 > args.seconds)
        if args.trace:
            if done and len(traced) >= 2 and len(untraced_walls) >= 2:
                break
        elif done and pass_no >= MIN_PASSES:
            break
        use_trace = bool(args.trace) and pass_no % 2 == 1
        if use_trace:
            tracer.install()
        try:
            wall, times, outcomes = run_pass(spec.jobs, tracer if use_trace else None, pass_no)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced_walls.append(wall)
            traced.append(pass_no)
        else:
            untraced_walls.append(wall)
            untraced_job_times.append(times)
        walls.append(wall)
        errors, wrong, _, _ = judge(spec, outcomes, ref)
        wrong = set(wrong) | set(warm_wrong)
        attempted += len(spec.jobs)
        failed += len(errors)
        n_wrong += len(wrong)
        error_jobs |= set(errors)
        for name in wrong:
            print("wrong in pass %d: %s" % (pass_no, name), file=sys.stderr)
        pass_no += 1
    return {"untraced_job_times": untraced_job_times,
            "attempted": attempted, "failed": failed, "wrong": n_wrong,
            "error_jobs": error_jobs, "passes": pass_no, "tracer": tracer,
            "traced": traced, "traced_walls": traced_walls,
            "untraced_walls": untraced_walls}


def write_goldens(workload, spec, ref, errors, wrong) -> int:
    defect = {job.name: job.defect for job in spec.jobs}
    unexpected = [n for n in errors if not defect[n]]
    if wrong or unexpected:
        print("not recording goldens: wrong %s, errors %s" % (sorted(wrong), unexpected),
              file=sys.stderr)
        return 1
    table = (json.loads(GOLDENS.read_text()) if GOLDENS.is_file()
             else {"seed": DEFAULT_SEED, "digests": {}})
    table["digests"][workload] = {job.name: ref.get(job.name) for job in spec.jobs
                                  if job.expect != "input_error"}
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("recorded %d goldens for %s" % (len(table["digests"][workload]), workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
