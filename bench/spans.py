"""Span tracing of the quasilie modules from outside the package.

`Tracer.install` rebinds each traced function, and each traced method,
in every loaded `quasilie.*` namespace that holds the same object, so a
call made through a module global, a by-name import or a class method
all land in the same wrapper.  A wrapper records one span (name, start,
end, parent, job, pass) only while a job is running, so set-up and the
output checks stay unrecorded.

Work counts for the dense kernels are computed from nonzero masks of the
arguments.  The clock is paused while they are computed, so spans and
job times exclude them.  Per-scalar helpers (`as_rational`,
`Tensor.__init__`, `Poly` operators) are deliberately left unwrapped:
their call overhead would swamp the kernels they sit in.

The benchmark runs one caller in one thread with no queue, so the time
work waits for a layer is zero by construction and is not reported.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED = {
    "cli": ["cmd_validate", "cmd_double", "cmd_classify", "cmd_twist",
            "cmd_twist_equations", "cmd_catalog", "build_parser"],
    "serialize": ["qb_from_dict", "datum_from_dict", "rmatrix_from_dict",
                  "qb_to_dict", "double_to_dict", "verdict_to_dict",
                  "dumps_canonical"],
    "liealg": ["check_jacobi", "check_cocycle", "check_quasi_cojacobi",
               "check_pentagon", "closed_under_bracket", "cyb",
               "ad_tensor_components", "half_alt_delta"],
    "tensor": ["alt_components", "apply_linear", "Tensor.is_antisymmetric"],
    "subspace": ["rref", "Subspace.intersect", "solve_exact"],
    "double": ["build_double", "check_double_axioms", "certify_bracket_map",
               "is_subalgebra"],
    "homogeneous": ["is_quasi_poisson_datum", "dirac_span", "obstruction",
                    "stability_residuals"],
    "twisting": ["twist", "check_twist_iso", "twist_datum", "twist_equations"],
    "catalog": ["manin_quasi_triple", "product_double_model", "builtin"],
}


# ---- work counts -----------------------------------------------------------

def _mask(arr) -> np.ndarray:
    return np.asarray(arr != 0, dtype=np.int64)


def _tensordot_counts(ma, mb, axis_a, axis_b):
    """(dense multiplications, multiplications with two nonzero factors,
    structural nonzero mask of the result) of np.tensordot over one axis
    pair, mirroring the call in the kernel."""
    a = np.moveaxis(ma, axis_a, 0)
    b = np.moveaxis(mb, axis_b, 0)
    rest = a.shape[1:] + b.shape[1:]
    a = a.reshape(a.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    dense = a.shape[0] * a.shape[1] * b.shape[1]
    useful = int((a.sum(axis=1) * b.sum(axis=1)).sum())
    return dense, useful, np.asarray((a.T @ b) > 0, dtype=np.int64).reshape(rest)


def _sum_counts(*steps):
    return sum(s[0] for s in steps), sum(s[1] for s in steps)


def jacobi_counts(g):
    c = _mask(g.c)
    return _sum_counts(_tensordot_counts(c, c, 2, 0))


def bracket_map_counts(src, dst, m):
    m, cs, cd = _mask(m), _mask(src.c), _mask(dst.c)
    lhs = _tensordot_counts(cs, m, 2, 1)
    u = _tensordot_counts(m, cd, 0, 0)
    rhs = _tensordot_counts(m, u[2], 0, 1)
    return _sum_counts(lhs, u, rhs)


def cyb_counts(g, r):
    c, r = _mask(g.c), _mask(r.data)
    u1 = _tensordot_counts(r, c, 0, 0)
    t1 = _tensordot_counts(r, u1[2], 0, 1)
    u2 = _tensordot_counts(r, c, 1, 0)
    t2 = _tensordot_counts(r, u2[2], 0, 1)
    t3 = _tensordot_counts(r, u2[2], 1, 1)
    return _sum_counts(u1, t1, u2, t2, u2, t3)


COUNTED = {
    "liealg.check_jacobi": jacobi_counts,
    "double.certify_bracket_map": bracket_map_counts,
    "liealg.cyb": cyb_counts,
}


def layer_metric_names() -> list:
    """Every per-layer metric with its unit, in a fixed order."""
    out = []
    for module, funcs in TRACED.items():
        for fn in funcs:
            out.append(("%s.%s.calls" % (module, fn), "count"))
            out.append(("%s.%s.self_s" % (module, fn), "s"))
        out.append(("%s.self_s" % module, "s"))
    for name in COUNTED:
        out += [(name + ".mul_dense", "count"), (name + ".mul_useful", "count"),
                (name + ".useful_ratio", "ratio")]
    out += [("values.max_bits", "bits"), ("trace.overhead_ratio", "ratio"),
            ("trace.coverage_ratio", "ratio")]
    return out


# ---- spans -----------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job, pass]
        self.jobs = []           # [job, pass, start, end]
        self.counts = []         # [name, job, pass, dense, useful]
        self._stack = []
        self._paused = 0.0
        self._job = None
        self._pass = None
        self._bindings = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def begin_job(self, job: str, pass_no: int):
        self._job, self._pass = job, pass_no
        self.jobs.append([job, pass_no, self.clock(), None])

    def end_job(self) -> float:
        rec = self.jobs[-1]
        rec[3] = self.clock()
        self._job = self._pass = None
        self._stack.clear()
        return rec[3] - rec[2]

    def _wrap(self, name, fn):
        counter = COUNTED.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            if counter is not None:
                t0 = time.perf_counter()
                dense, useful = counter(*args, **kwargs)
                tracer.counts.append([name, tracer._job, tracer._pass, dense, useful])
                tracer._paused += time.perf_counter() - t0
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = [name, tracer.clock(), None, parent, tracer._job, tracer._pass]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                rec[2] = tracer.clock()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._bindings:
            return
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "quasilie" or name.startswith("quasilie.")}
        for module, funcs in TRACED.items():
            home = mods["quasilie." + module]
            for fn_name in funcs:
                name = "%s.%s" % (module, fn_name)
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._bindings.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(name, orig))
                    continue
                orig = getattr(home, fn_name)
                wrapper = self._wrap(name, orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._bindings.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._bindings):
            setattr(owner, attr, orig)
        self._bindings = []

    # ---- aggregation -------------------------------------------------------

    def layer_metrics(self, traced_passes, traced_walls, untraced_walls,
                      max_bits) -> dict:
        """Per-pass medians of self time and per-pass call and work counts
        (identical on every pass, since the jobs repeat)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(Counter)
        for i, (name, start, end, _, _, p) in enumerate(self.spans):
            self_s[p][name] += (end - start) - child[i]
            calls[p][name] += 1
        work = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for name, _, p, dense, useful in self.counts:
            work[p][name][0] += dense
            work[p][name][1] += useful

        first = traced_passes[0]
        out = {}
        for module, funcs in TRACED.items():
            mod_total = [0.0] * len(traced_passes)
            for fn in funcs:
                name = "%s.%s" % (module, fn)
                per_pass = [self_s[p][name] for p in traced_passes]
                mod_total = [a + b for a, b in zip(mod_total, per_pass)]
                out[name + ".calls"] = calls[first][name]
                out[name + ".self_s"] = statistics.median(per_pass)
            out[module + ".self_s"] = statistics.median(mod_total)
        for name in COUNTED:
            dense, useful = work[first][name]
            out[name + ".mul_dense"] = dense
            out[name + ".mul_useful"] = useful
            out[name + ".useful_ratio"] = useful / dense if dense else 0.0

        job_time = covered = 0.0
        top = defaultdict(float)
        for name, start, end, parent, job, p in self.spans:
            if parent is None:
                top[(job, p)] += end - start
        for job, p, start, end in self.jobs:
            if p in traced_passes:
                job_time += end - start
                covered += top[(job, p)]
        out["values.max_bits"] = max_bits
        out["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls))
        out["trace.coverage_ratio"] = covered / job_time if job_time else 0.0
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "job", "pass"],
            "spans": self.spans,
            "job_fields": ["job", "pass", "start_s", "end_s"],
            "jobs": self.jobs,
            "count_fields": ["name", "job", "pass", "mul_dense", "mul_useful"],
            "counts": self.counts,
        }
