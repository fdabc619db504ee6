"""Outside-in layer trace of the rkupdate library.

The library has no instrumentation of its own, so the trace wraps its public
functions from outside: every binding of a wrapped function is replaced, in
every ``rkupdate`` module that imported it by name, and restored afterwards.
A span is ``[name, start, end, parent, attrs]``; spans stay in memory until
the run ends.  Self time is a span's duration minus the durations of its
direct children, so the self times of one pass add up to the traced time.
"""

import contextlib
import functools
import json
import statistics
import sys
import time
import types
from collections import defaultdict

import rkupdate.arnoldi as arnoldi
import rkupdate.bounds as bounds
import rkupdate.cli as cli
import rkupdate.dense as dense
import rkupdate.dpr1 as dpr1
import rkupdate.poles as poles
import rkupdate.signsylv as signsylv
import rkupdate.updater as updater


def lu_flops(n):
    """Real flops of one complex LU of order n: n**3/3 complex multiply-adds,
    8 real flops each."""
    return 8.0 / 3.0 * n**3


def _order(args, kwargs):
    return {"n": int(args[0].shape[0])}


def _solve_attrs(args, kwargs):
    Y = args[1]
    adjoint = kwargs.get("adjoint", args[2] if len(args) > 2 else False)
    return {"cols": int(Y.shape[1]) if getattr(Y, "ndim", 1) == 2 else 1,
            "adjoint": bool(adjoint)}


def _advance_attrs(args, kwargs):
    return {"cols": int(args[0].block_size)}


# (module, function, span name, attrs); attrs maps the call's arguments to
# the span's attributes
FUNCTIONS = [
    (dense, "shifted_factorize", "dense.shifted_factorize", _order),
    (dense, "qr_orthonormalize", "dense.qr_orthonormalize", None),
    (dense, "funm_small", "dense.funm_small", None),
    (dense, "funm_block_triangular", "dense.funm_block_triangular", None),
    (updater, "update_hermitian", "updater.update_hermitian", None),
    (updater, "project_update", "updater.project_update", None),
    (updater, "padded_difference_norm", "updater.padded_difference_norm", None),
    (updater, "run_update", "updater.run_update", None),
    (dpr1, "funm_diff_rank1", "dpr1.funm_diff_rank1", None),
    (dpr1, "funm_dpr1", "reference.funm_dpr1", None),
    (signsylv, "sign_update", "signsylv.sign_update", None),
    (signsylv, "sylvester_solve_krylov", "signsylv.sylvester_solve_krylov", None),
    (signsylv, "sylvester_dense", "signsylv.sylvester_dense", None),
    (cli, "main", "cli.main", None),
] + [
    (mod, name, f"{mod.__name__.rsplit('.', 1)[1]}.{name}", None)
    for mod in (bounds, poles)
    for name in mod.__all__
    if isinstance(getattr(mod, name), types.FunctionType)
]

# (module, class, method, span name, attrs)
METHODS = [
    (dense, "ShiftedFactorization", "solve", "dense.solve", _solve_attrs),
    (arnoldi, "KrylovBasis", "advance", "arnoldi.advance", _advance_attrs),
    (arnoldi, "FactorizationCache", "factorization", "arnoldi.cache.factorization", None),
]

#: (name, unit) of every per-layer metric, in the order they are printed
LAYER_METRICS = [
    ("dense.shifted_factorize.calls", "count"),
    ("dense.shifted_factorize.s", "s"),
    ("dense.shifted_factorize.gflop_per_s", "GFLOP/s"),
    ("dense.solve.calls", "count"),
    ("dense.solve.cols", "count"),
    ("dense.solve.s", "s"),
    ("dense.solve.adjoint_frac", "ratio"),
    ("dense.qr_orthonormalize.s", "s"),
    ("dense.funm_small.calls", "count"),
    ("dense.funm_small.s", "s"),
    ("dense.funm_block_triangular.s", "s"),
    ("dense.norm2_nxn.calls", "count"),
    ("dense.norm2_nxn.s", "s"),
    ("arnoldi.advance.calls", "count"),
    ("arnoldi.advance.self_s", "s"),
    ("arnoldi.basis_cols", "count"),
    ("arnoldi.cache.lookups", "count"),
    ("arnoldi.cache.created", "count"),
    ("arnoldi.cache.reuse_frac", "ratio"),
    ("arnoldi.cache.bytes", "B"),
    ("updater.update_hermitian.self_s", "s"),
    ("updater.project_update.self_s", "s"),
    ("updater.padded_difference_norm.calls", "count"),
    ("updater.padded_difference_norm.s", "s"),
    ("updater.run_update.self_s", "s"),
    ("updater.retries", "count"),
    ("dpr1.funm_diff_rank1.calls", "count"),
    ("dpr1.funm_diff_rank1.s", "s"),
    ("dpr1.eigh_dpr1.order_sum", "count"),
    ("signsylv.sign_update.self_s", "s"),
    ("signsylv.sylvester_solve_krylov.self_s", "s"),
    ("signsylv.sylvester_dense.calls", "count"),
    ("signsylv.sylvester_dense.s", "s"),
    ("bounds.s", "s"),
    ("poles.s", "s"),
    ("reference.funm_dpr1.s", "s"),
    ("cli.self_s", "s"),
]


class Tracer:
    """Span recorder whose wrappers are installed only while tracing."""

    def __init__(self):
        self.passes = []        # one span list per traced pass
        self.big_n = None       # norm2 operands at least this large count as n x n
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.passes[-1]
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   attrs(args, kwargs) if attrs else {}]
            self._stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[4]["error"] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _wrap_norm2(self, fn):
        traced = self._wrap("dense.norm2_nxn", fn)

        @functools.wraps(fn)
        def norm2(M):
            shape = getattr(M, "shape", ())
            if len(shape) == 2 and min(shape) >= self.big_n:
                return traced(M)
            return fn(M)
        return norm2

    def _wrap_eigh_dpr1(self, fn):
        # not a span: adds the secular problem's order to the enclosing
        # funm_diff_rank1 span, whose time includes this call
        @functools.wraps(fn)
        def eigh_dpr1(d, *args, **kwargs):
            if self._stack:
                rec = self.passes[-1][self._stack[-1]]
                if rec[0] == "dpr1.funm_diff_rank1":
                    rec[4]["order"] = rec[4].get("order", 0) + len(d)
            return fn(d, *args, **kwargs)
        return eigh_dpr1

    def _patch_everywhere(self, module, attr, wrapper):
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name != "rkupdate" and not name.startswith("rkupdate."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    @contextlib.contextmanager
    def tracing(self):
        """Record one pass: install every wrapper, yield, restore the library."""
        self.passes.append([])
        try:
            for module, attr, name, attrs in FUNCTIONS:
                self._patch_everywhere(module, attr,
                                       self._wrap(name, getattr(module, attr), attrs))
            self._patch_everywhere(dense, "norm2", self._wrap_norm2(dense.norm2))
            self._patch_everywhere(dpr1, "eigh_dpr1", self._wrap_eigh_dpr1(dpr1.eigh_dpr1))
            for module, cls_name, method, name, attrs in METHODS:
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, attrs))
            yield
        finally:
            for owner, key, value in reversed(self._patches):
                setattr(owner, key, value)
            self._patches.clear()
            self._stack.clear()

    def write_jsonl(self, fh, t0):
        """One JSON object per span; times in seconds from t0."""
        for p, spans in enumerate(self.passes):
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                fh.write(json.dumps({"pass": p, "id": i, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, **attrs}) + "\n")


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (see LAYER_METRICS)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(selfs[i] for i in by_name[name])

    def prefix_secs(prefix):
        return sum(s for rec, s in zip(spans, selfs) if rec[0].startswith(prefix))

    def attr_sum(name, key):
        return sum(spans[i][4].get(key, 0) for i in by_name[name])

    fac = by_name["dense.shifted_factorize"]
    fac_s = secs("dense.shifted_factorize")
    flops = sum(lu_flops(spans[i][4]["n"]) for i in fac)
    solves = by_name["dense.solve"]
    lookups = set(by_name["arnoldi.cache.factorization"])
    cached = [i for i in fac if spans[i][3] in lookups]
    retries = sum(1 for name in ("updater.update_hermitian", "updater.project_update")
                  for i in by_name[name]
                  if spans[i][4].get("error") == "SingularityOnSpectrum")
    return {
        "dense.shifted_factorize.calls": calls("dense.shifted_factorize"),
        "dense.shifted_factorize.s": fac_s,
        "dense.shifted_factorize.gflop_per_s": flops / fac_s / 1e9 if fac_s > 0 else 0.0,
        "dense.solve.calls": len(solves),
        "dense.solve.cols": attr_sum("dense.solve", "cols"),
        "dense.solve.s": secs("dense.solve"),
        "dense.solve.adjoint_frac":
            attr_sum("dense.solve", "adjoint") / len(solves) if solves else 0.0,
        "dense.qr_orthonormalize.s": secs("dense.qr_orthonormalize"),
        "dense.funm_small.calls": calls("dense.funm_small"),
        "dense.funm_small.s": secs("dense.funm_small"),
        "dense.funm_block_triangular.s": secs("dense.funm_block_triangular"),
        "dense.norm2_nxn.calls": calls("dense.norm2_nxn"),
        "dense.norm2_nxn.s": secs("dense.norm2_nxn"),
        "arnoldi.advance.calls": calls("arnoldi.advance"),
        "arnoldi.advance.self_s": secs("arnoldi.advance"),
        "arnoldi.basis_cols": attr_sum("arnoldi.advance", "cols"),
        "arnoldi.cache.lookups": len(lookups),
        "arnoldi.cache.created": len(cached),
        "arnoldi.cache.reuse_frac": 1.0 - len(cached) / len(lookups) if lookups else 0.0,
        "arnoldi.cache.bytes": sum(16 * spans[i][4]["n"] ** 2 for i in cached),
        "updater.update_hermitian.self_s": secs("updater.update_hermitian"),
        "updater.project_update.self_s": secs("updater.project_update"),
        "updater.padded_difference_norm.calls": calls("updater.padded_difference_norm"),
        "updater.padded_difference_norm.s": secs("updater.padded_difference_norm"),
        "updater.run_update.self_s": secs("updater.run_update"),
        "updater.retries": retries,
        "dpr1.funm_diff_rank1.calls": calls("dpr1.funm_diff_rank1"),
        "dpr1.funm_diff_rank1.s": secs("dpr1.funm_diff_rank1"),
        "dpr1.eigh_dpr1.order_sum": attr_sum("dpr1.funm_diff_rank1", "order"),
        "signsylv.sign_update.self_s": secs("signsylv.sign_update"),
        "signsylv.sylvester_solve_krylov.self_s": secs("signsylv.sylvester_solve_krylov"),
        "signsylv.sylvester_dense.calls": calls("signsylv.sylvester_dense"),
        "signsylv.sylvester_dense.s": secs("signsylv.sylvester_dense"),
        "bounds.s": prefix_secs("bounds."),
        "poles.s": prefix_secs("poles."),
        "reference.funm_dpr1.s": secs("reference.funm_dpr1"),
        "cli.self_s": secs("cli.main"),
    }


def median_layer_metrics(passes):
    """Median over traced passes of each per-layer metric."""
    per_pass = [layer_metrics(spans) for spans in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name, _ in LAYER_METRICS}
