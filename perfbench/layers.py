"""Per-layer tracing of virann from outside the package.

``instrument`` wraps public functions of virann's modules (the layers
virmod, field, evolve, annulus, rep, verify and cli) in spans.  A wrapped
name is rebound in every ``virann.*`` namespace that holds it, so calls
made between modules are traced too; suites are traced by replacing the
entries of ``verify.SUITES``.  Everything is restored on exit.
``layer_metrics`` turns the spans into the per-layer metrics that
BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager

from .spans import Tracer, totals
from .workloads import VerifyN12

MB = 1e6


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _ode_counts(args, kwargs, res):
    nfev = res.meta.get("nfev", 0)
    d = _arg(args, kwargs, 0, "path").dim
    # one right-hand side evaluation is a d x d complex matrix product
    return {"nfev": nfev, "steps": res.stepcount,
            "gflop_computed": nfev * 8 * d ** 3 / 1e9}


def _pi_field_counts(args, kwargs, res):
    X = _arg(args, kwargs, 0, "X")
    d = _arg(args, kwargs, 1, "module").dim
    # one complex d x d matrix read per mode, plus the accumulator
    return {"mb_computed": len(X.coeffs) * d * d * 16 / MB}


def _represent_counts(args, kwargs, res):
    return {"nfev": res.result.meta.get("nfev", 0)}


def spurious_nulls(module) -> int:
    """Quotiented directions where the Kac determinant has no zeros (c > 1, h > 0)."""
    c, h = module.params.as_floats()
    if not (c > 1 and h > 0):
        return 0
    return sum(len(b) for b in module.basis) - module.dim


def _build_counts(args, kwargs, res):
    full = sum(len(b) for b in res.basis)
    return {"dim_total": res.dim, "nulls": full - res.dim,
            "spurious_nulls": spurious_nulls(res),
            "lmat_mb": sum(m.nbytes for m in res.lmat_by_n.values()) / MB}


def _run_config_counts(args, kwargs, res):
    return {"rows": len(res["results"]), "rows_failed": res["counts"]["fail"]}


def _size_mb(path) -> float:
    return os.path.getsize(path) / MB if path and os.path.exists(path) else 0.0


def _cmd_build_counts(args, kwargs, res):
    return {"json_mb_written": _size_mb(args[0].out)}


def _cmd_represent_counts(args, kwargs, res):
    a = args[0]
    return {"json_mb_read": _size_mb(a.module) + _size_mb(a.element),
            "json_mb_written": _size_mb(a.out)}


#: (module, public name, span name, counter); cli._validate is where the
#: CLI calls jsonschema
TARGETS = [
    ("evolve", "ode_exp", "evolve.ode_exp", _ode_counts),
    ("evolve", "parameter_derivative", "evolve.parameter_derivative", None),
    ("field", "pi_field", "field.pi_field", _pi_field_counts),
    ("field", "qei_bound", "field.qei_bound", None),
    ("rep", "represent", "rep.represent", _represent_counts),
    ("rep", "segal_residual", "rep.segal_residual", None),
    ("annulus", "framing_path", "annulus.framing_path", None),
    ("annulus", "element_from_path", "annulus.element_from_path", None),
    ("annulus", "compose", "annulus.compose", None),
    ("annulus", "bigon_factor", "annulus.bigon_factor", None),
    ("virmod", "build_module", "virmod.build_module", _build_counts),
    ("virmod", "check_unitarity", "virmod.check_unitarity", None),
    ("virmod", "module_to_dict", "virmod.module_to_dict", None),
    ("virmod", "module_from_dict", "virmod.module_from_dict", None),
    ("verify", "run_config", "verify.run_config", _run_config_counts),
    ("cli", "_validate", "cli.validate", None),
    ("cli", "cmd_build", "cli.cmd_build", _cmd_build_counts),
    ("cli", "cmd_represent", "cli.cmd_represent", _cmd_represent_counts),
]


def _wrap(tracer: Tracer, fn, span_name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(span_name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            span.counts.update(counter(args, kwargs, res))
        return res
    return traced


def _virann_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "virann" or name.startswith("virann.")]


@contextmanager
def instrument(tracer: Tracer):
    """Trace every target while the block runs; restore the originals after."""
    patches = []  # (namespace, key, original); dicts are patched by item
    try:
        for modname, *_ in TARGETS:
            importlib.import_module("virann." + modname)
        namespaces = [vars(m) for m in _virann_modules()]
        for modname, attr, span_name, counter in TARGETS:
            orig = getattr(sys.modules["virann." + modname], attr)
            traced = _wrap(tracer, orig, span_name, counter)
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        patches.append((ns, key, orig))
                        ns[key] = traced
        cls = sys.modules["virann.rep"].RepresentedAnnulus
        orig = cls.hn_report
        patches.append((cls, "hn_report", orig))
        cls.hn_report = _wrap(tracer, orig, "rep.hn_report", None)
        suites = sys.modules["virann.verify"].SUITES
        for name, fn in list(suites.items()):
            patches.append((suites, name, fn))
            suites[name] = _wrap(tracer, fn, f"verify.suite.{name}", None)
        yield tracer
    finally:
        for target, key, orig in reversed(patches):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)


def queue_waits(spans) -> dict[int, float]:
    """Per run_config span: summed wait of its suites between submit and start.

    run_config submits every suite as soon as its module is built, so a
    suite's wait is its start minus the end of that build.
    """
    by_parent_build = {sp.parent: sp.end for sp in spans
                       if sp.name == "virmod.build_module"}
    out = {}
    for rc in spans:
        if rc.name != "verify.run_config" or rc.id not in by_parent_build:
            continue
        submitted = by_parent_build[rc.id]
        out[rc.id] = sum(sp.start - submitted for sp in spans
                         if sp.name.startswith("verify.suite.")
                         and rc.start <= sp.start <= rc.end)
    return out


def _family(span, keys):
    return [(f"{span}.{k}", span, k) for k in keys.split()]


#: (metric, span name or prefix ending in '*', key); only metrics that some
#: workload reaches, so of the suites only those verify-n12 runs
CATALOGUE = [
    *_family("evolve.ode_exp", "calls s self_s nfev steps gflop_computed"),
    ("evolve.parameter_derivative.s", "evolve.parameter_derivative", "s"),
    *_family("field.pi_field", "calls s mb_computed"),
    *_family("field.qei_bound", "calls s"),
    *_family("rep.represent", "calls s self_s nfev"),
    ("rep.hn_report.s", "rep.hn_report", "s"),
    *_family("rep.segal_residual", "s self_s"),
    *_family("annulus.framing_path", "calls s"),
    *_family("annulus.element_from_path", "calls s"),
    *[(f"annulus.{f}.s", f"annulus.{f}", "s") for f in
      ("compose", "bigon_factor")],
    *_family("virmod.build_module",
             "calls s dim_total nulls spurious_nulls lmat_mb"),
    *[(f"virmod.{f}.s", f"virmod.{f}", "s") for f in
      ("check_unitarity", "module_to_dict", "module_from_dict")],
    *[m for n in VerifyN12.SUITES
      for m in _family(f"verify.suite.{n}", "s cpu_s")],
    ("verify.run_config.s", "verify.run_config", "s"),
    ("verify.queue_wait_s", "verify.run_config", "queue_wait_s"),
    ("verify.rows", "verify.run_config", "rows"),
    ("verify.rows_failed", "verify.run_config", "rows_failed"),
    *_family("cli.validate", "calls s"),
    ("cli.json_mb_written", "cli.cmd_*", "json_mb_written"),
    ("cli.json_mb_read", "cli.cmd_*", "json_mb_read"),
    *[(f"cli.cmd_{c}.s", f"cli.cmd_{c}", "s") for c in ("build", "represent")],
]

UNITS = {"calls": "count", "s": "s", "self_s": "s", "cpu_s": "s",
         "queue_wait_s": "s", "nfev": "count", "steps": "count",
         "gflop_computed": "GFLOP", "mb_computed": "MB", "dim_total": "count",
         "nulls": "count", "spurious_nulls": "count", "lmat_mb": "MB",
         "rows": "count", "rows_failed": "count", "json_mb_written": "MB",
         "json_mb_read": "MB"}

#: keys where a larger value is the better outcome
HIGHER_BETTER = {"dim_total", "rows"}


def catalogue_entries() -> list[dict]:
    """The per_layer list of BENCHMARK.json."""
    return [{"name": m, "unit": UNITS[k],
             "better": "higher" if k in HIGHER_BETTER else "lower"}
            for m, _, k in CATALOGUE]


def layer_metrics(spans) -> dict[str, dict]:
    """Every catalogue metric over the given spans (0 where unused)."""
    spans = list(spans)
    for rc_id, wait in queue_waits(spans).items():
        next(sp for sp in spans if sp.id == rc_id).counts["queue_wait_s"] = wait
    tot = totals(spans)
    out = {}
    for metric, span, key in CATALOGUE:
        if span.endswith("*"):
            value = sum(t.get(key, 0.0) for name, t in tot.items()
                        if name.startswith(span[:-1]))
        else:
            value = tot.get(span, {}).get(key, 0.0)
        out[metric] = {"value": value, "unit": UNITS[key]}
    return out
