"""Command-line front end: build modules, represent elements, verify laws.

Subcommands:
  build      construct a truncated module and write it as JSON
  represent  apply a stored module to a stored element, write the matrix
  verify     run verification suites and write a report (json or csv)

Values resolve flag > VIRANN_-prefixed environment variable > config file
> built-in default; the defaults of the run configuration are those of
``verify.normalize_config``.  Module and element files, the resolved run
configuration and the report are checked against their schemas in
``virann/schemas``.  One validator per schema is built per process; the
matrices of a module file are first checked by one exact pass over their
entries, and jsonschema then checks the rest of the file (the whole file,
when the pass declines), so the accepted files and the error messages are
jsonschema's.  Module files and represented operators are written by the
C JSON encoder.

Exit status: 0 success (for verify, every check passed); 1 schema errors,
non-finite numbers or integers beyond float range in input files, unknown
suites, or failed checks; 2 violated preconditions (non-inward elements,
nonunitary parameters, modes or depths beyond what the cutoff resolves).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from importlib import resources
from itertools import chain

import jsonschema

from .annulus import AnnulusElement, identity_element, standard_element
from .errors import (ArgumentError, EvolutionError, GridError,
                     NonUnitaryError, NotInwardError, TruncationError)
from .evolve import DEFAULT_ODE_TOL
from .field import FieldPath
from .rep import represent
from .verify import SUITES, normalize_config, run_config
from .virmod import (ModuleParams, build_module, check_unitarity,
                     module_from_dict, module_to_dict)


def load_schema(name: str) -> dict:
    ref = resources.files("virann.schemas").joinpath(name + ".schema.json")
    return json.loads(ref.read_text())


@functools.cache
def _validator(schema_name: str):
    """The schema's validator, built and meta-checked once per process."""
    schema = load_schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _matrices_pass(lmat) -> bool:
    """True when every lmat value is a list of lists of [number, number].

    Accepts a subset of the schema's matrix subschema: containers must be
    exactly ``list`` and entries exactly ``int`` or ``float`` (jsonschema's
    "number" excludes bool).  Each check is one C-level map over a matrix.
    """
    if type(lmat) is not dict:
        return False
    for m in lmat.values():
        if type(m) is not list or not set(map(type, m)) <= {list}:
            return False
        pairs = list(chain.from_iterable(m))
        if not (set(map(type, pairs)) <= {list}
                and set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
            return False
    return True


def _validate(doc: dict, schema_name: str) -> None:
    """Raise jsonschema's best-matching ValidationError for ``doc``, if any.

    Same outcome and message as ``jsonschema.validate(doc, schema)``.  When
    every matrix of a module document passes ``_matrices_pass``, jsonschema
    sees the document with each matrix replaced by ``[]``: the matrices are
    then known to be valid, and jsonschema still checks the lmat keys, c,
    h, N and dims.
    """
    if (schema_name == "module" and type(doc) is dict
            and _matrices_pass(doc.get("lmat"))):
        doc = {**doc, "lmat": dict.fromkeys(doc["lmat"], [])}
    error = jsonschema.exceptions.best_match(
        _validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


def _write_json(path: str, doc: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump streams the
    # same text through the Python one
    with open(path, "w") as f:
        f.write(json.dumps(doc) + "\n")


def _require_finite(what: str, values) -> None:
    if not all(map(math.isfinite, values)):
        raise ArgumentError(f"{what} must be finite numbers")


def _env(name: str) -> str | None:
    return os.environ.get("VIRANN_" + name)


def _resolve(flag, env_name: str, cast, fallback):
    if flag is not None:
        return flag
    v = _env(env_name)
    if v is not None:
        try:
            return cast(v)
        except ValueError:
            raise ArgumentError(f"VIRANN_{env_name}={v!r} is not a valid "
                                f"{cast.__name__}") from None
    return fallback


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    default = normalize_config({})["module"]
    c = _resolve(args.c, "C", float, default["c"])
    h = _resolve(args.h, "H", float, default["h"])
    N = _resolve(args.N, "N", int, default["N"])
    tol = _resolve(args.tol, "TOL", float, None)
    out = _resolve(args.out, "OUT", str, "module.json")

    params = ModuleParams(c, h, N)
    ok, why = check_unitarity(params)
    if not ok:
        raise NonUnitaryError(why)
    module = (build_module(params) if tol is None
              else build_module(params, nulltol=tol))
    doc = module_to_dict(module)
    _validate(doc, "module")
    _write_json(out, doc)

    full = [len(b) for b in module.basis]
    nulls = [a - b for a, b in zip(full, module.dims)]
    print(f"module (c={c:g}, h={h:g}, N={N}) -> {out}")
    print(f"dims  {list(module.dims)}")
    if any(nulls):
        print(f"nulls {nulls}  (null directions quotiented per level)")
    print(f"unitarity: {why}")
    return 0


# ---------------------------------------------------------------------------
# represent


def _element_from_doc(doc: dict):
    """Decode an element file: (argument for represent, scalar or None).

    Non-finite numbers raise ArgumentError: the schema's "number" admits
    NaN and Infinity, which no element has.  z and q are checked here;
    ``FieldPath`` checks the knots and mode coefficients.
    """
    for key in ("z", "q"):
        _require_finite(f"element {key}", doc.get(key, ()))
    z = complex(*doc["z"]) if "z" in doc else 1.0 + 0j
    kind = doc["kind"]
    if kind == "identity":
        E = identity_element()
        return AnnulusElement(E.framing, z=z, path=E.path), None
    if kind == "standard":
        E = standard_element(complex(*doc["q"]))
        return AnnulusElement(E.framing, z=z, path=E.path), None
    return FieldPath.from_dict(doc), z


def cmd_represent(args) -> int:
    tol = _resolve(args.tol, "TOL", float, DEFAULT_ODE_TOL)
    out = _resolve(args.out, "OUT", str, "represented.json")

    with open(args.module) as f:
        mdoc = json.load(f)
    _validate(mdoc, "module")
    module = module_from_dict(mdoc)

    with open(args.element) as f:
        edoc = json.load(f)
    _validate(edoc, "element")
    E, z = _element_from_doc(edoc)

    R = (represent(E, module, tol=tol) if z is None
         else represent(E, module, tol=tol, z=z))
    bounds = R.hn_report()
    doc = {
        "dim": module.dim,
        "z": [float(R.z.real), float(R.z.imag)],
        "U": [[[float(x.real), float(x.imag)] for x in row] for row in R.U],
        "bounds": {str(n): {"norm": float(b["norm"]),
                            "bound": float(b["bound"]), "ok": bool(b["ok"])}
                   for n, b in bounds.items()},
    }
    _write_json(out, doc)

    cm, hm = module.params.as_floats()
    print(f"represented element on (c={cm:g}, h={hm:g}, N={module.N}) "
          f"-> {out}")
    for n, b in bounds.items():
        verdict = "ok" if b["ok"] else "VIOLATION"
        print(f"  graded norm n={n}: {b['norm']:.6e} <= {b['bound']:.6e}  "
              f"{verdict}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "anchor", "residual", "bound", "pass", "seconds"])
        for r in rows:
            w.writerow([r["id"], r["anchor"], repr(r["residual"]),
                        repr(r["bound"]), "true" if r["pass"] else "false",
                        f"{r['seconds']:.3f}"])


def cmd_verify(args) -> int:
    cfg = {}
    if args.config is not None:
        with open(args.config) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise ArgumentError("config file must hold a JSON object")
    default = normalize_config({})
    file_module = cfg.get("module", {})
    if not isinstance(file_module, dict):
        raise ArgumentError("config key 'module' must hold a JSON object")

    c = _resolve(args.c, "C", float,
                 file_module.get("c", default["module"]["c"]))
    h = _resolve(args.h, "H", float,
                 file_module.get("h", default["module"]["h"]))
    N = _resolve(args.N, "N", int,
                 file_module.get("N", default["module"]["N"]))
    tol = _resolve(args.tol, "TOL", float, cfg.get("tol", default["tol"]))
    seed = _resolve(args.seed, "SEED", int, cfg.get("seed", default["seed"]))
    fmt = _resolve(args.format, "FORMAT", str,
                   cfg.get("format", default["format"]))
    outdir = _resolve(args.out, "OUT", str, cfg.get("out", "."))
    verbosity = _resolve(None, "VERBOSITY", int,
                         cfg.get("verbosity", default["verbosity"]))

    if args.suite:
        suites = [s for spec in args.suite for s in spec.split(",")]
    elif _env("SUITE"):
        suites = _env("SUITE").split(",")
    else:
        suites = cfg.get("suites", default["suites"])
    if suites == ["all"]:
        suites = list(SUITES)

    full = {"module": {"c": c, "h": h, "N": N}, "tol": tol, "seed": seed,
            "suites": suites, "format": fmt, "out": outdir,
            "verbosity": verbosity}
    _validate(full, "run_config")

    workers = _resolve(None, "WORKERS", int, 0) or None
    report = run_config(full, workers=workers)
    _validate(report, "report")

    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "report." + fmt)
    if fmt == "json":
        with open(path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    else:
        _write_csv(path, report["results"])

    if verbosity >= 1:
        for r in report["results"]:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{status}  {r['id']:34s} residual {r['residual']:10.3e}  "
                  f"bound {r['bound']:8.1e}  {r['seconds']:.3f}s")
    counts = report["counts"]
    print(f"{counts['pass']} passed, {counts['fail']} failed -> {path}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="virann",
        description="truncated lowest-weight modules, represented annuli, "
                    "and quantitative verification suites")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a truncated module file")
    b.add_argument("--c", type=float, help="central charge")
    b.add_argument("--h", type=float, help="lowest weight")
    b.add_argument("--N", type=int, help="truncation level")
    b.add_argument("--tol", type=float, help="null-direction tolerance")
    b.add_argument("--out", help="output file (default module.json)")
    b.set_defaults(func=cmd_build)

    r = sub.add_parser("represent",
                       help="apply a stored module to a stored element")
    r.add_argument("module", help="module JSON file")
    r.add_argument("element", help="element JSON file")
    r.add_argument("--tol", type=float, help="solver tolerance")
    r.add_argument("--out", help="output file (default represented.json)")
    r.set_defaults(func=cmd_represent)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("config", nargs="?",
                   help="optional run-configuration JSON file")
    v.add_argument("--c", type=float, help="central charge")
    v.add_argument("--h", type=float, help="lowest weight")
    v.add_argument("--N", type=int, help="truncation level")
    v.add_argument("--tol", type=float, help="solver tolerance")
    v.add_argument("--seed", type=int, help="random seed")
    v.add_argument("--suite", action="append",
                   help="suite name; repeat or comma-separate, 'all' runs "
                        "every suite")
    v.add_argument("--format", choices=["json", "csv"],
                   help="report format (default json)")
    v.add_argument("--out", help="output directory (default .)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotInwardError, NonUnitaryError, TruncationError, GridError,
            EvolutionError) as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 2
    except jsonschema.ValidationError as e:
        print(f"schema error: {e.message}", file=sys.stderr)
        return 1
    except (ArgumentError, json.JSONDecodeError, OSError,
            OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
