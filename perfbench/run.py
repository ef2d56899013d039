#!/usr/bin/env python3
"""Run one virann benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root; it imports virann from ``src/`` next to
this directory and refuses to run without it.  Each batch of a workload
runs in a fresh process, the way a user runs virann: the process imports
virann, sets the workload up from the seed, runs the batch once and
exits.  Batches follow one another until ``--seconds`` have passed, and
each metric is the median over the batches; set-up time is the median
over at least five processes, topped up with processes that only set up.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced batches and prints the
per-layer metrics of the traced ones, with the tracing overhead.
Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT)]  # import this directory as the perfbench package

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from perfbench import layers, spans, stats  # noqa: E402
from perfbench.workloads import (WORKLOADS, Check, Outcome,  # noqa: E402
                                 headroom_checks, summarize)

SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: a batch process that takes longer than this is killed and the run fails
BATCH_TIMEOUT_S = 170

#: set-up times a run takes its setup_s median over
SETUP_SAMPLES = 5


class NoProgram(RuntimeError):
    """virann's sources are not next to the benchmark."""


def check_program() -> None:
    if not (SRC / "virann" / "__init__.py").is_file():
        raise NoProgram(f"no virann sources under {SRC}")


def import_virann() -> None:
    check_program()
    sys.path.insert(0, str(SRC))
    import virann
    import virann.cli  # noqa: F401  (the CLI's namespace is traced too)
    if not Path(virann.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoProgram(f"virann was imported from {virann.__file__}")


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    """Versions, CPUs, BLAS and its threads, VIRANN_* settings, commit."""
    import platform
    from importlib.metadata import version

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": version("jsonschema"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "virann_env": {k: v for k, v in os.environ.items()
                       if k.startswith("VIRANN_")},
        "longdouble_eps": str(np.finfo(np.longdouble).eps),
        "commit": _commit(),
    }


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (threadpoolctl-free)."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            so = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# one batch, in its own process


def run_batch(wl, traced):
    """Time each operation of one batch inside ``traced()``; check it
    afterwards, untimed and untraced."""
    wall = cpu = 0.0
    outcomes = []
    for name, call in wl.ops():
        with traced():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = call(), None
            except Exception as e:  # an operation that raises has failed
                result, error = None, f"{type(e).__name__}: {e}"
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        checks = wl.check(name, result) if error is None else []
        outcomes.append(Outcome(name, checks, error))
        del result
    return wall, cpu, outcomes


def batch_main(args) -> int:
    """Set up, run one batch, print its result as one JSON line.

    With ``--setup-only`` the process stops after the set-up and prints
    only its set-up time.
    """
    import_virann()
    wl = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH))
    try:
        wl.setup(args.seed, workdir)
        # CLOCK_MONOTONIC is shared by all processes of the machine
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = spans.Tracer()
        wall, cpu, outcomes = run_batch(
            wl, (lambda: layers.instrument(tracer)) if args.traced
            else contextlib.nullcontext)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "outcomes": [dataclasses.asdict(o) for o in outcomes],
        "layers": (layers.layer_metrics(tracer.spans) if args.traced
                   else None),
    }))
    return 0


def spawn_batch(workload: str, seed: int, traced: bool = False,
                setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--batch"]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd += ["--started", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=BATCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} batch exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_only:
        return res
    res["outcomes"] = [Outcome(o["op"], [Check(**c) for c in o["checks"]],
                               o["error"]) for o in res["outcomes"]]
    return res


# ---------------------------------------------------------------------------
# a run: batches for --seconds


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Batches until ``seconds`` have passed; (metrics, outcomes, lines)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        # the traced run alternates untraced and traced batches, so that
        # it can state its own overhead
        tracing = trace and len(plain) > len(traced)
        (traced if tracing else plain).append(spawn_batch(name, seed, tracing))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    outcomes = [o for b in plain + traced for o in b["outcomes"]]

    def med(batches, key):
        return stats.median(b[key] for b in batches)

    if trace:
        metrics = {m: {"value": sum(b["layers"][m]["value"] for b in traced)
                       / len(traced), "unit": v["unit"]}
                   for m, v in traced[0]["layers"].items()}
        over = med(traced, "wall_s") / med(plain, "wall_s") - 1.0
        lines = [f"traced batch wall {med(traced, 'wall_s'):.4f} s "
                 f"(n={len(traced)}), untraced {med(plain, 'wall_s'):.4f} s "
                 f"(n={len(plain)}): tracing overhead {100 * over:+.1f}%"]
        return metrics, outcomes, lines

    setups = [b["setup_s"] for b in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_batch(name, seed, setup_only=True)["setup_s"])
    checks = [c for c in headroom_checks(outcomes)
              if c.residual > 0.0 and c.bound > 0.0]
    headroom = stats.headroom_min_dex((c.residual, c.bound) for c in checks)
    if headroom is None:
        raise RuntimeError(f"{name}: no check has finite headroom")
    tightest = min(checks, key=lambda c: c.bound / c.residual)
    metrics = {
        "wall_s": {"value": med(plain, "wall_s"), "unit": "s"},
        "cpu_s": {"value": med(plain, "cpu_s"), "unit": "s"},
        "setup_s": {"value": stats.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": med(plain, "peak_rss_mb"), "unit": "MB"},
        "headroom_min_dex": {"value": headroom, "unit": "dex"},
    }
    walls = [b["wall_s"] for b in plain]
    t = stats.tail(walls)
    lines = [
        f"batches: n={len(plain)}; wall " +
        " ".join(f"{w:.3f}" for w in walls) + " s; " +
        (f"p{t[0]:g} {t[1]:.4f} s with {t[2]} samples beyond" if t
         else "no percentile has 10 samples beyond it"),
        "setup " + " ".join(f"{s:.3f}" for s in setups) + " s; "
        "peak rss " + " ".join(f"{b['peak_rss_mb']:.0f}" for b in plain) +
        " MB",
        f"tightest check: {tightest.id} residual {tightest.residual:.3g} "
        f"bound {tightest.bound:.3g}",
    ]
    return metrics, outcomes, lines


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics, outcomes, lines = measure(name, seed, seconds, trace)
    correct, attempted, failed, fail_lines = summarize(outcomes)
    print(f"workload {name} seed {seed}: {WORKLOADS[name].why}")
    for line in lines + fail_lines:
        print(line)
    print(f"failed_frac {stats.failed_frac(failed, attempted):.4f} 1 "
          f"({failed} of {attempted} operations)")
    for metric, m in metrics.items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one batch process, started by the run itself
    p.add_argument("--batch", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        check_program()
        SCRATCH.mkdir(exist_ok=True)
        if args.batch:
            return batch_main(args)
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        else:
            # every batch is its own process, so memory peaks of one
            # workload never carry over into the next
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for name in WORKLOADS:
                res = report(name, args.seed, args.seconds, bool(args.trace))
                result["correct"] &= res["correct"]
                result["attempted"] += res["attempted"]
                result["failed"] += res["failed"]
                result["metrics"].update({f"{name}.{k}": v for k, v
                                          in res["metrics"].items()})
    except NoProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
