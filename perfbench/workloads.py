"""The four workloads and the checks that decide whether an operation failed.

Each batch process sets its workload up from the run seed, then runs the
workload's fixed batch of operations (calls into virann) once.  Every
call goes through the virann module attribute at call time, so the
traced run sees it.  Checks run after each operation, outside its timing
and its tracing; most use only numpy on the returned data.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the scaling annulus every represent workload checks against diag q^(h+k)
Q = 0.5 * np.exp(0.1j)

#: tolerances reused from the suites: standard-*-diagonal and
#: bracket-protected-columns
SCALING_BOUND = 1e-9
BRACKET_BOUND = 1e-10

#: levels from which the default null tolerance quotients genuinely
#: positive directions (build_module's docstring names them)
SPURIOUS_FROM_LEVEL = 13
KNOWN_SPURIOUS = "spurious-nulls"

#: the bound of the dagger-flowed row, for the flowed elements
DAGGER_FLOWED_BOUND = 1e-5

#: verify rows seen failing at the default config: row id -> (defect,
#: config seeds, largest residual).  segal-flowed exceeds its 1e-4 bound
#: at seeds 12 (1.7e-4), 15 (3.4e-4) and 310 (1.005e-4) of 61 tried; a
#: failure at any other seed, or above the cap, is not this defect
KNOWN_ROWS = {"segal-flowed": ("segal-flowed-seeds", {12, 15, 310}, 3.5e-4)}


def known_row(row_id: str, seed: int, residual: float) -> str | None:
    """The known defect that a failure of this verify row would be, if any."""
    if row_id not in KNOWN_ROWS:
        return None
    defect, seeds, cap = KNOWN_ROWS[row_id]
    return defect if seed in seeds and residual <= cap else None


@dataclass
class Check:
    """One correctness check: passes iff residual <= bound."""

    id: str
    residual: float
    bound: float
    #: set when a failure of this check is a listed, known defect
    known_defect: str | None = None
    #: false for a check on set-up data that no timed call changes
    headroom: bool = True

    @property
    def ok(self) -> bool:
        return self.residual <= self.bound


@dataclass
class Outcome:
    """One operation: failed if it raised or any of its checks failed."""

    op: str
    checks: list[Check] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)

    @property
    def known_defect(self) -> str | None:
        """The known defect that explains this failure, if one does."""
        if self.error is not None:
            return None
        labels = {c.known_defect for c in self.checks if not c.ok}
        if len(labels) == 1 and None not in labels:
            return labels.pop()
        return None


def summarize(outcomes):
    """(correct, attempted, failed, report lines) over all operations.

    ``correct`` is false when an operation failed for a reason other than
    a known defect; failures from known defects still count as failed.
    """
    failed = [o for o in outcomes if o.failed]
    reasons = Counter(
        (o.op, ", ".join(f"{c.id} {c.residual:.3g} > {c.bound:.3g}"
                         for c in o.checks if not c.ok) or o.error,
         o.known_defect) for o in failed)
    lines = [f"{'known defect ' + known if known else 'FAILED'}: {op}: "
             f"{why} (x{n})" for (op, why, known), n in reasons.items()]
    return (all(o.known_defect for o in failed), len(outcomes), len(failed),
            lines)


def headroom_checks(outcomes) -> list[Check]:
    """The checks that headroom_min_dex is taken over.

    All checks on what the timed calls returned, failed ones included,
    except failures that a listed known defect explains: those are
    counted in ``failed`` instead, and would pin the minimum to the
    defect.
    """
    return [c for o in outcomes for c in o.checks
            if c.headroom and (c.ok or not c.known_defect)]


def bracket_residual(lmat, dims, c: float) -> float:
    """max |[L_m, L_n] - (m-n)L_{m+n} - central| on protected columns.

    The same relation and column range as the bracket suite, evaluated
    level block by level block: L_n maps level k to level k - n, so only
    blocks between neighbouring levels are multiplied.  ``lmat(n)`` is the
    dense matrix of L_n and ``dims`` the surviving dimension per level.
    """
    N = len(dims) - 1
    off = np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def block(n, k):
        return lmat(n)[off[k - n]:off[k - n + 1], off[k]:off[k + 1]]

    worst = 0.0
    for m in range(-4, 5):
        for n in range(-4, 5):
            if abs(m) + abs(n) > N:
                continue
            for k in range(N - abs(m) - abs(n) + 1):
                t = k - m - n
                if t < 0 or dims[k] == 0 or dims[t] == 0:
                    continue
                lhs = np.zeros((dims[t], dims[k]), dtype=complex)
                if k - n >= 0:
                    lhs += block(m, k - n) @ block(n, k)
                if k - m >= 0:
                    lhs -= block(n, k - m) @ block(m, k)
                rhs = (m - n) * block(m + n, k)
                if m + n == 0:
                    rhs = rhs + (c / 12.0) * (m ** 3 - m) * np.eye(dims[k])
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def scaling_gap(U: np.ndarray, q: complex, h: float, dims) -> float:
    """max |U - diag q^(h+k)|, k the level of each coordinate."""
    k = np.repeat(np.arange(len(dims)), dims).astype(float)
    return float(np.abs(U - np.diag(q ** (h + k))).max())


def hn_checks(bounds: dict) -> list[Check]:
    """hn_report's own verdict per graded norm, as pass/fail checks."""
    return [Check(f"hn-{n}", 0.0 if b["ok"] else 1.0, 0.0)
            for n, b in bounds.items()]


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, workdir: Path) -> None:
        """Prepare the inputs; ``workdir`` is an empty private directory."""

    def ops(self) -> list[tuple[str, object]]:
        """The batch: (operation name, zero-argument call) pairs."""
        raise NotImplementedError

    def check(self, op: str, result) -> list[Check]:
        raise NotImplementedError


class VerifyN12(Workload):
    name = "verify-n12"
    why = ("the verify user path on the default config (c=2, h=1/2, N=12) "
           "with the default thread pool; the only workload that runs it")

    #: the suites that fit a run of the benchmark, in registry order; the
    #: eight left out (cocycle, adjoint, holomorphy, evolution, semigroup,
    #: growth, dagger, standard) take 91 of the 93 s that all sixteen need
    #: serially
    SUITES = ("gram", "bracket", "qei", "energy", "segal", "derivative",
              "mobius", "bigon")

    def setup(self, seed, workdir):
        from virann import verify
        self.verify = verify
        self.seed = int(seed)
        self.cfg = {"seed": self.seed, "suites": list(self.SUITES)}

    def ops(self):
        return [("run_config", lambda: self.verify.run_config(self.cfg))]

    def check(self, op, report):
        return [Check(r["id"], r["residual"], r["bound"],
                      known_row(r["id"], self.seed, r["residual"]))
                for r in report["results"]]


class RepresentN14(Workload):
    name = "represent-n14"
    why = ("full-operator propagation at N=14, where stiffness, dense lmat "
           "and nfev grow; scaling and flowed elements")

    def setup(self, seed, workdir):
        from virann import annulus, rep, verify, virmod
        self.rep = rep
        # the tighter null tolerance of the test fixtures: at the default,
        # levels 13 and 14 lose genuine directions (see build-sweep)
        self.module = virmod.build_module(virmod.ModuleParams(2.0, 0.5, 14),
                                          nulltol=1e-12)
        rng = np.random.default_rng([int(seed), 14])
        self.elements = [("scaling", annulus.standard_element(Q))]
        for i in range(2):
            E = annulus.element_from_path(
                verify._shallow_path(rng, depth=0.05), G=256, K=16)
            self.elements.append((f"flowed-{i}", E))

    def _represent(self, E):
        R = self.rep.represent(E, self.module)
        return R, R.hn_report()

    def ops(self):
        return [(name, lambda E=E: self._represent(E))
                for name, E in self.elements]

    def check(self, op, result):
        R, bounds = result
        checks = hn_checks(bounds)
        if op == "scaling":
            checks.append(Check("scaling-closed-form",
                                scaling_gap(R.U, Q, 0.5, self.module.dims),
                                SCALING_BOUND))
            # the set-up module, checked once per batch; no timed call
            # changes it, so it stays out of the headroom
            checks.append(Check("bracket-protected-columns",
                                bracket_residual(self.module.lmat,
                                                 self.module.dims, 2.0),
                                BRACKET_BOUND, headroom=False))
        else:
            # solves the reversed element against the operator just timed
            checks.append(Check("dagger-flowed",
                                self.rep.dagger_residual(R, self.module),
                                DAGGER_FLOWED_BOUND))
        return checks


class BuildSweep(Workload):
    name = "build-sweep"
    why = ("module construction on both sides of the null quotient, up to "
           "N=16 (dim 903) where dense lmat memory shows")

    #: (c, h, N): no nulls at the first four, many at the last three
    POINTS = ((2.0, 0.5, 12), (2.0, 0.5, 14), (2.0, 0.5, 16), (25.0, 1.0, 14),
              (0.5, 1 / 16, 14), (0.7, 3 / 80, 14), (1.0, 0.25, 14))

    def setup(self, seed, workdir):
        from virann import virmod
        self.virmod = virmod
        order = np.random.default_rng([int(seed), 16]).permutation(
            len(self.POINTS))
        self.points = [self.POINTS[i] for i in order]

    def ops(self):
        return [(f"build c={c:g} h={h:g} N={N}",
                 lambda c=c, h=h, N=N: self.virmod.build_module(
                     self.virmod.ModuleParams(c, h, N)))
                for c, h, N in self.points]

    def check(self, op, module):
        c, h = module.params.as_floats()
        checks, known = [], None
        if c > 1 and h > 0:
            # the Kac determinant has no zeros here, so every quotiented
            # direction is spurious; a known defect only where
            # build_module's docstring says it happens
            lost = [len(b) - d for b, d in zip(module.basis, module.dims)]
            if any(lost) and not any(lost[:SPURIOUS_FROM_LEVEL]):
                known = KNOWN_SPURIOUS
            checks.append(Check("kac-null-count", float(sum(lost)), 0.0,
                                known))
        checks.append(Check("bracket-protected-columns",
                            bracket_residual(module.lmat, module.dims, c),
                            BRACKET_BOUND, known))
        return checks


class CliFiles(Workload):
    name = "cli-files"
    why = ("the CLI writing then reading module JSON, where schema "
           "validation dominates; the only workload on the cli layer")

    N = 7

    def setup(self, seed, workdir):
        from virann import cli, verify
        self.cli = cli
        self.files = {k: str(workdir / f"{k}.json")
                      for k in ("module", "scaling", "path", "out-scaling",
                                "out-path")}
        rng = np.random.default_rng([int(seed), 8])
        p = verify._shallow_path(rng, depth=0.05)
        docs = {"scaling": {"kind": "standard", "q": [Q.real, Q.imag]},
                "path": {"kind": "path", "knots": list(p.knots),
                         "fields": [f.to_dict() for f in p.fields]}}
        for k, doc in docs.items():
            with open(self.files[k], "w") as f:
                json.dump(doc, f)

    def _main(self, argv) -> int:
        # the result line must stay the last line the batch prints
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def ops(self):
        f = self.files
        return [
            ("build", lambda: self._main(
                ["build", "--N", str(self.N), "--out", f["module"]])),
            ("represent-scaling", lambda: self._main(
                ["represent", f["module"], f["scaling"], "--out",
                 f["out-scaling"]])),
            ("represent-path", lambda: self._main(
                ["represent", f["module"], f["path"], "--out", f["out-path"]])),
        ]

    def check(self, op, code):
        checks = [Check("exit-code", float(code), 0.0)]
        if code != 0:
            return checks
        with open(self.files["module"]) as fh:
            mdoc = json.load(fh)
        dims = mdoc["dims"]
        if op == "build":
            lmat = {int(n): _complex(m) for n, m in mdoc["lmat"].items()}
            checks.append(Check("bracket-protected-columns",
                                bracket_residual(lmat.__getitem__, dims,
                                                 mdoc["c"]), BRACKET_BOUND))
            return checks
        out = self.files["out-" + op.split("-", 1)[1]]
        with open(out) as fh:
            doc = json.load(fh)
        checks += hn_checks(doc["bounds"])
        if op == "represent-scaling":
            checks.append(Check("scaling-closed-form",
                                scaling_gap(_complex(doc["U"]), Q, mdoc["h"],
                                            dims), SCALING_BOUND))
        return checks


def _complex(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


WORKLOADS = {w.name: w for w in (VerifyN12, RepresentN14, BuildSweep,
                                 CliFiles)}
