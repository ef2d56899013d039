"""Quantitative law checks packaged as named suites of pass/fail rows.

Each suite turns one family of identities or bounds into rows
(id, anchor, residual, bound, pass, seconds, cpu_s) where a row passes iff
residual <= bound.  Randomized suites draw from a generator seeded by the
run seed and the suite's registry position, and ``run_config`` runs on one
BLAS thread, so the rows are a function of (config, seed).  Only the
seconds and cpu_s columns and the report's environment block vary between
runs.

The measurement functions below (``gram_float_gap``,
``level2_closed_form_gap``, ``bracket_residual``, ``qei_excess``,
``qei_spot_gap``, ``energy_margin``, ``standard_diagonal_gap``,
``product_limit_gap``, ``growth_margin``, ``derivative_closed_form_gap``,
``derivative_constant_family_gap``, ``derivative_agreement_gaps``,
``mobius_term_mismatch`` and ``bigon_gap``) and the input builders
(``wiggle_homotopy``, ``constant_homotopy``, ``reparametrization_homotopy``,
``bigon_perturbation``) are the single definition of each criterion they
measure.  The suites call them with the CLI's ensemble sizes; the
acceptance tests call them with their own seeds, sizes and bounds.  They
take maxima with ``np.maximum``, so a NaN case makes the result NaN and
fails every bound instead of being skipped.

Suites degrade gracefully at small cutoffs: rows whose construction needs
more levels than the module has (no protected level at the row's budget,
or generators or transported fields beyond the module's ``lmax``) are
omitted rather than faked.  Two heavy cross-validations (expm product limit, Duhamel
derivative) run on an embedded low-cutoff module with the same (c, h),
where the identity under test is the same but dense sweeps are
affordable.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy
from scipy.linalg import expm

from . import _blas
from .annulus import (FramingHomotopy, bigon_factor, compose,
                      element_from_path, identity_element, standard_element)
from .errors import ArgumentError, ModuleRangeError
from .evolve import (DEFAULT_ODE_TOL, GeneratorPath, adjoint_evolution_check,
                     flow_residual, ode_exp, parameter_derivative,
                     piecewise_exp)
from .field import (FieldPath, VectorField, energy_bound_constant,
                    field_norm, mode_field, pi_field, qei_bound,
                    random_inward_field, random_inward_path)
from .rep import (cocycle_invariance_residual, dagger_residual,
                  holomorphy_residual, lowering_norms, mobius_overlap,
                  represent, segal_residual, semigroup_residual)
from .virmod import (ModuleData, ModuleParams, VirasoroOracle, build_module,
                     gram_matrix, gram_negativity, random_protected_vector,
                     sobolev_norm)


def _theta(G: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(G) / G


G = 256
THETA = _theta(G)

#: the overlapping arcs I1, I2 of the bigon factorization
BIGON_ARCS = ((-0.4, np.pi + 0.4), (np.pi - 0.4, 2.0 * np.pi + 0.4))

#: the bracket is checked for |m|, |n| up to this many modes
BRACKET_MODES = 4


@dataclass
class CheckResult:
    """One verified row: pass iff residual <= bound."""

    id: str
    anchor: str
    residual: float
    bound: float
    ok: bool
    seconds: float
    cpu_s: float

    def to_row(self) -> dict:
        return {"id": self.id, "anchor": self.anchor,
                "residual": self.residual, "bound": self.bound,
                "pass": self.ok, "seconds": self.seconds, "cpu_s": self.cpu_s}


def _clock() -> tuple[float, float]:
    # wall and calling-thread CPU time; under run_config's BLAS pin the
    # BLAS work of a row runs on its suite's thread, so both cover it
    return time.perf_counter(), time.thread_time()


def _row(rid: str, anchor: str, residual, bound,
         t0: tuple[float, float]) -> CheckResult:
    r, b = float(residual), float(bound)
    wall, cpu = _clock()
    return CheckResult(rid, anchor, r, b, bool(r <= b),
                       round(wall - t0[0], 3), round(cpu - t0[1], 3))


def _shallow_path(rng: np.random.Generator, maxmode: int = 2, knots: int = 3,
                  depth: float = 0.10) -> FieldPath:
    # rescale a random inward path so its flow depth (time integral of the
    # constant mode) equals `depth`
    p = random_inward_path(maxmode, rng, knots=knots, amplitude=1.0,
                           wiggle=0.2)
    s = depth / max(abs(f.coeff(0)) for f in p.fields)
    return FieldPath(p.knots, [s * f for f in p.fields])


def _exact_params(module: ModuleData) -> ModuleParams:
    c, h = module.params.as_floats()
    return ModuleParams(Fraction(c), Fraction(h), module.N)


def _small_twin(module: ModuleData) -> ModuleData:
    # the same (c, h) at cutoff min(N, 6), with L_n for |n| <= 2 only
    c, h = module.params.as_floats()
    return build_module(ModuleParams(c, h, min(module.N, 6)), lmax=2)


# ---------------------------------------------------------------------------
# measurements: one function per criterion, inputs explicit


def gram_float_gap(params: ModuleParams, exact: dict) -> float:
    """Largest entry gap of the float inner-product matrices at ``params``
    from the exact ones, given as {level: exact matrix}."""
    return float(np.max([np.abs(gram_matrix(params, k) - g.astype(float)).max()
                         for k, g in exact.items()]))


def level2_closed_form_gap(c: Fraction, h: Fraction, g2: np.ndarray) -> float:
    """0 if the exact level-2 matrix is [[4h+c/2, 6h], [6h, 4h(2h+1)]],
    else 1."""
    want = np.array([[4 * h + c / 2, 6 * h], [6 * h, 4 * h * (2 * h + 1)]],
                    dtype=object)
    return 0.0 if np.array_equal(g2, want) else 1.0


def bracket_residual(module: ModuleData) -> float:
    """Largest entry of [L_m, L_n] - (m-n)L_{m+n} - central term over
    |m|, |n| <= BRACKET_MODES, on the columns the cutoff cannot reach."""
    c = float(module.params.c)
    off, dim = module.level_offsets, module.dim
    mrange = min(BRACKET_MODES, module.N)
    worst = 0.0
    for m in range(-mrange, mrange + 1):
        for n in range(-mrange, mrange + 1):
            if abs(m) + abs(n) > module.N:
                continue
            cols = off[module.N - abs(m) - abs(n) + 1]
            lm, ln = module.lmat(m), module.lmat(n)
            lhs = lm @ ln[:, :cols] - ln @ lm[:, :cols]
            rhs = (m - n) * module.lmat(m + n)[:, :cols]
            if m + n == 0:
                rhs = rhs + (c / 12.0) * (m**3 - m) * np.eye(dim)[:, :cols]
            worst = np.maximum(worst, np.abs(lhs - rhs).max())
    return float(worst)


def _random_fields(module: ModuleData, rng: np.random.Generator,
                   fields: int):
    # mode-4 inward fields, each amplitude drawn before its field; fields
    # beyond the module's generators are drawn and skipped
    for _ in range(fields):
        X = random_inward_field(4, rng, amplitude=float(rng.uniform(0.05, 2.0)))
        if X.maxmode <= module.lmax:
            yield X


def qei_excess(module: ModuleData, rng: np.random.Generator, fields: int,
               vectors: int) -> float:
    """Largest Re<pi(X)v, v> - mu(X) over ``fields`` random inward fields
    and ``vectors`` protected vectors each (-inf if no field fits; NaN if
    any case is NaN)."""
    c = float(module.params.c)
    budget = min(4, module.N)
    worst = -np.inf
    for X in _random_fields(module, rng, fields):
        mu = qei_bound(X, c)
        A = pi_field(X, module)
        for _ in range(vectors):
            v = random_protected_vector(module, budget, rng)
            worst = np.maximum(worst, np.vdot(v, A @ v).real - mu)
    return float(worst)


def qei_spot_gap(c: float) -> float:
    """Relative gap of mu for the 1+cos squeeze profile from c*pi/48."""
    expect = c * np.pi / 48.0
    X = VectorField({0: -1.0, 1: -0.5, -1: -0.5})
    return abs(qei_bound(X, c) - expect) / expect


def energy_margin(module: ModuleData, rng: np.random.Generator,
                  fields: int) -> float:
    """Largest ||pi(X)v||_n - C ||X||_{n+3/2} ||v||_{n+1} over ``fields``
    random inward fields, one protected vector per n in {0, 1, 2}
    (-inf if no field fits; NaN if any case is NaN)."""
    c = float(module.params.c)
    C = energy_bound_constant(c)
    budget = min(4, module.N)
    worst = -np.inf
    for X in _random_fields(module, rng, fields):
        A = pi_field(X, module)
        for n in (0, 1, 2):
            v = random_protected_vector(module, budget, rng)
            lhs = sobolev_norm(A @ v, n, module)
            rhs = C * field_norm(X, n + 1.5) * sobolev_norm(v, n + 1, module)
            worst = np.maximum(worst, lhs - rhs)
    return float(worst)


def standard_diagonal_gap(module: ModuleData, q: complex,
                          tol: float) -> float:
    """Largest entry gap of the represented scaling annulus q from its
    closed form diag q^(h+k)."""
    h = float(module.params.h)
    k = module.level_index().astype(float)
    U = represent(standard_element(q), module, tol=tol).U
    return float(np.abs(U - np.diag((q ** (h + k)).astype(complex))).max())


def product_limit_gap(module: ModuleData, rng: np.random.Generator,
                      paths: int) -> float:
    """Largest operator-norm gap between the adaptive solve (tol 1e-10) and
    the 4096-step exponential product over ``paths`` random paths; their
    amplitude keeps the product's first-order error under 1e-7."""
    worst = 0.0
    for _ in range(paths):
        p = random_inward_path(2, rng, knots=5, amplitude=2.5e-5, wiggle=0.5)
        gp = GeneratorPath.from_field_path(p, module)
        u1 = ode_exp(gp, 0.0, 1.0, 1e-10).U
        u2 = piecewise_exp(gp, 0.0, 1.0, 4096).U
        worst = np.maximum(worst, np.linalg.norm(u1 - u2, 2))
    return float(worst)


def growth_margin(module: ModuleData, path: FieldPath, vecs: np.ndarray,
                  tol: float) -> float:
    """Worst ||U(t,s)v|| - e^{omega (t-s)} ||v|| on (s,t) = (0,1), (0.1,0.6),
    with omega = max_t mu(X(t)) over 33 times.

    The growth bound of inward paths; positive means a violation.  The
    rows of ``vecs`` (count x dim) are the test vectors; the caller keeps
    their support on protected levels, where the truncated dynamics is
    faithful.
    """
    c = float(module.params.c)
    gp = GeneratorPath.from_field_path(path, module)
    omega = np.max([qei_bound(path.field_at(t), c)
                    for t in np.linspace(0.0, 1.0, 33)])
    vecs = np.asarray(vecs, dtype=complex)
    worst = -np.inf
    for s, t in ((0.0, 1.0), (0.1, 0.6)):
        U = ode_exp(gp, s, t, tol).U
        margins = (np.linalg.norm(vecs @ U.T, axis=1)
                   - float(np.exp(omega * (t - s)))
                   * np.linalg.norm(vecs, axis=1))
        worst = np.maximum(worst, float(margins.max()))
    return float(worst)


def derivative_closed_form_gap(module: ModuleData, tol: float) -> float:
    """Largest entry gap of the Duhamel integral and the centered difference
    (delta 1e-4) from the closed-form derivative of r -> r^{L_0} at 0.5."""
    L0 = module.lmat(0)

    def fam(r):
        return GeneratorPath.constant(np.log(r) * L0)

    D_int, D_fd = parameter_derivative(fam, 0.5, 1e-4, tol)
    closed = expm(np.log(0.5) * L0) @ L0 / 0.5
    return float(np.maximum(np.abs(D_int - closed).max(),
                            np.abs(D_fd - closed).max()))


def derivative_constant_family_gap(module: ModuleData, tol: float) -> float:
    """Largest entry of the Duhamel integral and the centered difference
    (delta 1e-4) for a family whose generator does not depend on p; both
    derivatives vanish."""
    A = pi_field(VectorField({1: 0.1, -2: 0.05}), module)
    D_int, D_fd = parameter_derivative(lambda p: GeneratorPath.constant(A),
                                       0.3, 1e-4, tol)
    return float(np.maximum(np.abs(D_int).max(), np.abs(D_fd).max()))


def derivative_agreement_gaps(module: ModuleData, tol: float) -> list[float]:
    """Operator-norm gaps between the Duhamel integral and the centered
    difference at delta = 2e-3 and 1e-3, for a time-dependent two-mode
    family with a noncommuting bump."""
    base = pi_field(VectorField({0: -0.3}), module)
    bump = pi_field(VectorField({2: 0.2, -2: 0.1}), module)

    def fam(p):
        def sampler(t):
            return base + p * (1.0 + 0.3 * np.sin(np.pi * t)) * bump
        return GeneratorPath(sampler, module.dim)

    gaps = []
    for delta in (2e-3, 1e-3):
        D_int, D_fd = parameter_derivative(fam, 0.1, delta, tol)
        gaps.append(np.linalg.norm(D_int - D_fd, 2))
    return gaps


def mobius_term_mismatch(c: Fraction, h: Fraction) -> float:
    """0 if the closed-form norms ||L_{-1}^k v||^2, k <= 4, equal the exact
    normal-ordering reduction at (c, h), else 1."""
    oracle = VirasoroOracle(c, h)
    norms = lowering_norms(h, 4)
    return 0.0 if all(norms[k] == oracle.pairing((1,) * k, (1,) * k)
                      for k in range(5)) else 1.0


def wiggle_homotopy(mode: int, eps: float, q: float, phase: float = 0.0,
                    Kt: int = 48, Ku: int = 12,
                    G: int = 128) -> FramingHomotopy:
    """Deform the scaling framing q^t e^{i theta} by
    exp(u sin^2(pi t) eps cos(mode theta + phase)), u in [0, 1]."""
    theta = _theta(G)
    t = np.linspace(0.0, 1.0, Kt + 1)
    u = np.linspace(0.0, 1.0, Ku + 1)
    s = np.sin(np.pi * t) ** 2
    w = eps * np.cos(mode * theta + phase)
    base = np.exp(t[:, None] * np.log(q) + 1j * theta[None, :])
    grid = base[None, :, :] * np.exp(
        u[:, None, None] * s[None, :, None] * w[None, None, :])
    return FramingHomotopy(grid, t, u)


def constant_homotopy() -> FramingHomotopy:
    """Five equal slices of the q = 0.5 scaling framing."""
    t = np.linspace(0.0, 1.0, 49)
    sl = np.exp(t[:, None] * np.log(0.5) + 1j * _theta(128)[None, :])
    grid = np.repeat(sl[None, :, :], 5, axis=0)
    return FramingHomotopy(grid, t, np.linspace(0.0, 1.0, 5))


def reparametrization_homotopy() -> FramingHomotopy:
    """The q = 0.8 scaling framing under an endpoint-flat time warp.

    Both ends frame the same annulus, so the central factor is 1 and the
    operators must agree; the warp keeps the boundary rows pinned.
    """
    t = np.linspace(0.0, 1.0, 193)
    u = np.linspace(0.0, 1.0, 9)
    phi = t - 0.15 * np.sin(np.pi * t) ** 2
    expo = (1 - u[:, None]) * t[None, :] + u[:, None] * phi[None, :]
    grid = np.exp(expo[:, :, None] * np.log(0.8)
                  + 1j * _theta(128)[None, None, :])
    return FramingHomotopy(grid, t, u)


def bigon_perturbation(rng: np.random.Generator) -> np.ndarray:
    """Real modes 1..3 of amplitude 0.02 on the G-point grid."""
    co = 0.02 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    pert = np.zeros(G)
    for k, a in enumerate(co, start=1):
        pert += (a * np.exp(1j * k * THETA)).real
    return pert


def bigon_gap(pert=0.0) -> float:
    """Grid-sup gap between the boundary curves of the glued bigon factors
    and g_in = 0.25 e^{i theta} e^{pert}, g_out = e^{i theta} e^{-pert}."""
    g_in = 0.25 * np.exp(1j * THETA) * np.exp(pert)
    g_out = np.exp(1j * THETA) * np.exp(-pert)
    B = bigon_factor(g_in, g_out, *BIGON_ARCS)
    comp = compose(B.outer, B.inner)
    return float(np.maximum(np.abs(comp.framing.out_curve() - g_out).max(),
                            np.abs(comp.framing.in_curve() - g_in).max()))


# ---------------------------------------------------------------------------
# algebra-side suites


def suite_gram(module, tol, rng):
    rows = []
    exact_params = _exact_params(module)
    levels = range(1, min(module.N, 4) + 1)

    t0 = _clock()
    exact = {k: gram_matrix(exact_params, k) for k in levels}
    if exact:
        rows.append(_row(
            "gram-float-vs-rational",
            "float inner-product matrices against the exact rational "
            f"pipeline, levels 1..{levels[-1]}",
            gram_float_gap(module.params, exact), 1e-12, t0))

        t0 = _clock()
        mismatch = 0.0 if all(np.array_equal(g, g.T)
                              for g in exact.values()) else 1.0
        rows.append(_row(
            "gram-rational-symmetric",
            "exact matrices are symmetric as rationals", mismatch, 0.0, t0))

    if module.N >= 2:
        t0 = _clock()
        rows.append(_row(
            "gram-level2-closed-form",
            "level-2 matrix equals [[4h+c/2, 6h], [6h, 4h(2h+1)]]",
            level2_closed_form_gap(exact_params.c, exact_params.h, exact[2]),
            0.0, t0))

    t0 = _clock()
    neg, _, depth = gram_negativity(module.params)
    rows.append(_row(
        "gram-positive-semidefinite",
        f"scaled inner-product matrices stay PSD through level {depth}",
        neg, 1e-9, t0))
    return rows


def suite_bracket(module, tol, rng):
    t0 = _clock()
    return [_row(
        "bracket-protected-columns",
        "[L_m, L_n] = (m-n)L_{m+n} + central term on columns the cutoff "
        f"cannot reach, |m|,|n| <= {min(BRACKET_MODES, module.N)}",
        bracket_residual(module), 1e-10, t0)]


def suite_qei(module, tol, rng):
    rows = []
    t0 = _clock()
    worst = qei_excess(module, rng, fields=40, vectors=8)
    if worst != -np.inf:
        rows.append(_row(
            "qei-numerical-range",
            "Re<pi(X)v, v> - mu(X) over random inward fields and protected "
            "vectors", worst, 1e-8, t0))

    t0 = _clock()
    rows.append(_row(
        "qei-analytic-spot",
        "quadrature mu for the 1+cos squeeze profile vs c*pi/48",
        qei_spot_gap(float(module.params.c)), 1e-6, t0))
    return rows


def suite_energy(module, tol, rng):
    t0 = _clock()
    worst = energy_margin(module, rng, fields=40)
    if worst == -np.inf:
        return []
    return [_row(
        "energy-bound-margin",
        "||pi(X)v||_n - C ||X||_{n+3/2} ||v||_{n+1} stays nonpositive, "
        "n in {0,1,2}", worst, 0.0, t0)]


# ---------------------------------------------------------------------------
# evolution-side suites


def suite_standard(module, tol, rng):
    rows = []
    t0 = _clock()
    rows.append(_row(
        "standard-real-diagonal",
        "scaling annulus r=0.5 acts as diag r^(h+k)",
        standard_diagonal_gap(module, 0.5, tol), 1e-9, t0))

    t0 = _clock()
    rows.append(_row(
        "standard-complex-diagonal",
        "scaling annulus q=0.5e^{0.1i} acts as diag q^(h+k)",
        standard_diagonal_gap(module, 0.5 * np.exp(0.1j), tol), 1e-9, t0))

    t0 = _clock()
    U = represent(identity_element(), module, tol=tol).U
    gap = np.abs(U - np.eye(module.dim)).max()
    rows.append(_row(
        "standard-identity",
        "zero-width annulus represents as the identity", gap, 1e-12, t0))
    return rows


def suite_evolution(module, tol, rng):
    rows = []
    if module.N < 2:
        return rows

    # the expm product limit at n = 4096 is only affordable on a small
    # module; the crossing identity does not depend on the cutoff
    t0 = _clock()
    small = _small_twin(module)
    rows.append(_row(
        "evolution-cross-validation",
        "adaptive solve against the 4096-step exponential product on an "
        f"embedded N={small.N} module; the residual is the first-order "
        "error of the 4096-step product", product_limit_gap(small, rng, 5),
        1e-7, t0))

    t0 = _clock()
    p = random_inward_path(2, rng, knots=4, amplitude=0.2)
    gp = GeneratorPath.from_field_path(p, module)
    worst = max(flow_residual(gp, 0.0, r, 1.0, tol) for r in (0.37, 0.81))
    rows.append(_row(
        "evolution-flow-property",
        "U(1,0) = U(1,r) U(r,0) at interior times", worst, 1e-8, t0))
    return rows


def suite_adjoint(module, tol, rng):
    if module.N < 2:
        return []
    t0 = _clock()
    worst = 0.0
    for _ in range(2):
        p = random_inward_path(min(3, module.lmax), rng, knots=4, amplitude=0.3)
        gp = GeneratorPath.from_field_path(p, module)
        worst = max(worst, adjoint_evolution_check(
            gp, tol, pairs=((0.0, 1.0), (0.25, 0.75))))
    return [_row(
        "adjoint-reversal",
        "adjoint system solves to U(1-s, 1-t)*", worst, 1e-8, t0)]


def suite_growth(module, tol, rng):
    if module.N < 2:
        return []
    t0 = _clock()
    budget = min(4, module.N)
    worst = -np.inf
    for _ in range(2):
        p = random_inward_path(2, rng, knots=5, amplitude=0.15)
        vecs = np.array([random_protected_vector(module, budget, rng)
                         for _ in range(24)])
        worst = np.maximum(worst, growth_margin(module, p, vecs, tol))
    return [_row(
        "growth-margin",
        "||U(t,s)v|| <= e^{omega (t-s)} ||v|| with omega = max_t mu(X(t)) "
        "on protected vectors", worst, 1e-6, t0)]


# ---------------------------------------------------------------------------
# annulus-law suites


def suite_semigroup(module, tol, rng):
    rows = []
    t0 = _clock()
    gap = semigroup_residual(standard_element(0.6),
                             standard_element(0.5 * np.exp(0.2j)),
                             module, tol=tol)
    rows.append(_row(
        "semigroup-standard",
        "gluing two scaling annuli multiplies the diagonal operators",
        gap, 1e-8, t0))

    # the flowed paths have modes up to 2: levels <= N - 4
    if module.lmax >= 2 and module.protected_dim(4) > 0:
        t0 = _clock()
        Ea = element_from_path(_shallow_path(rng), G=128, K=32)
        Eb = element_from_path(_shallow_path(rng), G=128, K=32,
                               start_curve=Ea.framing.in_curve())
        gap = semigroup_residual(Ea, Eb, module, tol=tol)
        rows.append(_row(
            "semigroup-flowed",
            "gluing two flowed annuli multiplies the operators on the "
            "protected block", gap, 1e-5, t0))
    return rows


def suite_dagger(module, tol, rng):
    rows = []
    t0 = _clock()
    gap = dagger_residual(standard_element(0.5 * np.exp(0.3j)), module,
                          tol=tol)
    rows.append(_row(
        "dagger-standard",
        "reversed scaling annulus represents as the adjoint operator",
        gap, 1e-10, t0))

    if module.lmax >= 2 and module.protected_dim(4) > 0:
        t0 = _clock()
        E = element_from_path(_shallow_path(rng), G=128, K=32)
        gap = dagger_residual(E, module, tol=tol)
        rows.append(_row(
            "dagger-flowed",
            "reversed flowed annulus represents as the adjoint on the "
            "protected block", gap, 1e-5, t0))
    return rows


def suite_cocycle(module, tol, rng):
    if module.N < 2:
        return []
    rows = []
    t0 = _clock()
    gap = cocycle_invariance_residual(constant_homotopy(), module, tol=tol)
    rows.append(_row(
        "cocycle-constant-homotopy",
        "constant homotopy leaves the operator fixed with unit central "
        "factor", gap, 1e-7, t0))

    t0 = _clock()
    gap = cocycle_invariance_residual(reparametrization_homotopy(), module,
                                      tol=tol)
    rows.append(_row(
        "cocycle-reparametrization",
        "time-warped sweep of the same annulus gives the same operator",
        gap, 1e-7, t0))

    # the wiggled end framing extracts to modes up to 6, so the residual
    # is taken on levels <= N - 12
    if module.lmax >= 7 and module.protected_dim(12) > 0:
        t0 = _clock()
        gap = cocycle_invariance_residual(wiggle_homotopy(2, 0.05, 0.5),
                                          module, tol=tol, maxmode=7,
                                          tail_tol=3e-5)
        rows.append(_row(
            "cocycle-wiggle",
            "mode-2 boundary wiggle: operators differ by exp of the "
            "integrated pairing", gap, 1e-4, t0))
    return rows


def suite_segal(module, tol, rng):
    rows = []
    t0 = _clock()
    E = standard_element(0.5)
    R = represent(E, module, tol=tol)
    # seed mode n is measured on levels <= N - 2|n|
    worst = max(segal_residual(R, mode_field(n), module, tol=tol)
                for n in (-2, 0, 2)
                if abs(n) <= module.lmax
                and module.protected_dim(2 * abs(n)) > 0)
    rows.append(_row(
        "segal-standard",
        "transported generator intertwines the diagonal operator",
        worst, 1e-8, t0))

    # a mode-2 path and seeds of mode <= 1 are measured on levels <= N - 6;
    # the row is omitted where the module cannot hold the path, that block
    # or the transported field (ModuleRangeError); a transport that runs
    # out of its own mode window still raises
    t0 = _clock()
    E = element_from_path(_shallow_path(rng, depth=0.012), G=128, K=32)
    try:
        R = represent(E, module, tol=tol)
        worst = max(segal_residual(R, mode_field(n), module, tol=tol)
                    for n in (-1, 0, 1))
    except ModuleRangeError:
        return rows
    rows.append(_row(
        "segal-flowed",
        "transported generator intertwines a flowed operator on the "
        "protected block", worst, 1e-4, t0))
    return rows


def suite_derivative(module, tol, rng):
    if module.N < 2:
        return []
    rows = []
    small = _small_twin(module)

    t0 = _clock()
    rows.append(_row(
        "derivative-diagonal-closed-form",
        "Duhamel integral and centered difference against the diagonal "
        "closed form", derivative_closed_form_gap(small, tol), 1e-6, t0))

    t0 = _clock()
    gaps = derivative_agreement_gaps(small, tol)
    rows.append(_row(
        "derivative-agreement-small-delta",
        "integral formula vs centered difference at delta = 1e-3; the "
        "residual is the O(delta^2) error of the centered difference",
        gaps[1], 1e-7, t0))
    rows.append(_row(
        "derivative-quadratic-order",
        "disagreement drops at least 2.5x per delta halving "
        "(quadratic differencing error)", gaps[1] / gaps[0], 1.0 / 2.5, t0))
    return rows


def suite_holomorphy(module, tol, rng):
    rows = []
    t0 = _clock()
    r1 = holomorphy_residual(standard_element, module, 1e-3, tol=tol, at=0.5)
    rows.append(_row(
        "holomorphy-wirtinger",
        "conjugate-direction derivative of the scaling family vanishes to "
        "stencil order", r1, 1e-5, t0))

    t0 = _clock()
    r2 = holomorphy_residual(standard_element, module, 2e-3, tol=tol, at=0.5)
    rows.append(_row(
        "holomorphy-quadratic-order",
        "residual ratio under step halving sits near the quadratic value "
        "1/4", r1 / r2, 0.45, t0))

    t0 = _clock()
    ra = holomorphy_residual(lambda w: standard_element(np.conj(w)),
                             module, 1e-3, tol=tol, at=0.5)
    rows.append(_row(
        "holomorphy-anti-control",
        "conjugated family keeps an order-one conjugate derivative; "
        "residual is the shortfall below 0.02", max(0.0, 0.02 - ra),
        0.0, t0))
    return rows


def suite_mobius(module, tol, rng):
    rows = []
    h = float(module.params.h)

    t0 = _clock()
    partials, limit = mobius_overlap(0.5 * np.exp(0.4j), h, nmax=20)
    rows.append(_row(
        "mobius-partial-sums",
        "lowering-exponential overlap partial sums reach the closed form "
        "(1-|w|^2)^(-2h)", abs(partials[-1] - limit), 1e-6, t0))

    t0 = _clock()
    rows.append(_row(
        "mobius-term-oracle",
        "closed-form term norms match the normal-ordering reduction "
        "exactly",
        mobius_term_mismatch(Fraction(float(module.params.c)), Fraction(h)),
        0.0, t0))
    return rows


def suite_bigon(module, tol, rng):
    rows = []
    t0 = _clock()
    rows.append(_row(
        "bigon-round",
        "two-arc factor annuli glue back to the round annulus", bigon_gap(),
        1e-8, t0))

    t0 = _clock()
    rows.append(_row(
        "bigon-perturbed",
        "factor annuli glue back to mode-3 perturbed boundary curves",
        bigon_gap(bigon_perturbation(rng)), 1e-8, t0))
    return rows


# ---------------------------------------------------------------------------
# registry and runner


SUITES = {
    "gram": suite_gram,
    "bracket": suite_bracket,
    "qei": suite_qei,
    "energy": suite_energy,
    "standard": suite_standard,
    "evolution": suite_evolution,
    "adjoint": suite_adjoint,
    "growth": suite_growth,
    "semigroup": suite_semigroup,
    "dagger": suite_dagger,
    "cocycle": suite_cocycle,
    "segal": suite_segal,
    "derivative": suite_derivative,
    "holomorphy": suite_holomorphy,
    "mobius": suite_mobius,
    "bigon": suite_bigon,
}
SUITE_INDEX = {name: i for i, name in enumerate(SUITES)}


def suite_rng(seed: int, name: str) -> np.random.Generator:
    # salt by registry position: running a subset of suites never shifts
    # the draws of the others
    return np.random.default_rng([int(seed), 7919, SUITE_INDEX[name]])


def normalize_config(cfg: dict) -> dict:
    module = cfg.get("module", {})
    out = {
        "module": {"c": float(module.get("c", 2.0)),
                   "h": float(module.get("h", 0.5)),
                   "N": int(module.get("N", 12))},
        "tol": float(cfg.get("tol", DEFAULT_ODE_TOL)),
        "seed": int(cfg.get("seed", 1)),
        "suites": list(cfg.get("suites", SUITES)),
        "format": cfg.get("format", "json"),
        "verbosity": int(cfg.get("verbosity", 1)),
    }
    if "out" in cfg:
        out["out"] = cfg["out"]
    return out


def _environment(blas_threads: list[dict], workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": blas_threads, "workers": workers,
            "longdouble_eps": float(np.finfo(np.longdouble).eps)}


def run_config(cfg: dict, workers: int | None = None) -> dict:
    """Build the configured module, run the requested suites, aggregate.

    The whole run, module build included, holds every loaded OpenBLAS on
    one thread (see ``_blas``; the pin is process-wide while run_config
    runs, and the previous counts come back when it returns or raises).
    Every run sends its suites through one thread pool, workers=1
    included (default up to 4 workers; the pool starts no more threads
    than there are suites), without oversubscribing the cores.  Rows are
    aggregated in registry order regardless of completion order, so the
    rows are a function of (config, seed).  Only the seconds and cpu_s
    columns and the report's environment block vary between runs.
    """
    with _blas.one_thread() as blas_threads:
        cfg = normalize_config(cfg)
        unknown = [s for s in cfg["suites"] if s not in SUITES]
        if unknown:
            raise ArgumentError(
                f"unknown suite name(s): {', '.join(unknown)}")
        names = [n for n in SUITES if n in cfg["suites"]]

        params = ModuleParams(cfg["module"]["c"], cfg["module"]["h"],
                              cfg["module"]["N"])
        module = build_module(params)

        if workers is None:
            workers = min(4, len(names))
        workers = max(1, workers) if len(names) > 1 else 1
        results: list[dict] = []
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(SUITES[n], module, cfg["tol"],
                                suite_rng(cfg["seed"], n)) for n in names]
            for f in futs:
                results.extend(r.to_row() for r in f.result())

    npass = sum(1 for r in results if r["pass"])
    c, h = params.as_floats()
    return {
        "config": {"module": cfg["module"], "tol": cfg["tol"],
                   "seed": cfg["seed"], "suites": names},
        "module": {"c": c, "h": h, "N": params.N, "dim": module.dim},
        "results": results,
        "counts": {"pass": npass, "fail": len(results) - npass},
        "passed": npass == len(results),
        "environment": _environment(blas_threads, workers),
    }
