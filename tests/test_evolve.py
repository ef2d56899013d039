"""Time-ordered exponentials: product scheme, ODE engine, identities."""

import threading

import numpy as np
import pytest
from scipy.integrate import DOP853, RK23, RK45, solve_ivp
from scipy.linalg import expm

from virann import evolve
from virann.errors import ArgumentError, EvolutionError
from virann.evolve import (
    DEFAULT_ODE_TOL,
    GeneratorPath,
    _segments,
    _sweep,
    adjoint_evolution_check,
    flow_residual,
    ode_exp,
    piecewise_exp,
)
from virann.field import (
    FieldPath,
    VectorField,
    mode_field,
    pi_field,
    random_inward_path,
)
from virann.verify import (
    derivative_agreement_gaps,
    derivative_closed_form_gap,
    derivative_constant_family_gap,
    growth_margin,
    product_limit_gap,
)
from virann.virmod import random_protected_vector


@pytest.fixture()
def noncommuting_path(mod6, rng):
    p = random_inward_path(2, rng, knots=5, amplitude=0.05, wiggle=0.4)
    return GeneratorPath.from_field_path(p, mod6)


# ---------------------------------------------------------------------------
# product scheme


def test_constant_path_exact_at_every_subdivision(mod6):
    A = pi_field(VectorField({0: np.log(0.5), 1: 0.1, -1: 0.05j}), mod6)
    gp = GeneratorPath.constant(A)
    ref = expm(A)
    for n in (1, 2, 7, 32):
        got = piecewise_exp(gp, 0.0, 1.0, n).U
        assert np.abs(got - ref).max() < 1e-13


def test_commuting_family_reaches_quadrature_limit(mod6):
    # A(t) = a(t) D with a periodic: the left-endpoint Riemann sum of a is
    # already exact, so the product equals exp(D int a) at modest n
    D = pi_field(mode_field(0, -0.4 + 0.25j), mod6)

    def sampler(t):
        return (1.0 + 0.5 * np.sin(2 * np.pi * t)) * D

    gp = GeneratorPath(sampler, mod6.dim)
    ref = expm(D)  # int_0^1 a = 1
    got = piecewise_exp(gp, 0.0, 1.0, 64).U
    assert np.abs(got - ref).max() < 1e-12


def test_refinement_is_first_order(noncommuting_path):
    gp = noncommuting_path
    diffs = []
    for n in (64, 128, 256):
        u_n = piecewise_exp(gp, 0.0, 1.0, n).U
        u_2n = piecewise_exp(gp, 0.0, 1.0, 2 * n).U
        diffs.append(np.linalg.norm(u_2n - u_n, 2))
    assert diffs[0] > diffs[1] > diffs[2]
    for a, b in zip(diffs, diffs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.25)


def test_piecewise_argument_validation(mod6):
    gp = GeneratorPath.constant(np.zeros((3, 3)))
    with pytest.raises(ArgumentError):
        piecewise_exp(gp, 0.5, 0.2, 4)
    with pytest.raises(ArgumentError):
        piecewise_exp(gp, 0.0, 1.0, 0)


# ---------------------------------------------------------------------------
# ODE engine


def test_ode_zero_path_gives_identity():
    gp = GeneratorPath.constant(np.zeros((4, 4)))
    res = ode_exp(gp, 0.0, 1.0, 1e-10)
    assert np.abs(res.U - np.eye(4)).max() < 1e-12


def test_ode_empty_interval_is_the_identity_without_steps(noncommuting_path):
    res = ode_exp(noncommuting_path, 0.5, 0.5)
    assert np.array_equal(res.U, np.eye(noncommuting_path.dim))
    assert (res.stepcount, res.meta["nfev"]) == (0, 0)


def test_ode_constant_diagonal_closed_form(mod6):
    gp = GeneratorPath.constant(np.log(0.5) * mod6.lmat(0))
    res = ode_exp(gp, 0.0, 1.0, 1e-10)
    expect = np.diag(0.5 ** (0.5 + mod6.level_index()))
    assert np.abs(res.U - expect).max() < 1e-9


def _dop853(gp, tol):
    """U(1, 0) from scipy's DOP853 on the same right-hand side and knots."""
    d = gp.dim
    y = np.eye(d, dtype=complex).ravel()
    for a, b in _segments(gp.knots, 0.0, 1.0):
        y = solve_ivp(lambda x, v: gp.act(x, v.reshape(d, d)).ravel(), (a, b),
                      y, method="DOP853", rtol=tol, atol=tol).y[:, -1]
    return y.reshape(d, d)


def test_ode_tolerance_scaling(noncommuting_path):
    gp = noncommuting_path
    ref = _dop853(gp, 1e-12)
    coarse = np.linalg.norm(ode_exp(gp, 0.0, 1.0, 1e-6).U - ref, 2)
    fine = np.linalg.norm(ode_exp(gp, 0.0, 1.0, 1e-10).U - ref, 2)
    assert fine < coarse


def test_ode_dop853_variant(noncommuting_path):
    a = ode_exp(noncommuting_path, 0.0, 1.0, 1e-10).U
    b = _dop853(noncommuting_path, 1e-10)
    assert np.linalg.norm(a - b, 2) < 1e-8


def test_cross_validation_small_amplitude(mod6, rng):
    assert product_limit_gap(mod6, rng, 5) < 1e-7


@pytest.mark.parametrize("name", ["A", "B", "C", "E", "P"])
def test_tableau_is_scipys(name):
    # the loop's bit-for-bit equality with solve_ivp rests on these arrays
    held, scipys = getattr(evolve, name), getattr(RK45, name)
    assert held.dtype == scipys.dtype
    assert np.array_equal(held, scipys)


def test_tableau_order_and_stage_count_are_scipys():
    assert (evolve.N_STAGES, evolve.ERROR_ESTIMATOR_ORDER) == (6, 4)
    assert (RK45.n_stages, RK45.error_estimator_order) == (6, 4)


def test_sweep_steps_like_solve_ivp(noncommuting_path):
    gp, d = noncommuting_path, noncommuting_path.dim
    y0 = np.eye(d, dtype=complex).ravel()

    def rhs(x, y):
        return (gp(x) @ y.reshape(d, d)).ravel()

    forward = _segments(gp.knots, 0.0, 1.0)
    for segs in (forward, [(b, a) for a, b in reversed(forward)]):
        interior = [x for a, b in segs for x in np.linspace(a, b, 5)[1:-1]]
        y, steps, nfev, ys = _sweep(rhs, segs, y0, 1e-8, at=interior)
        want = y0
        want_steps = want_nfev = 0
        refs = []
        for a, b in segs:
            ref = solve_ivp(rhs, (a, b), want, method="RK45", rtol=1e-8,
                            atol=1e-8, dense_output=True)
            refs += [ref.sol(x) for x in np.linspace(a, b, 5)[1:-1]]
            want = ref.y[:, -1]
            want_steps += ref.t.size - 1
            want_nfev += ref.nfev
        assert len(ys) == len(refs) == 3 * len(segs)
        assert all(np.array_equal(got, ref) for got, ref in zip(ys, refs))
        assert np.array_equal(y, want)
        assert (steps, nfev) == (want_steps, want_nfev)


def test_sweep_reads_each_time_once_in_any_order(noncommuting_path):
    gp, d = noncommuting_path, noncommuting_path.dim
    y0 = np.eye(d, dtype=complex).ravel()

    def rhs(x, y):
        return (gp(x) @ y.reshape(d, d)).ravel()

    segs = _segments(gp.knots, 0.0, 1.0)
    times = [0.9, 0.0, 0.25, 0.9, 1.0]
    y, _, _, ys = _sweep(rhs, segs, y0, 1e-8, at=times)
    _, _, _, sorted_ys = _sweep(rhs, segs, y0, 1e-8, at=sorted(set(times)))
    by_time = dict(zip(sorted(set(times)), sorted_ys))
    assert all(np.array_equal(v, by_time[t]) for t, v in zip(times, ys))
    assert np.array_equal(ys[1], y0)
    # the knot 0.25 is read from the last step of the segment ending there
    assert segs[0] == (0.0, 0.25)
    _, _, _, first = _sweep(rhs, segs[:1], y0, 1e-8, at=[0.25])
    assert np.array_equal(ys[2], first[0])
    assert np.allclose(ys[-1], y, atol=1e-14, rtol=0)


@pytest.mark.parametrize("x", [-1e-9, 1.0 + 1e-9, 2.0, np.nan])
def test_sweep_rejects_times_outside_its_range(x):
    with pytest.raises(ArgumentError, match="outside the integrated range"):
        _sweep(lambda t, y: -y, [(0.0, 0.5), (0.5, 1.0)], np.ones(2), 1e-8,
               at=[0.5, x])


def _raised_within(seconds, call):
    """The EvolutionError messages ``call`` raised, run on a thread that
    must finish within ``seconds``."""
    raised = []

    def run():
        try:
            call()
        except EvolutionError as e:
            raised.append(str(e))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive()
    return raised


@pytest.mark.parametrize("method", [RK23, RK45, DOP853],
                         ids=lambda m: m.__name__)
def test_nan_generator_raises_instead_of_spinning(method):
    # a NaN first evaluation gives each of scipy's explicit Runge-Kutta
    # solvers a NaN initial step, which its step loop never rejects as too
    # small; the loop here must raise at that step instead
    gp = GeneratorPath.constant(np.full((2, 2), np.nan))
    y0 = np.eye(2, dtype=complex).ravel()
    solver = method(lambda t, v: gp.act(t, v.reshape(2, 2)).ravel(), 0.0,
                    y0, 1.0, rtol=DEFAULT_ODE_TOL, atol=DEFAULT_ODE_TOL)
    assert np.isnan(solver.h_abs)
    raised = _raised_within(60, lambda: ode_exp(gp, 0.0, 1.0))
    assert raised and "initial step" in raised[0]


def test_blow_up_raises_once_the_step_underflows():
    # y' = y^2, y(0) = 1 is 1 / (1 - t): the steps shrink towards t = 1
    # until one falls below 10 ulp of t
    raised = _raised_within(60, lambda: _sweep(
        lambda t, y: y * y, [(0.0, 2.0)], np.ones(1), 1e-8))
    assert raised and "integration failed on [0.0, 2.0]" in raised[0]


def test_field_path_acts_like_its_dense_generator(mod12, rng):
    p = random_inward_path(3, rng, knots=4, amplitude=0.3)
    gp = GeneratorPath.from_field_path(p, mod12)
    rev = gp.reversed_adjoint()
    Y = (rng.standard_normal((mod12.dim, 5))
         + 1j * rng.standard_normal((mod12.dim, 5)))
    for t in (0.0, 0.2, 0.5, 0.77, 1.0):
        for got, A in ((gp.act(t, Y), gp(t)),
                       (rev.act(t, Y), gp(1.0 - t).conj().T)):
            want = A @ Y
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_flow_property(noncommuting_path):
    for r in (0.2, 0.37, 0.5, 0.81):
        assert flow_residual(noncommuting_path, 0.0, r, 1.0) < 1e-10


# ---------------------------------------------------------------------------
# adjoint reversal


def test_adjoint_check_selfadjoint_constant(mod6):
    A = pi_field(VectorField({1: 0.2, -1: 0.2, 0: -0.5}), mod6)
    assert np.abs(A - A.conj().T).max() < 1e-14
    gp = GeneratorPath.constant(A)
    assert adjoint_evolution_check(gp) < 1e-9


def test_adjoint_check_skew_rotation(mod6):
    gp = GeneratorPath.constant(pi_field(mode_field(0, 1j), mod6))
    assert adjoint_evolution_check(gp) < 1e-9


def test_adjoint_check_random_paths(mod6, rng):
    for _ in range(6):
        p = random_inward_path(3, rng, knots=4, amplitude=0.3)
        gp = GeneratorPath.from_field_path(p, mod6)
        assert adjoint_evolution_check(gp) < 1e-8


# ---------------------------------------------------------------------------
# parameter derivative


def test_derivative_diagonal_family_closed_form(mod6):
    assert derivative_closed_form_gap(mod6, DEFAULT_ODE_TOL) < 1e-6


def test_derivative_parameter_independent_family(mod6):
    assert derivative_constant_family_gap(mod6, DEFAULT_ODE_TOL) < 1e-11


def test_derivative_two_mode_family_second_order(mod6):
    gaps = derivative_agreement_gaps(mod6, DEFAULT_ODE_TOL)
    # centered differencing on both sides: disagreement drops ~4x per halving
    assert gaps[1] < gaps[0] / 2.5


# ---------------------------------------------------------------------------
# growth bound


def test_rotation_is_protected_isometry(mod6, rng):
    # mu = 0 on a rotation, and ||U v|| = ||v||
    p = FieldPath.constant_path(mode_field(0, 1j))
    vecs = np.array([random_protected_vector(mod6, 2, rng) for _ in range(20)])
    assert abs(growth_margin(mod6, p, vecs, DEFAULT_ODE_TOL)) < 1e-9


def test_pure_scaling_contracts(mod6):
    # mu = 0 on a scaling, and ||U(t,s) v|| = 0.5^{h (t-s)} < ||v|| on the
    # lowest-weight vector; the shorter interval (0.1, 0.6) is the worse
    p = FieldPath.constant_path(mode_field(0, np.log(0.5)))
    v = np.zeros((1, mod6.dim))
    v[0, 0] = 1.0
    assert growth_margin(mod6, p, v, DEFAULT_ODE_TOL) == pytest.approx(
        0.5**0.25 - 1.0, abs=1e-9)


def test_inward_paths_obey_mu_rate(mod6, rng):
    for _ in range(5):
        p = random_inward_path(2, rng, knots=5, amplitude=0.15)
        vecs = np.array([random_protected_vector(mod6, 4, rng) for _ in range(40)])
        assert growth_margin(mod6, p, vecs, DEFAULT_ODE_TOL) <= 1e-6
