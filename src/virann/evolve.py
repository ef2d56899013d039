"""Time-ordered exponentials of matrix-valued generator paths.

Two engines solve U' = A(t) U, U(s) = I on [s, t] <= [0, 1]: an adaptive
Runge-Kutta integration (``ode_exp``) and the product of short-interval
exponentials with left-endpoint sampling (``piecewise_exp``).  The product
scheme is the constructive definition.  ``ode_exp`` only ever applies the
generator to its state, through ``GeneratorPath.act``: a path of fields
on a module is applied by the module's real level blocks, L_n mapping
level k to level k - n, so neither the dense pi(X(t)) nor a dense complex
d x d product is formed.  ``rep.represent`` does not hand the full
generator a_0(t) L_0 + B(t) of an annulus to either engine: it applies
the scaling flow e^{phi L_0} in closed form and calls ``ode_exp`` only
for the non-diagonal part in the interaction picture.  Both engines, run
on full generators, stay the cross-checks of that split.  Also here: the
adjoint-reversal identity check and the parameter-derivative (Duhamel)
formula.

Every ODE of the package (these matrix solves, the field transport of
``rep`` and the circle flow of ``annulus.element_from_path``) is stepped
by one RK45 loop, ``_sweep``, that repeats scipy's arithmetic (tests hold
it to exact equality with ``solve_ivp``) on buffers allocated per call.
Its tableau is held here: the Dormand-Prince 5(4) pair (Dormand and
Prince, J. Comput. Appl. Math. 6, 1980) with Shampine's dense output
(Math. Comp. 46, 1986), written as scipy's ``RK45`` writes it; a test
holds the two equal.  A caller that needs intermediate states names their
times up front (``at``); each is read from the dense output of the step
that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, EvolutionError
from .field import FieldPath, VectorField, adjoint_field, pi_field
from .virmod import ModuleData

DEFAULT_ODE_TOL = 1e-10

# The RK45 tableau, with scipy's float expressions: nodes C, stage
# coefficients A, 5th-order weights B, error weights E (5th minus 4th
# order, with the FSAL stage) and the dense-output polynomial P.
N_STAGES = 6
ERROR_ESTIMATOR_ORDER = 4
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
              1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


@dataclass
class GeneratorPath:
    """t -> generator A(t) on [0, 1], applied to a state Y by ``act``.

    From a bare ``sampler`` of dense matrices, ``act`` is A(t) @ Y.  From
    fields on a module (``from_fields``, ``from_field_path``), A(t) is
    pi(X(t)), and ``act`` applies it by the module's real level blocks
    through ``pi_field(X(t), module, Y)``; the dense matrix is formed only
    where a caller samples A(t) itself.
    """

    sampler: Callable[[float], np.ndarray]
    dim: int
    knots: tuple[float, ...] = (0.0, 1.0)
    #: t -> X(t) when A(t) = pi(X(t)) on ``module``
    field_at: Callable[[float], VectorField] | None = None
    module: ModuleData | None = None

    def __call__(self, t: float) -> np.ndarray:
        A = np.asarray(self.sampler(float(t)), dtype=complex)
        if A.shape != (self.dim, self.dim):
            raise ArgumentError(
                f"sampler returned shape {A.shape}, expected {(self.dim, self.dim)}"
            )
        return A

    def act(self, t: float, Y: np.ndarray) -> np.ndarray:
        """A(t) @ Y."""
        if self.field_at is None:
            return self(t) @ Y
        return pi_field(self.field_at(float(t)), self.module, Y)

    @classmethod
    def constant(cls, A: np.ndarray) -> "GeneratorPath":
        A = np.asarray(A, dtype=complex)
        return cls(sampler=lambda t: A, dim=A.shape[0])

    @classmethod
    def from_fields(cls, field_at: Callable[[float], VectorField],
                    module: ModuleData,
                    knots=(0.0, 1.0)) -> "GeneratorPath":
        return cls(sampler=lambda t: pi_field(field_at(t), module),
                   dim=module.dim, knots=tuple(knots), field_at=field_at,
                   module=module)

    @classmethod
    def from_field_path(cls, path: FieldPath, module: ModuleData) -> "GeneratorPath":
        return cls.from_fields(path.field_at, module, path.knots)

    def reversed_adjoint(self) -> "GeneratorPath":
        """B(t) = A(1-t)*, the generator of the adjoint-reversed system.

        For fields, pi(X)* = pi(adjoint_field(X)) entry for entry, since
        L_{-n} = L_n^T is real; so B stays a path of fields.
        """
        ks = tuple(sorted({0.0, 1.0, *(1.0 - k for k in self.knots)}))
        if self.field_at is not None:
            field_at = self.field_at
            return GeneratorPath.from_fields(
                lambda t: adjoint_field(field_at(1.0 - t)), self.module, ks)
        return GeneratorPath(
            sampler=lambda t: self(1.0 - t).conj().T, dim=self.dim, knots=ks,
        )


@dataclass
class EvolutionResult:
    U: np.ndarray
    stepcount: int
    method: str
    #: ``nfev``, the right-hand side evaluations of an ODE solve
    meta: dict = field(default_factory=dict)


def _check_finite(U: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(U)):
        raise EvolutionError(f"{what} produced nonfinite entries "
                             "(generator too large for this truncation)")


def piecewise_exp(path: GeneratorPath, s: float, t: float,
                  n: int) -> EvolutionResult:
    """Left-endpoint product of short-time exponentials.

    U_n = exp(d A(tau_{n-1})) ... exp(d A(tau_0)), d = (t-s)/n, tau_i = s+i*d.
    Earlier times act first (rightmost factor).  First-order accurate in 1/n
    on noncommuting paths; exact for a constant generator at every n.
    """
    if t < s:
        raise ArgumentError("need s <= t")
    if n < 1:
        raise ArgumentError("need at least one subdivision")
    d = (t - s) / n
    U = np.eye(path.dim, dtype=complex)
    if d == 0.0:
        return EvolutionResult(U, 0, "piecewise")
    for i in range(n):
        U = expm(d * path(s + i * d)) @ U
    _check_finite(U, "piecewise product")
    return EvolutionResult(U, n, "piecewise")


def _segments(knots, s: float, t: float) -> list[tuple[float, float]]:
    """[s, t] split at interior path knots, so each piece is smooth."""
    pts = sorted({s, t, *(k for k in knots if s < k < t)})
    return list(zip(pts, pts[1:]))


def _rms(x: np.ndarray) -> float:
    """Root mean square, scipy's error norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, t0: float, y0, t_bound: float, f0, direction,
                  tol: float, scale, work) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett and Wanner, II.4),
    the same operations on the loop's buffers ``scale`` and ``work``."""
    interval_length = abs(t_bound - t0)
    np.multiply(np.abs(y0, out=scale), tol, out=scale)
    scale += tol
    d0 = _rms(np.divide(y0, scale, out=work))
    d1 = _rms(np.divide(f0, scale, out=work))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
             interval_length)
    np.multiply(f0, h0 * direction, out=work)
    work += y0
    f1 = rhs(t0 + h0 * direction, work)
    d2 = _rms(np.divide(np.subtract(f1, f0, out=work), scale, out=work)) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1)))
    return min(100 * h0, h1, interval_length)


def _sweep(rhs, segments, y0, tol: float, at=()):
    """The one stepping loop: adaptive RK45 solves over segments in turn.

    Returns (y_end, steps, nfev, states at the times in ``at``).  It is
    scipy's ``RK45`` (atol = rtol = tol) repeated operation for operation,
    on the tableau held in this module (Dormand and Prince 1980, with
    Shampine's 1986 dense output; equal to scipy's by test), so steps,
    evaluations, end state and dense values equal ``solve_ivp``'s on each
    segment.  The stage array K and the work vectors are allocated once
    per call and filled in place; nothing outlives the call but the
    returned states.  Each time in ``at`` is read from the dense output
    K^T P of the first step that reaches it.  A time outside every segment
    raises ArgumentError; a non-finite initial step or one below 10 ulp of
    t, EvolutionError.
    """
    for x in at:
        if not any(min(a, b) <= x <= max(a, b) for a, b in segments):
            raise ArgumentError(f"time {x} outside the integrated range")
    pending = dict(enumerate(at))
    values = [None] * len(pending)
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    y_new, work = np.empty_like(y), np.empty_like(y)
    scale, mag = np.empty(y.size), np.empty(y.size)
    K = np.empty((N_STAGES + 1, y.size), dtype=y.dtype)
    exponent = -1 / (ERROR_ESTIMATOR_ORDER + 1)
    steps = nfev = 0
    for a, b in segments:
        t, t_end = float(a), float(b)
        direction = np.sign(t_end - t) if t_end != t else 1
        K[0] = rhs(t, y)
        h_abs = _initial_step(rhs, t, y, t_end, K[0], direction, tol, scale,
                              work)
        nfev += 2
        if not np.isfinite(h_abs):
            # a NaN step never falls below the minimum and never ends
            raise EvolutionError(f"initial step on [{a}, {b}] is "
                                 f"{h_abs}: non-finite generator")
        while direction * (t - t_end) < 0:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise EvolutionError(f"integration failed on [{a}, {b}]:"
                                         f" step below 10 ulp at t = {t}")
                t_new = t + h_abs * direction
                if direction * (t_new - t_end) > 0:
                    t_new = t_end
                h = t_new - t
                h_abs = np.abs(h)
                for s in range(1, N_STAGES):
                    np.dot(K[:s].T, A[s, :s], out=work)
                    work *= h
                    work += y
                    K[s] = rhs(t + C[s] * h, work)
                np.dot(K[:-1].T, B, out=y_new)
                y_new *= h
                y_new += y
                K[-1] = rhs(t + h, y_new)
                nfev += N_STAGES
                np.maximum(np.abs(y, out=scale), np.abs(y_new, out=mag),
                           out=scale)
                scale *= tol
                scale += tol
                np.dot(K.T, E, out=work)
                work *= h
                error_norm = _rms(np.divide(work, scale, out=work))
                if error_norm < 1:
                    factor = (10 if error_norm == 0
                              else min(10, 0.9 * error_norm ** exponent))
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * error_norm ** exponent)
                rejected = True
            steps += 1
            reached = [i for i, x in pending.items()
                       if min(t, t_new) <= x <= max(t, t_new)]
            if reached:
                Q = K.T.dot(P)
                for i in reached:
                    x = (pending.pop(i) - t) / h
                    values[i] = h * np.dot(Q, np.cumprod([x] * Q.shape[1])) + y
            t, y, y_new = t_new, y_new, y
            K[0] = K[-1]
    return y, steps, nfev, values


def _solve(path: GeneratorPath, s: float, t: float, tol: float, at=()):
    """U' = A(x) U, U(s) = I through ``path.act``, restarted at knots.

    Returns (U(t, s), steps, nfev, [U(x, s) for x in at]).
    """
    d = path.dim

    def rhs(x, y):
        return path.act(x, y.reshape(d, d)).ravel()

    y, steps, nfev, values = _sweep(rhs, _segments(path.knots, s, t),
                                    np.eye(d, dtype=complex).ravel(), tol, at)
    return (y.reshape(d, d), steps, nfev,
            [v.reshape(d, d) for v in values])


def ode_exp(path: GeneratorPath, s: float, t: float,
            tol: float = DEFAULT_ODE_TOL) -> EvolutionResult:
    """Adaptive RK45 solve of U' = A(t)U, U(s) = I.

    Each evaluation of the right-hand side is one ``path.act``: on a path
    of fields, the generator is applied by real level blocks.  Integration
    restarts at the path's knots: interpolated coefficient paths are only
    piecewise smooth, and stepping across a kink costs the solver two
    orders of local accuracy.  On t == s there is no segment to step: U is
    I, with no steps and no evaluations.
    """
    if t < s:
        raise ArgumentError("need s <= t")
    if tol <= 0:
        raise ArgumentError("tolerance must be positive")
    U, steps, nfev, _ = _solve(path, s, t, tol)
    _check_finite(U, "ode integration")
    return EvolutionResult(U, steps, "ode:RK45", meta={"nfev": nfev})


def flow_residual(path: GeneratorPath, s: float, r: float, t: float,
                  tol: float = DEFAULT_ODE_TOL) -> float:
    """|| U(t,r) U(r,s) - U(t,s) || in operator norm."""
    if not (s <= r <= t):
        raise ArgumentError("need s <= r <= t")
    U_ts = ode_exp(path, s, t, tol).U
    U_rs = ode_exp(path, s, r, tol).U
    U_tr = ode_exp(path, r, t, tol).U
    return float(np.linalg.norm(U_tr @ U_rs - U_ts, 2))


def adjoint_evolution_check(path: GeneratorPath, tol: float = DEFAULT_ODE_TOL,
                            pairs: tuple[tuple[float, float], ...] =
                            ((0.0, 1.0), (0.0, 0.5), (0.25, 0.75))) -> float:
    """Residual of the reversal identity U~(t,s) = U(1-s, 1-t)*.

    U~ is the evolution of B(t) = A(1-t)*.  The identity is exact for
    matrix systems, so the residual measures solver error only.
    """
    rev = path.reversed_adjoint()
    worst = 0.0
    for s, t in pairs:
        left = ode_exp(rev, s, t, tol).U
        right = ode_exp(path, 1.0 - t, 1.0 - s, tol).U.conj().T
        worst = max(worst, float(np.linalg.norm(left - right, 2)))
    return worst


#: Gauss-Legendre nodes of the Duhamel integral in ``parameter_derivative``
_DUHAMEL_NODES = 24


def parameter_derivative(family: Callable[[float], GeneratorPath], p: float,
                         delta: float, tol: float = DEFAULT_ODE_TOL):
    """Derivative of p -> U_p(1, 0), two ways.

    Returns (D_int, D_fd): the Duhamel integral
    int_0^1 U_p(1,x) dA/dp (x) U_p(x,0) dx via Gauss-Legendre quadrature
    with centered differences for dA/dp, and the centered difference of the
    full solve.  Both carry O(delta^2) differencing error; the integral
    adds quadrature error only through the smooth integrand.  U(x, 0) is
    read at the nodes of one forward solve, and U(1, x) = U~(1-x, 0)* at
    those of one solve of the adjoint-reversed path (the identity
    ``adjoint_evolution_check`` measures).
    """
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    path = family(p)
    plus, minus = family(p + delta), family(p - delta)

    nodes, weights = np.polynomial.legendre.leggauss(_DUHAMEL_NODES)
    nodes = 0.5 * (nodes + 1.0)  # map to [0, 1]
    weights = 0.5 * weights

    *_, fwd = _solve(path, 0.0, 1.0, tol, at=nodes)
    *_, rev = _solve(path.reversed_adjoint(), 0.0, 1.0, tol, at=1.0 - nodes)

    D_int = np.zeros((path.dim, path.dim), dtype=complex)
    for x, w, Ux0, V in zip(nodes, weights, fwd, rev):
        dA = (plus(x) - minus(x)) / (2.0 * delta)
        D_int += w * (V.conj().T @ dA @ Ux0)

    U_plus = ode_exp(plus, 0.0, 1.0, tol).U
    U_minus = ode_exp(minus, 0.0, 1.0, tol).U
    D_fd = (U_plus - U_minus) / (2.0 * delta)
    return D_int, D_fd
