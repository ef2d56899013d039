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
by one loop, ``_sweep``.  It keeps only the current state; a caller that
needs intermediate states names their times up front (``at``), and each
is read from the dense output of the step that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, RK23, RK45
from scipy.linalg import expm

from .errors import ArgumentError, EvolutionError
from .field import FieldPath, VectorField, adjoint_field, pi_field
from .virmod import ModuleData

DEFAULT_ODE_TOL = 1e-10


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


#: the explicit Runge-Kutta methods; an implicit one would form a Jacobian
#: of the d^2-sized state
_SOLVERS = {s.__name__: s for s in (RK23, RK45, DOP853)}


def _sweep(rhs, segments, y0, tol: float, method: str, at=()):
    """The one stepping loop: sequential adaptive solves over segments.

    Returns (y_end, steps, nfev, states at the times in ``at``).  It steps
    scipy's solver itself and keeps only the current state; steps,
    evaluations and the end state are those of scipy's own driver with the
    same options.  Each time in ``at`` is read from the dense output of
    the first step that reaches it, while that step is live: the
    interpolant that the driver's stitched dense output would pick.  A
    time outside every segment raises ArgumentError; a non-finite initial
    step (from a NaN or infinite first evaluation) raises EvolutionError.
    """
    solver_cls = _SOLVERS.get(method)
    if solver_cls is None:
        raise ArgumentError(f"unknown method {method!r}, use one of "
                            f"{', '.join(_SOLVERS)}")
    for x in at:
        if not any(min(a, b) <= x <= max(a, b) for a, b in segments):
            raise ArgumentError(f"time {x} outside the integrated range")
    pending = dict(enumerate(at))
    values = [None] * len(pending)
    y = y0
    steps = nfev = 0
    for a, b in segments:
        solver = solver_cls(rhs, float(a), y, float(b), rtol=tol, atol=tol)
        if not np.isfinite(solver.h_abs):
            # a NaN step never falls below scipy's minimum and never ends
            raise EvolutionError(f"initial step on [{a}, {b}] is "
                                 f"{solver.h_abs}: non-finite generator")
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise EvolutionError(f"integration failed on [{a}, {b}]: "
                                     f"{message}")
            steps += 1
            lo, hi = sorted((solver.t_old, solver.t))
            reached = [i for i, x in pending.items() if lo <= x <= hi]
            if reached:
                dense = solver.dense_output()
                for i in reached:
                    values[i] = dense(pending.pop(i))
        y = solver.y
        nfev += solver.nfev
    return y, steps, nfev, values


def _solve(path: GeneratorPath, s: float, t: float, tol: float,
           method: str = "RK45", at=()):
    """U' = A(x) U, U(s) = I through ``path.act``, restarted at knots.

    Returns (U(t, s), steps, nfev, [U(x, s) for x in at]).
    """
    d = path.dim

    def rhs(x, y):
        return path.act(x, y.reshape(d, d)).ravel()

    y, steps, nfev, values = _sweep(rhs, _segments(path.knots, s, t),
                                    np.eye(d, dtype=complex).ravel(), tol,
                                    method, at)
    return (y.reshape(d, d), steps, nfev,
            [v.reshape(d, d) for v in values])


def ode_exp(path: GeneratorPath, s: float, t: float,
            tol: float = DEFAULT_ODE_TOL, method: str = "RK45") -> EvolutionResult:
    """Adaptive Runge-Kutta solve of U' = A(t)U, U(s) = I.

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
    U, steps, nfev, _ = _solve(path, s, t, tol, method)
    _check_finite(U, "ode integration")
    return EvolutionResult(U, steps, f"ode:{method}", meta={"nfev": nfev})


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
