"""Vector fields on the circle in mode coordinates, and their matrix action.

A field is stored as finitely many complex coefficients a_n of the basis
fields z^{n+1} d/dz (equivalently -i e^{in theta} d/dtheta).  This basis
diagonalizes both the Witt bracket and the central cocycle, and the matrix
action on a truncated module is the plain mode sum over ``lmat``.  Its
product with a state is applied by the real level blocks of the L_n
(``pi_field(X, module, V)``), never forming the dense matrix.

Inward-pointing means Re(sum a_n e^{in theta}) <= 0 on the circle: the flow
moves boundary curves weakly into the disk.  Such fields admit the
expectation bound Re<pi(X)v, v> <= mu_X computed by ``qei_bound``.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from .errors import ArgumentError, GridError, ModuleRangeError, NotInwardError
from .virmod import ModuleData

#: admit tangential (boundary-of-cone) fields in the inwardness test
DEFAULT_INWARD_TOL = 1e-10

#: below this, a sample of Im g counts as a zero of the field
DEFAULT_GRIDTOL = 1e-12

DEFAULT_GRID = 512


class VectorField:
    """Finitely supported mode coefficients {n: a_n}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, complex] | None = None):
        clean: dict[int, complex] = {}
        for n, a in (coeffs or {}).items():
            a = complex(a)
            if a != 0:
                clean[int(n)] = a
        self.coeffs = clean

    @property
    def maxmode(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)

    def __add__(self, other: "VectorField") -> "VectorField":
        out = dict(self.coeffs)
        for n, a in other.coeffs.items():
            out[n] = out.get(n, 0j) + a
        return VectorField(out)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "VectorField":
        s = complex(scalar)
        return VectorField({n: s * a for n, a in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {a:.6g}" for n, a in sorted(self.coeffs.items()))
        return f"VectorField({{{inner}}})"

    def to_dict(self) -> dict:
        return {"modes": [[n, float(a.real), float(a.imag)]
                          for n, a in sorted(self.coeffs.items())]}

    @classmethod
    def from_dict(cls, doc: dict) -> "VectorField":
        return cls({int(n): complex(re, im) for n, re, im in doc["modes"]})


def mode_field(n: int, a: complex = 1.0) -> VectorField:
    """The single basis field a * z^{n+1} d/dz."""
    return VectorField({n: a})


def adjoint_field(X: VectorField) -> VectorField:
    """Coefficient map a_n -> conj(a_{-n}); realizes pi(X)* = pi(adjoint)."""
    return VectorField({-n: np.conj(a) for n, a in X.coeffs.items()})


# ---------------------------------------------------------------------------
# algebra


def cocycle(X: VectorField, Y: VectorField, c: float) -> complex:
    """Central pairing (c/12) sum_m (m^3 - m) a_m b_{-m}.

    Paired over +-m for exact antisymmetry in floating point.
    """
    total = 0j
    for m in sorted(set(X.coeffs) | set(Y.coeffs)):
        if m <= 1:  # m^3 - m vanishes at 0, +-1; m <= -2 pairs with its mirror
            continue
        cross = X.coeff(m) * Y.coeff(-m) - X.coeff(-m) * Y.coeff(m)
        total += (m**3 - m) * cross
    return complex(c) * total / 12.0


def field_norm(X: VectorField, t: float) -> float:
    """Weighted l1 norm sum_m (1 + |m|)^t |a_m|."""
    return float(sum((1.0 + abs(m)) ** t * abs(a) for m, a in X.coeffs.items()))


# ---------------------------------------------------------------------------
# circle samples


def _theta_grid(G: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(G) / G


def _mode_samples(X: VectorField, G: int) -> np.ndarray:
    """Samples of w(theta) = sum a_n e^{in theta}."""
    theta = _theta_grid(G)
    w = np.zeros(G, dtype=complex)
    for n, a in X.coeffs.items():
        w += a * np.exp(1j * n * theta)
    return w


def to_theta(X: VectorField, grid: int = DEFAULT_GRID) -> np.ndarray:
    """Samples of g with X = g(theta) d/dtheta, i.e. g = -i sum a_n e^{in theta}."""
    if grid <= 2 * X.maxmode:
        raise GridError(f"grid {grid} cannot resolve modes up to {X.maxmode}")
    return -1j * _mode_samples(X, grid)


def inward_margin(X: VectorField, grid: int = DEFAULT_GRID) -> float:
    """max_theta Re(sum a_n e^{in theta}); <= 0 means inward-pointing."""
    if grid <= 2 * X.maxmode:
        raise GridError(f"grid {grid} cannot resolve modes up to {X.maxmode}")
    return float(_mode_samples(X, grid).real.max(initial=0.0))


def qei_bound(X: VectorField, c: float) -> float:
    """Expectation bound mu_X = (c/24) * integral of (d/dtheta sqrt(g))^2.

    Here g = Im of the theta-coefficient of X, nonnegative for inward X.
    The integrand is evaluated as (g')^2 / (4g) with spectrally exact g'
    (g is a trigonometric polynomial), which extends smoothly through
    quadratic zeros of g; at samples with g <= DEFAULT_GRIDTOL the
    removable-limit value max(g'', 0)/2 is used.  Trapezoidal quadrature
    on a uniform grid (DEFAULT_GRID, or 8 (M + 1) past mode M = 127) is
    then spectrally accurate, unlike direct differencing of sqrt(g), whose
    kinks at zeros cost two orders of accuracy.  The field must be inward
    to DEFAULT_INWARD_TOL.
    """
    M = X.maxmode
    grid = DEFAULT_GRID if 4 * M < DEFAULT_GRID else 8 * (M + 1)
    margin = inward_margin(X, grid)
    if margin > DEFAULT_INWARD_TOL:
        raise NotInwardError(
            f"field is not inward-pointing (margin {margin:.3e} > tol "
            f"{DEFAULT_INWARD_TOL:.3e})",
            margin=margin,
        )

    theta = _theta_grid(grid)
    # g and its derivatives from the exact mode coefficients of Im g
    modes = np.array(sorted(set(X.coeffs) | {-n for n in X.coeffs}), dtype=int)
    if modes.size == 0:
        return 0.0
    ghat = np.array([-0.5 * (X.coeff(n) + np.conj(X.coeff(-n))) for n in modes])
    phase = np.exp(1j * np.outer(modes, theta))
    g = (ghat @ phase).real
    g1 = ((1j * modes * ghat) @ phase).real
    g2 = ((-(modes.astype(float) ** 2) * ghat) @ phase).real

    scale = max(float(np.abs(g).max()), 1.0)
    near_zero = g <= DEFAULT_GRIDTOL * scale
    integrand = np.empty(grid)
    safe = ~near_zero
    integrand[safe] = g1[safe] ** 2 / (4.0 * g[safe])
    integrand[near_zero] = np.maximum(g2[near_zero], 0.0) / 2.0
    mu = (c / 24.0) * (2.0 * np.pi / grid) * float(integrand.sum())
    return max(mu, 0.0)


# ---------------------------------------------------------------------------
# matrix action


def pi_field(X: VectorField, module: ModuleData,
             V: np.ndarray | None = None) -> np.ndarray:
    """pi(X) = sum_n a_n L_n on the truncated module, or its product pi(X) V.

    Without ``V``: the dense matrix sum_n a_n lmat(n).  With ``V`` of shape
    (dim,) or (dim, m): pi(X) @ V, with pi(X) never formed.  L_n maps
    level k to level k - n by a real block (``ModuleData.level_blocks``,
    views into L_n cut once when the module is constructed), so each mode
    n != 0 costs one real matrix product per level, of the block with the
    real view of V's level-k rows; the result is scaled by the complex a_n
    and added into the rows of level k - n.  Mode 0 scales row k by
    a_0 (h + k).  The empty field gives exact zeros.
    """
    if X.maxmode > module.lmax:
        raise ModuleRangeError(
            f"field has modes up to {X.maxmode}, module matrices stop at {module.lmax}"
        )
    if V is None:
        out = np.zeros((module.dim, module.dim), dtype=complex)
        for n, a in X.coeffs.items():
            out += a * module.lmat(n)
        return out
    V = np.ascontiguousarray(V, dtype=complex)
    if V.ndim not in (1, 2) or V.shape[0] != module.dim:
        raise ArgumentError(f"cannot apply a generator on dimension "
                            f"{module.dim} to shape {V.shape}")
    cols = V if V.ndim == 2 else V[:, None]
    real = cols.view(np.float64)  # (dim, 2m): re and im interleaved
    out = np.zeros(cols.shape, dtype=complex)
    for n, a in X.coeffs.items():
        if n == 0:
            out += (a * module.weights())[:, None] * cols
            continue
        for dst, src, block in module.level_blocks(n):
            part = (block @ real[src]).view(complex)
            part *= a
            out[dst] += part
    return out.reshape(V.shape)


def energy_bound_constant(c: float) -> float:
    return 1.0 + np.sqrt(2.0) + np.sqrt(c / 12.0)


# ---------------------------------------------------------------------------
# paths of fields


class FieldPath:
    """Time-sampled path of fields on [0, 1], linear between knots.

    Knots are finite and strictly increasing with t_0 = 0 and t_K = 1, and
    every mode coefficient is finite.  Mode coefficients are interpolated
    linearly between knots and held at the ends.
    """

    def __init__(self, knots, fields):
        knots = [float(t) for t in knots]
        fields = list(fields)
        if len(knots) != len(fields):
            raise ArgumentError("one field per knot required")
        if len(knots) < 1:
            raise ArgumentError("path needs at least one knot")
        if not all(math.isfinite(t) for t in knots):
            raise ArgumentError("knots must be finite")
        if not all(cmath.isfinite(a) for f in fields for a in f.coeffs.values()):
            raise ArgumentError("mode coefficients must be finite")
        if abs(knots[0]) > 1e-14 or abs(knots[-1] - 1.0) > 1e-14:
            raise ArgumentError("knots must start at 0 and end at 1")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ArgumentError("knots must be strictly increasing")
        self.knots = knots
        self.fields = fields

    @classmethod
    def constant_path(cls, X: VectorField) -> "FieldPath":
        return cls([0.0, 1.0], [X, X])

    @property
    def maxmode(self) -> int:
        return max((f.maxmode for f in self.fields), default=0)

    def phase(self, t: float) -> complex:
        """phi(t) = integral over [0, t] of the constant-mode coefficient a_0.

        Exact: a_0 is piecewise linear between knots, so phi is piecewise
        quadratic.
        """
        t = min(max(float(t), 0.0), 1.0)
        a0 = [f.coeff(0) for f in self.fields]
        total = 0j
        for i, (t0, t1) in enumerate(zip(self.knots, self.knots[1:])):
            if t <= t0:
                break
            dt = min(t, t1) - t0
            slope = (a0[i + 1] - a0[i]) / (t1 - t0)
            total += dt * (a0[i] + 0.5 * slope * dt)
        return total

    def field_at(self, t: float) -> VectorField:
        t = min(max(float(t), 0.0), 1.0)
        i = bisect.bisect_right(self.knots, t) - 1
        if i >= len(self.knots) - 1:
            return self.fields[-1]
        t0, t1 = self.knots[i], self.knots[i + 1]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.fields[i] + lam * self.fields[i + 1]

    def reversed_adjoint(self) -> "FieldPath":
        """The path t -> adjoint_field(X(1 - t)), knots mirrored."""
        ks = [1.0 - t for t in reversed(self.knots)]
        ks[0], ks[-1] = 0.0, 1.0
        fs = [adjoint_field(f) for f in reversed(self.fields)]
        return FieldPath(ks, fs)

    def max_inward_margin(self) -> float:
        return max(inward_margin(f) for f in self.fields)

    @classmethod
    def from_dict(cls, doc: dict) -> "FieldPath":
        """The path of a document's ``knots`` and ``fields`` lists."""
        return cls(doc["knots"],
                   [VectorField.from_dict(f) for f in doc["fields"]])


# ---------------------------------------------------------------------------
# randomized inputs for the verification suites


def random_inward_field(maxmode: int, rng: np.random.Generator,
                        amplitude: float = 1.0,
                        margin: float = 0.0) -> VectorField:
    """Random field pushed into the inward cone.

    Draws random oscillating modes, then lowers the constant mode so that
    Re(sum a_n e^{in theta}) <= -margin * amplitude on a 1024-point grid.
    The cone is scale-invariant, so ``amplitude`` simply scales the result.
    """
    osc = {}
    for n in range(-maxmode, maxmode + 1):
        if n == 0:
            continue
        re, im = rng.standard_normal(2)
        osc[n] = complex(re, im)
    X = VectorField(osc)
    # fine-grid max plus a slack for the continuum max between samples
    peak = inward_margin(X, 1024) * (1.0 + 10.0 / 1024) + 1e-13
    osc[0] = complex(rng.standard_normal() * 0.0 - peak - margin,
                     rng.standard_normal())
    return amplitude * VectorField(osc)


def random_inward_path(maxmode: int, rng: np.random.Generator, knots: int = 5,
                       amplitude: float = 1.0,
                       wiggle: float = 0.3) -> FieldPath:
    """Piecewise-linear inward path: base inward field plus small inward wiggles.

    Convex combinations of inward fields stay inward, so linear
    interpolation between inward knot fields is inward for every t.
    """
    base = random_inward_field(maxmode, rng)
    fields = []
    for _ in range(knots):
        w = random_inward_field(maxmode, rng, amplitude=wiggle)
        fields.append(amplitude * (base + w))
    ts = np.linspace(0.0, 1.0, knots)
    return FieldPath(ts, fields)
