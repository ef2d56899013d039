"""Annuli with parametrized boundary, as sampled framings plus a scalar.

A framing is a grid h(theta_j, t_i) of embedded closed curves sweeping an
annulus.  Row t = 0 holds the outgoing boundary curve (the outer circle for
the standard scaling annulus) and t = 1 the incoming one; the generator
path is extracted by differentiating the family, with path time running
opposite to the stored row index.  Elements compose by gluing along
matching boundary curves (up to one overall complex scale, which re-embeds
an annulus without changing it), have an antiholomorphic reversal
(``dagger``), and carry a central scalar z.

Sign and orientation conventions are fixed once, here, by the requirement
that the standard framing q^t e^{i theta} extract to the constant path
(ln q) * (scaling field) and hence represent as the diagonal q-power
operator downstream.  Everything else (composition order, dagger grid
transform, cocycle orientation) is chosen consistently with that anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GridError, NotInwardError, TruncationError
from .evolve import _sweep
from .field import FieldPath, VectorField, cocycle, to_theta

DEFAULT_G = 256
DEFAULT_K = 64
DEFAULT_MAXMODE = 16
DEFAULT_TAIL_TOL = 1e-8

#: inward tolerance for fields extracted by finite differences: admits the
#: differencing noise of tangential (boundary-of-cone) framings
EXTRACT_INWARD_TOL = 1e-6


# ---------------------------------------------------------------------------
# framings


@dataclass
class Framing:
    """Sampled family of closed curves: grid[i, j] = h(theta_j, t_i).

    knots are the time samples t_0 = 0 < ... < t_K = 1.  The theta grid is
    uniform with G points, theta_j = 2 pi j / G.
    """

    grid: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=complex)
        self.knots = np.asarray(self.knots, dtype=float)
        if self.grid.ndim != 2:
            raise ArgumentError("framing grid must be 2-d (time x angle)")
        if self.knots.shape != (self.grid.shape[0],):
            raise ArgumentError("one time knot per grid row required")
        if self.grid.shape[0] < 2:
            raise ArgumentError("a framing needs at least two time rows")
        if abs(self.knots[0]) > 1e-14 or abs(self.knots[-1] - 1.0) > 1e-14:
            raise ArgumentError("time knots must run from 0 to 1")
        if np.any(np.diff(self.knots) <= 0):
            raise ArgumentError("time knots must be strictly increasing")

    @property
    def G(self) -> int:
        return self.grid.shape[1]

    @property
    def K(self) -> int:
        return self.grid.shape[0] - 1

    def out_curve(self) -> np.ndarray:
        """Boundary curve at t = 0 (outgoing; outer for the standard family)."""
        return self.grid[0]

    def in_curve(self) -> np.ndarray:
        """Boundary curve at t = 1 (incoming)."""
        return self.grid[-1]


def _theta_modes(G: int) -> np.ndarray:
    return np.fft.fftfreq(G, d=1.0 / G).astype(int)


def _spectral_dtheta(rows: np.ndarray) -> np.ndarray:
    """d/dtheta along the last axis of uniformly sampled periodic data."""
    modes = _theta_modes(rows.shape[-1])
    return np.fft.ifft(1j * modes * np.fft.fft(rows, axis=-1), axis=-1)


def framing_path(f: Framing, maxmode: int = DEFAULT_MAXMODE,
                 tail_tol: float = DEFAULT_TAIL_TOL) -> FieldPath:
    """Generator path of a framing.

    Per knot: h_t by (one-sided at the ends, centered inside) differences
    over the time knots, h_theta spectrally; the ratio h_t / h_theta is a
    theta-function whose Fourier modes give the field coefficients
    a_n = i * ratio_hat(n).  Path time runs opposite to the row index, so
    the row at t = 1 seeds the path at time 0.  Modes beyond ``maxmode``
    must carry at most ``tail_tol`` of the total l1 mass, and the path
    may leave the inward cone by at most ``EXTRACT_INWARD_TOL``.
    """
    G = f.G
    if G <= 4 * maxmode:
        maxmode = max(1, (G - 1) // 4)
    h_theta = _spectral_dtheta(f.grid)
    scale = float(np.abs(f.grid).max())
    if np.abs(h_theta).min() < 1e-8 * max(scale, 1.0):
        raise GridError("framing has a degenerate tangent (|h_theta| ~ 0)")
    h_t = np.gradient(f.grid, f.knots, axis=0, edge_order=2)

    modes = _theta_modes(G)
    keep = np.abs(modes) <= maxmode
    hats = [np.fft.fft(h_t[i] / h_theta[i]) / G for i in range(f.K + 1)]
    totals = [float(np.abs(hat).sum()) for hat in hats]
    path_scale = max(totals)
    # a knot whose ratio is pure differencing noise carries the zero field
    zero_floor = 1e-12 * (1.0 + path_scale)
    fields = []
    for i, (hat, total) in enumerate(zip(hats, totals)):
        if total <= zero_floor:
            fields.append(VectorField({}))
            continue
        # tail mass is weighed against the path scale, not the knot's own
        # mass: nearly stationary knots are dominated by cancellation noise
        tail = float(np.abs(hat[~keep]).sum())
        if tail > tail_tol * max(total, 1e-3 * path_scale):
            raise TruncationError(
                f"field at knot {i} is not mode-limited: tail fraction {tail/total:.2e}"
            )
        coeff_floor = 1e-13 * total
        coeffs = {}
        for n, val in zip(modes[keep], 1j * hat[keep]):
            if abs(val) > coeff_floor:
                coeffs[int(n)] = complex(val)
        fields.append(VectorField(coeffs))

    knots = [1.0 - t for t in f.knots[::-1]]
    knots[0], knots[-1] = 0.0, 1.0
    fields.reverse()
    path = FieldPath(knots, fields)
    margin = path.max_inward_margin()
    if margin > EXTRACT_INWARD_TOL:
        raise NotInwardError(
            f"extracted path leaves the inward cone (margin {margin:.3e})",
            margin=margin,
        )
    return path


# ---------------------------------------------------------------------------
# elements


@dataclass
class AnnulusElement:
    """A framing plus the central scalar z; optionally an exact attached path.

    When the generator path is known in closed form (standard elements,
    composites assembled from known factors), it is attached and used
    downstream instead of re-extracting by finite differences.
    """

    framing: Framing
    z: complex = 1.0 + 0j
    path: FieldPath | CompositeFieldPath | None = None

    def generator_path(self) -> FieldPath | CompositeFieldPath:
        if self.path is not None:
            return self.path
        return framing_path(self.framing)


def standard_element(q: complex, G: int = DEFAULT_G,
                     K: int = DEFAULT_K) -> AnnulusElement:
    """The scaling annulus between the unit circle and the |q| circle.

    Framing h(theta, t) = q^t e^{i theta} (principal branch); the attached
    exact path is the constant field (ln q) z d/dz, so the represented
    operator is the diagonal q^(h+k) power.
    """
    q = complex(q)
    if not 0.0 < abs(q) < 1.0:
        raise ArgumentError(f"need 0 < |q| < 1, got |q| = {abs(q)}")
    lnq = np.log(q)  # principal branch
    knots = np.linspace(0.0, 1.0, K + 1)
    theta = 2.0 * np.pi * np.arange(G) / G
    grid = np.exp(knots * lnq)[:, None] * np.exp(1j * theta)[None, :]
    path = FieldPath.constant_path(VectorField({0: lnq}))
    return AnnulusElement(Framing(grid, knots), z=1.0, path=path)


def identity_element() -> AnnulusElement:
    """Zero-width annulus: three unit-circle rows, zero path."""
    knots = np.linspace(0.0, 1.0, 3)
    theta = 2.0 * np.pi * np.arange(DEFAULT_G) / DEFAULT_G
    grid = np.tile(np.exp(1j * theta), (3, 1))
    return AnnulusElement(Framing(grid, knots), z=1.0,
                          path=FieldPath.constant_path(VectorField({})))


#: negative-mode cap for the circle flow.  Inward fields make the negative
#: spectral half-line linearly unstable (growth rate |mode| x field size);
#: the genuine negative-mode content of flowed curves decays geometrically,
#: so a modest hard cap removes noise without touching signal as long as
#: the flow depth (time integral of the field) stays below about 1/2.
FLOW_NEG_CAP = 24


def _spectral_filter(y: np.ndarray) -> np.ndarray:
    """Project a sampled curve onto its resolved, above-noise modes.

    Keeps modes in [-FLOW_NEG_CAP, G/3]: the stable (positive) side is
    capped only against aliasing, the unstable side hard.  Modes below
    1e-13 of the total l1 mass are zeroed.  Raises when clipped mass
    exceeds 1e-7 of the total, rather than silently losing signal; that
    tolerance bounds the stored geometry's fidelity only, downstream
    operator solves use the attached exact path.
    """
    hat = np.fft.fft(y)
    total = float(np.abs(hat).sum())
    modes = _theta_modes(y.size)
    drop = (modes < -FLOW_NEG_CAP) | (modes > y.size // 3)
    clipped = float(np.abs(hat[drop]).sum())
    if clipped > 1e-7 * total:
        raise GridError(
            f"curve lost spectral resolution (clipped mass {clipped/total:.2e};"
            " reduce the field amplitude or flow depth)"
        )
    hat[np.abs(hat) <= 1e-13 * total] = 0.0
    hat[drop] = 0.0
    return np.fft.ifft(hat)


def element_from_path(path: FieldPath, G: int = DEFAULT_G, K: int = DEFAULT_K,
                      start_curve: np.ndarray | None = None) -> AnnulusElement:
    """Framing swept out by a generator path, with the exact path attached.

    Inverse of ``framing_path`` up to differencing error: integrates the
    circle flow dh/dt = f(theta, t) dh/dtheta inward from the outgoing
    curve (default the unit circle), where f is the ratio function of the
    time-reversed path; stored rows run outgoing to incoming while the
    path acts incoming-first.  Rows are spectrally filtered after each
    segment: the flow's unstable spectral half-line would otherwise
    amplify roundoff by e^(mode x field strength).  ``start_curve``
    chains elements into composable pairs: flowing the second factor
    from the incoming curve of the first makes the junction match
    exactly.  The path may leave the inward cone by at most
    ``EXTRACT_INWARD_TOL``.  Each row is one call of ``evolve._sweep``,
    the package's RK45 loop, to tolerance 1e-12; a failed step raises
    EvolutionError, as every other solve does.  The scalar z is 1.
    """
    margin = path.max_inward_margin()
    if margin > EXTRACT_INWARD_TOL:
        raise NotInwardError(
            f"path leaves the inward cone (margin {margin:.3e})", margin=margin
        )
    if start_curve is None:
        start = np.exp(2j * np.pi * np.arange(G) / G)
    else:
        start = np.asarray(start_curve, dtype=complex)
        if start.shape != (G,):
            raise GridError(f"start curve needs {G} samples, got {start.shape}")

    def rhs(t, y):
        return to_theta(path.field_at(1.0 - t), G) * _spectral_dtheta(y)

    # storage knots: uniform rows plus the (mirrored) path kinks, so every
    # solver segment has a smooth right side
    ks = np.union1d(np.linspace(0.0, 1.0, K + 1),
                    1.0 - np.asarray(path.knots, dtype=float)[::-1])
    ks = ks[np.concatenate([[True], np.diff(ks) > 1e-9])]
    ks[0], ks[-1] = 0.0, 1.0
    rows = [_spectral_filter(start)]
    for a, b in zip(ks[:-1], ks[1:]):
        y, *_ = _sweep(rhs, [(a, b)], rows[-1], 1e-12)
        rows.append(_spectral_filter(y))
    return AnnulusElement(Framing(np.array(rows), ks), path=path)


# ---------------------------------------------------------------------------
# composition

# half-length of each factor's sitting instants, in factor time
SITTING_WIDTH = 0.1


def _smoothstep(x: np.ndarray | float, width: float):
    """Cubic ramp with sitting instants: 0 on [0, w], 1 on [1-w, 1]."""
    y = (np.clip(x, width, 1.0 - width) - width) / (1.0 - 2.0 * width)
    s = y * y * (3.0 - 2.0 * y)
    ds = 6.0 * y * (1.0 - y) / (1.0 - 2.0 * width)
    inside = (np.asarray(x) > width) & (np.asarray(x) < 1.0 - width)
    return s, np.where(inside, ds, 0.0)


def _smoothstep_inverse(s: float, width: float) -> float:
    """x with smoothstep(x) = s; cubic root selection on the ramp."""
    s = min(max(float(s), 0.0), 1.0)
    if s <= 0.0:
        return width
    if s >= 1.0:
        return 1.0 - width
    roots = np.roots([2.0, -3.0, 0.0, s])
    y = min((r.real for r in roots if abs(r.imag) < 1e-12
             and -1e-12 <= r.real <= 1.0 + 1e-12),
            key=lambda r: abs(r - 0.5))
    return width + min(max(y, 0.0), 1.0) * (1.0 - 2.0 * width)


class CompositeFieldPath:
    """Concatenated generator path with smoothed sitting instants.

    The factor traversed first occupies path time [0, 1/2].  Each half runs
    its factor path through a cubic time change that is flat near the ends,
    so the composite field vanishes smoothly at the junction and the
    outer endpoints; reparametrization does not change the evolution
    operator.  It answers the calls that read a ``FieldPath`` (knots,
    maxmode, field_at, phase, max_inward_margin, reversed_adjoint).
    """

    def __init__(self, first: FieldPath | CompositeFieldPath,
                 second: FieldPath | CompositeFieldPath):
        self.first = first
        self.second = second
        knots = {0.0, 0.5, 1.0}
        for half, sub in ((0.0, first), (0.5, second)):
            knots.add(half + SITTING_WIDTH / 2.0)
            knots.add(half + 0.5 - SITTING_WIDTH / 2.0)
            for t in sub.knots:
                x = _smoothstep_inverse(t, SITTING_WIDTH)
                knots.add(half + x / 2.0)
        self.knots = sorted(min(max(k, 0.0), 1.0) for k in knots)

    @property
    def maxmode(self) -> int:
        return max(self.first.maxmode, self.second.maxmode)

    def field_at(self, t: float) -> VectorField:
        t = min(max(float(t), 0.0), 1.0)
        if t <= 0.5:
            sub, x = self.first, 2.0 * t
        else:
            sub, x = self.second, 2.0 * t - 1.0
        s, ds = _smoothstep(x, SITTING_WIDTH)
        if ds == 0.0:
            return VectorField({})
        return (2.0 * float(ds)) * sub.field_at(float(s))

    def phase(self, t: float) -> complex:
        # the time change keeps integral a_0: each half contributes its
        # factor's phase at the smoothstepped time
        t = min(max(float(t), 0.0), 1.0)
        if t <= 0.5:
            s, _ = _smoothstep(2.0 * t, SITTING_WIDTH)
            return self.first.phase(float(s))
        s, _ = _smoothstep(2.0 * t - 1.0, SITTING_WIDTH)
        return self.first.phase(1.0) + self.second.phase(float(s))

    def max_inward_margin(self) -> float:
        # the cone is scale-invariant and 2 sigma' >= 0, so the factor
        # margins bound the composite's
        return max(self.first.max_inward_margin(),
                   self.second.max_inward_margin(), 0.0)

    def reversed_adjoint(self) -> "CompositeFieldPath":
        # time reversal swaps the halves
        return CompositeFieldPath(self.second.reversed_adjoint(),
                                  self.first.reversed_adjoint())


def compose(E1: AnnulusElement, E2: AnnulusElement) -> AnnulusElement:
    """Glue E2's annulus (traversed first) onto E1 along matching curves.

    Precondition: E1's incoming curve equals E2's outgoing curve up to one
    overall complex factor lam (re-embedding an annulus by z -> lam z does
    not change it, and leaves the generator path untouched), to 1e-8 of
    the curve's scale.  The composite framing stacks E1's rows on [0, 1/2]
    and lam * E2's on [1/2, 1]; the composite path runs E2 first with
    sitting instants at the junction; scalars multiply.
    """
    f1, f2 = E1.framing, E2.framing
    if f1.G != f2.G:
        raise GridError(f"theta grids disagree: {f1.G} vs {f2.G}")
    inner = f1.in_curve()
    outer = f2.out_curve()
    if np.abs(outer).min() <= 0.0:
        raise GridError("outgoing curve of the second factor passes through 0")
    lam_samples = inner / outer
    lam = complex(lam_samples.mean())
    scale = float(np.abs(inner).max())
    mismatch = float(np.abs(inner - lam * outer).max())
    if mismatch > 1e-8 * max(scale, 1.0):
        raise GridError(
            f"boundary curves do not match: residual {mismatch:.3e} "
            f"(tol 1.0e-08) after alignment by {lam:.6g}"
        )

    k1 = 0.5 * f1.knots
    k2 = 0.5 + 0.5 * f2.knots
    grid = np.vstack([f1.grid, (lam * f2.grid)[1:]])
    knots = np.concatenate([k1, k2[1:]])
    framing = Framing(grid, knots)

    # best effort: factors without attached paths whose framings are not
    # mode-limited at the extraction defaults yield a composite without an
    # attached path (callers can extract with explicit settings)
    try:
        path = CompositeFieldPath(E2.generator_path(), E1.generator_path())
    except (TruncationError, NotInwardError, GridError):
        path = None
    return AnnulusElement(framing, z=complex(E1.z) * complex(E2.z), path=path)


def dagger(E: AnnulusElement) -> AnnulusElement:
    """Adjoint element: conjugated grid with time reversed, conjugated scalar.

    Grid: h'(theta_j, t_i) = conj(h(theta_j, t_{K-i})).  The ratio calculus
    gives f' = -conj(f(theta, 1-t)), so the extracted path is exactly the
    time-reversed adjoint-field path, and the represented operator is the
    Hermitian adjoint (anchored by the diagonal scaling oracle).  The grid
    realizes the mirror embedding: the boundary roles swap and the stored
    curves wind clockwise; composability with un-daggered elements is not
    preserved (nor needed), while dagger reverses composition order up to
    an overall re-embedding scale.  Involution on all three components.
    """
    f = E.framing
    knots = 1.0 - f.knots[::-1]
    knots[0], knots[-1] = 0.0, 1.0
    framing = Framing(np.conj(f.grid[::-1]).copy(), knots)
    path = E.path.reversed_adjoint() if E.path is not None else None
    return AnnulusElement(framing, z=np.conj(complex(E.z)), path=path)


# ---------------------------------------------------------------------------
# homotopies and the central cocycle


@dataclass
class FramingHomotopy:
    """Family h(theta_j, t_i, u_l): grid shape (U+1, K+1, G).

    Every u-slice must be a framing of the same annulus: the t = 0 and t = 1
    rows are required to be u-independent (boundary curves pinned).
    """

    grid: np.ndarray
    tknots: np.ndarray
    uknots: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=complex)
        self.tknots = np.asarray(self.tknots, dtype=float)
        self.uknots = np.asarray(self.uknots, dtype=float)
        if self.grid.ndim != 3:
            raise ArgumentError("homotopy grid must be 3-d (u x time x angle)")
        if self.grid.shape[0] != self.uknots.size:
            raise ArgumentError("one u knot per grid slab required")
        if self.grid.shape[1] != self.tknots.size:
            raise ArgumentError("one time knot per grid row required")
        for name, ks in (("u", self.uknots), ("t", self.tknots)):
            if abs(ks[0]) > 1e-14 or abs(ks[-1] - 1.0) > 1e-14 or \
                    np.any(np.diff(ks) <= 0):
                raise ArgumentError(f"{name} knots must increase from 0 to 1")
        ends = self.grid[:, [0, -1], :]
        drift = np.abs(ends - ends[0]).max()
        if drift > 1e-9 * max(1.0, float(np.abs(self.grid).max())):
            raise ArgumentError(
                "homotopy moves the boundary curves (ends must stay pinned)"
            )

    def slice_at(self, l: int) -> Framing:
        return Framing(self.grid[l], self.tknots)


def _homotopy_ratio_fields(H: FramingHomotopy, maxmode: int = DEFAULT_MAXMODE):
    """Mode fields of +h_t/h_theta and +h_u/h_theta at every (u, t) node."""
    G = H.grid.shape[2]
    h_theta = _spectral_dtheta(H.grid)
    scale = float(np.abs(H.grid).max())
    if np.abs(h_theta).min() < 1e-8 * max(scale, 1.0):
        raise GridError("homotopy slice has a degenerate tangent")
    h_t = np.gradient(H.grid, H.tknots, axis=1, edge_order=2)
    h_u = np.gradient(H.grid, H.uknots, axis=0, edge_order=2)
    modes = _theta_modes(G)
    keep = np.abs(modes) <= maxmode
    kept_modes = modes[keep]

    def to_field(ratio_row: np.ndarray) -> VectorField:
        hat = np.fft.fft(ratio_row) / G
        floor = 1e-13 * max(float(np.abs(hat).sum()), 1e-300)
        return VectorField({
            int(n): complex(v)
            for n, v in zip(kept_modes, 1j * hat[keep]) if abs(v) > floor
        })

    nu, nt = H.grid.shape[0], H.grid.shape[1]
    X = [[to_field(h_t[l, i] / h_theta[l, i]) for i in range(nt)]
         for l in range(nu)]
    Y = [[to_field(h_u[l, i] / h_theta[l, i]) for i in range(nt)]
         for l in range(nu)]
    return X, Y


def homotopy_cocycle(H: FramingHomotopy, c: float,
                     maxmode: int = DEFAULT_MAXMODE) -> complex:
    """Double time-by-deformation integral of the central pairing.

    Integrates omega(h_t/h_theta, h_u/h_theta) over (t, u) in [0,1]^2 by
    the trapezoidal rule on the homotopy's knots.  Note the plus signs:
    the integrand uses the raw ratio fields, the negatives of the generator
    fields.  The represented operators of the two end framings differ by
    exp(-value) (orientation fixed by the diagonal and mode-wiggle checks
    downstream).
    """
    X, Y = _homotopy_ratio_fields(H, maxmode)
    nu, nt = len(X), len(X[0])
    vals = np.empty((nu, nt), dtype=complex)
    for l in range(nu):
        for i in range(nt):
            vals[l, i] = cocycle(X[l][i], Y[l][i], c)
    inner = np.trapezoid(vals, H.tknots, axis=1)
    return complex(np.trapezoid(inner, H.uknots))


# ---------------------------------------------------------------------------
# bigon factorization


def radial_framing(outer: np.ndarray, inner: np.ndarray,
                   K: int = DEFAULT_K) -> Framing:
    """Interpolate nested curves along logarithmic rays: out at t=0, in at t=1.

    Uses the principal log of the pointwise ratio, which is single-valued
    because nested boundary parametrizations keep the ratio winding-free.
    """
    outer = np.asarray(outer, dtype=complex)
    inner = np.asarray(inner, dtype=complex)
    if outer.shape != inner.shape or outer.ndim != 1:
        raise ArgumentError("curves must be 1-d arrays on the same theta grid")
    if np.abs(outer).min() <= 0.0 or np.abs(inner).min() <= 0.0:
        raise GridError("curves must avoid the origin")
    ratio = inner / outer
    knots = np.linspace(0.0, 1.0, K + 1)
    grid = outer[None, :] * np.exp(np.outer(knots, np.log(ratio)))
    return Framing(grid, knots)


def _window(I: tuple[float, float], theta: np.ndarray) -> np.ndarray:
    """sin^2 bump supported exactly in the open arc I, peak value 1."""
    a, b = I
    span = (b - a) % (2.0 * np.pi)
    if span == 0.0:
        span = 2.0 * np.pi
    x = ((theta - a) % (2.0 * np.pi)) / span
    return np.where((x > 0.0) & (x < 1.0), np.sin(np.pi * x) ** 2, 0.0)


def _interval_partition(I1: tuple[float, float], I2: tuple[float, float],
                        G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam_minus, lam_plus, lam_0) with sum 1, supp lam_minus in I1 and
    supp lam_plus in I2; lam_0 carries the rest.

    The subordination is what localizes the factor perturbations: the outer
    factor picks up incoming-curve changes only through lam_minus, hence
    only inside I1, and dually for the inner factor.
    """
    theta = 2.0 * np.pi * np.arange(G) / G

    def inside(I, th):
        a, b = I
        span = (b - a) % (2.0 * np.pi)
        if span == 0.0:
            span = 2.0 * np.pi
        return ((th - a) % (2.0 * np.pi)) < span

    if not np.all(inside(I1, theta) | inside(I2, theta)):
        raise ArgumentError("interval interiors must cover the circle")
    lam_minus = 0.5 * _window(I1, theta)
    lam_plus = 0.5 * _window(I2, theta)
    return lam_minus, lam_plus, 1.0 - lam_minus - lam_plus


@dataclass
class BigonFactors:
    outer: AnnulusElement
    inner: AnnulusElement
    delta_curve: np.ndarray
    partition: tuple[np.ndarray, np.ndarray, np.ndarray]


def bigon_factor(gamma_in: np.ndarray, gamma_out: np.ndarray,
                 I1: tuple[float, float], I2: tuple[float, float],
                 base: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> BigonFactors:
    """Split the annulus between gamma_in and gamma_out into two factors
    whose deviations from a reference are localized in the given arcs.

    The intermediate curve is the partition-of-unity transport
        delta_A = lam_minus (gamma_in + (delta - base_in))
                + lam_plus (gamma_out + (delta - base_out))
                + lam_0 delta
    of the log-geometric-mean curve delta of a reference annulus
    (base_in, base_out), by default the input annulus, in which case
    delta_A = delta.  When the boundary curves differ from the
    reference only inside I2 (incoming) and I1 (outgoing), the outer factor
    (delta_A, gamma_out) differs from the reference outer factor only
    inside I1 and the inner factor (gamma_in, delta_A) from the reference
    inner factor only inside I2.  Composing the factors reproduces the
    input curves exactly at the grid level.
    """
    gamma_in = np.asarray(gamma_in, dtype=complex)
    gamma_out = np.asarray(gamma_out, dtype=complex)
    if gamma_in.shape != gamma_out.shape:
        raise ArgumentError("boundary curves must share the theta grid")
    G = gamma_in.size
    base_in, base_out = base if base is not None else (gamma_in, gamma_out)
    base_delta = base_out * np.exp(0.5 * np.log(base_in / base_out))
    lam_minus, lam_plus, lam_0 = _interval_partition(I1, I2, G)

    delta_A = (lam_minus * (gamma_in + (base_delta - base_in))
               + lam_plus * (gamma_out + (base_delta - base_out))
               + lam_0 * base_delta)

    # validity neighborhood: the transported curve must stay nested
    r_in, r_mid, r_out = np.abs(gamma_in), np.abs(delta_A), np.abs(gamma_out)
    slack = 1e-12 * float(r_out.max())
    if np.any(r_mid < r_in - slack) or np.any(r_mid > r_out + slack):
        raise GridError("transported middle curve is not nested between "
                        "the boundary curves")

    outer = AnnulusElement(radial_framing(gamma_out, delta_A))
    inner = AnnulusElement(radial_framing(delta_A, gamma_in))
    return BigonFactors(outer=outer, inner=inner, delta_curve=delta_A,
                        partition=(lam_minus, lam_plus, lam_0))
