"""Representing annuli as operators on truncated modules, plus law checks.

``represent`` turns an annulus element (or a bare generator path with a
scalar) into the dense operator z * (time-ordered exponential of the
matrix path of the generator fields).  It works in the interaction
picture: with phi(t) the integral of the constant-mode coefficient a_0,
the operator factors as z e^{phi(1) L_0} V, where the scaling flow
e^{phi(1) L_0} is diagonal and exact, and V solves V' = B~(t) V for the
non-diagonal part conjugated past it,
B~(t) = sum_{n != 0} a_n(t) e^{n phi(t)} L_n
(from e^{-phi L_0} L_n e^{phi L_0} = e^{n phi} L_n).  RK45 integrates
V only, free of the stiff diagonal; the scaling and z then act on V in
place.  Paths without oscillating modes
(scaling, rotation, their composites and time warps) have B~ = 0: the
solver's error estimate is zero, its steps grow tenfold, and V = I
exactly after a few dozen evaluations.  The other entry points quantify,
on protected level blocks, how well the truncated operators satisfy the
structural laws that hold exactly before truncation:

- composition of elements multiplies the operators (semigroup_residual);
- reversal represents the Hermitian adjoint (dagger_residual);
- two framings of the same annulus represent equal operators up to the
  exponentiated central pairing of the connecting homotopy
  (cocycle_invariance_residual);
- a represented operator intertwines a field with its transport along
  the generator path, up to a central scalar correction (segal_residual);
- families with holomorphic coefficient dependence have vanishing
  conjugate Wirtinger derivative (holomorphy_residual).

``transport_field`` integrates the field-transport equation
f'(t) = [X(t), f(t)] in mode-coefficient space (the bracket is a mode
convolution), with the central pairing that ``segal_residual`` needs
accumulated in the same solve; ``mobius_overlap`` compares the
closed-form squared norm of exponentiated lowering acting on a primary
vector with its partial sums.

Protected blocks: a residual whose operators involve mode content up to
M is measured on the span of levels <= N - 2M, which level leakage from
the truncation cannot yet have polluted.  Residuals are operator norms
(largest singular value) of the projected difference.  Each residual
accepts a ``budget`` override; scans across cutoffs pass N - N_min plus
the default so every cutoff is measured on the same absolute level span
(with the block fixed, leakage has further to climb as N grows, which is
what makes the scan decrease).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .annulus import (AnnulusElement, CompositeFieldPath, DEFAULT_MAXMODE,
                      DEFAULT_TAIL_TOL, EXTRACT_INWARD_TOL, FramingHomotopy,
                      compose, dagger, framing_path, homotopy_cocycle)
from .errors import (ArgumentError, ModuleRangeError, NotInwardError,
                     TruncationError)
from .evolve import (DEFAULT_ODE_TOL, EvolutionResult, GeneratorPath,
                     _segments, _sweep, ode_exp)
from .field import (FieldPath, VectorField, energy_bound_constant, field_norm,
                    pi_field)
from .virmod import ModuleData, random_protected_vector

#: relative l1 floor below which transported mode coefficients are dropped
TRANSPORT_TRIM = 1e-13

#: allowed relative l1 mass beyond the reporting mode window.  A tail of
#: this size perturbs downstream operator residuals by roughly tail *
#: ||field matrix||, three orders below the loosest residual tolerance
#: used anywhere (1e-4); anything larger is reported as real overflow.
TRANSPORT_TAIL_TOL = 1e-7

#: uniform times on [0, 1], besides the path knots, at which the transported
#: field is sampled into its FieldPath
_TRANSPORT_SAMPLES = 33


def _opnorm(M: np.ndarray) -> float:
    """Largest singular value."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _as_path(E, z=None) -> tuple[FieldPath, complex, "AnnulusElement | None"]:
    if isinstance(E, AnnulusElement):
        if z is not None:
            raise ArgumentError("the element already carries its scalar")
        return E.generator_path(), complex(E.z), E
    if isinstance(E, (FieldPath, CompositeFieldPath)):
        return E, complex(1.0 if z is None else z), None
    raise ArgumentError(f"cannot represent a {type(E).__name__}")


def _protected_cols(module: ModuleData, budget: int) -> int:
    p = module.protected_dim(budget)
    if p == 0:
        raise ModuleRangeError(
            f"no protected levels at budget {budget} (module N = {module.N})"
        )
    return p


# ---------------------------------------------------------------------------
# the representation


@dataclass
class RepresentedAnnulus:
    """An annulus element realized as a dense operator on a truncated module.

    U is z times the time-ordered exponential of the generator path's
    matrices; ``result`` holds the same array as its ``U`` and the step
    and evaluation counts of the solve of its non-diagonal factor.
    ``hn_report`` measures the operator in the weighted graded norms
    n = 0, 1, 2 and compares with the a priori growth bound
    exp(C * sup_t ||X(t)||_{n + 5/2}) with C = 1 + sqrt(2) + sqrt(c/12);
    the sup is taken over knots and midpoints (exact for knot-linear
    paths, sampled otherwise).
    """

    element: "AnnulusElement | None"
    path: FieldPath
    z: complex
    module: ModuleData
    U: np.ndarray
    result: EvolutionResult

    def weighted_norm(self, n: float) -> float:
        """Operator norm of D^n U D^-n with D = 1 + L_0."""
        w = (1.0 + self.module.weights()) ** float(n)
        return _opnorm(self.U * np.outer(w, 1.0 / w))

    def _field_sup(self, sobolev_index: float) -> float:
        return max(field_norm(self.path.field_at(t), sobolev_index)
                   for t in _knots_and_midpoints(self.path))

    def hn_report(self) -> dict:
        C = energy_bound_constant(float(self.module.params.c))
        out = {}
        for n in (0, 1, 2):
            norm = self.weighted_norm(n)
            bound = abs(self.z) * math.exp(C * self._field_sup(n + 2.5))
            out[int(n)] = {"norm": norm, "bound": bound,
                           "ok": bool(norm <= bound * (1.0 + 1e-9))}
        return out


def _knots_and_midpoints(path: FieldPath) -> list[float]:
    """Knots and the midpoints between them, where bounds take a path's sup."""
    k = path.knots
    return sorted(set(k) | {0.5 * (a + b) for a, b in zip(k, k[1:])})


def _interaction_generator(path: FieldPath,
                           module: ModuleData) -> GeneratorPath:
    """t -> pi(B~(t)), the oscillating modes twisted by the scaling flow."""
    def twisted(t: float) -> VectorField:
        phi = path.phase(t)
        return VectorField({n: a * np.exp(n * phi)
                            for n, a in path.field_at(t).coeffs.items()
                            if n != 0})
    # without modes n != 0, B~ = 0 has no kinks for the solver to restart at
    knots = tuple(path.knots) if path.maxmode > 0 else (0.0, 1.0)
    return GeneratorPath.from_fields(twisted, module, knots)


def represent(E, module: ModuleData, tol: float = DEFAULT_ODE_TOL,
              z: complex | None = None) -> RepresentedAnnulus:
    """Operator of an annulus element (or a generator path with scalar z).

    Preconditions: the path's modes fit the module's matrix range, and
    the path stays in the inward cone (to ``EXTRACT_INWARD_TOL``).  The
    operator is z e^{phi(1) L_0} V with phi the exact integral of a_0.
    The diagonal factor is a row scaling by exp(phi(1) (h + k)).
    ``ode_exp`` solves V' = B~(t) V adaptively on knot-aligned segments
    to the requested tolerance, applying B~(t) to V by the module's real
    level blocks; the stiff diagonal a_0 L_0 never enters the solve.
    When no field of the path has a mode n != 0, B~ = 0 and the solve
    returns V = I exactly.
    """
    path, scalar, element = _as_path(E, z)
    if path.maxmode > module.lmax:
        raise ModuleRangeError(
            f"path has modes up to {path.maxmode}, module matrices stop at "
            f"{module.lmax}"
        )
    margin = path.max_inward_margin()
    if margin > EXTRACT_INWARD_TOL:
        raise NotInwardError(
            f"generator path leaves the inward cone (margin {margin:.3e})",
            margin=margin,
        )
    scaling = np.exp(path.phase(1.0) * module.weights())
    V = ode_exp(_interaction_generator(path, module), 0.0, 1.0, tol)
    # in place, operands in z * (scaling * V)'s order: FMA rounding follows it
    np.multiply(scaling[:, None], V.U, out=V.U)
    np.multiply(scalar, V.U, out=V.U)
    V.method = "interaction:" + V.method
    return RepresentedAnnulus(element=element, path=path, z=scalar,
                              module=module, U=V.U, result=V)


def _ensure_represented(E, module: ModuleData, tol: float) -> RepresentedAnnulus:
    if isinstance(E, RepresentedAnnulus):
        if E.module is not module:
            raise ArgumentError("represented element lives on another module")
        return E
    return represent(E, module, tol=tol)


# ---------------------------------------------------------------------------
# semigroup and dagger laws


def semigroup_residual(E1, E2, module: ModuleData,
                       tol: float = DEFAULT_ODE_TOL,
                       budget: int | None = None) -> float:
    """Operator mismatch of gluing versus multiplying, on a protected block.

    Composes the elements (second factor traversed first), represents the
    composite and both factors, and returns ||(U_12 - U_1 U_2) P|| with P
    spanning levels <= N - 2 * (largest mode over the three paths).
    Either factor may arrive already represented; its operator is reused.
    """
    R1 = _ensure_represented(E1, module, tol)
    R2 = _ensure_represented(E2, module, tol)
    if R1.element is None or R2.element is None:
        raise ArgumentError("gluing needs annulus elements, not bare paths")
    E12 = compose(R1.element, R2.element)
    R12 = represent(E12, module, tol=tol)
    if budget is None:
        budget = 2 * max(R1.path.maxmode, R2.path.maxmode, R12.path.maxmode)
    p = _protected_cols(module, budget)
    return _opnorm((R12.U - R1.U @ R2.U)[:, :p])


def dagger_residual(E, module: ModuleData,
                    tol: float = DEFAULT_ODE_TOL,
                    budget: int | None = None) -> float:
    """||represent(dagger(E)) P - represent(E)* P|| on the protected block.

    ``E`` may arrive already represented; its operator is reused and only
    the reversed element is solved.
    """
    R = _ensure_represented(E, module, tol)
    if R.element is None:
        raise ArgumentError("reversal needs an annulus element, not a bare "
                            "path")
    Rd = represent(dagger(R.element), module, tol=tol)
    if budget is None:
        budget = 2 * max(R.path.maxmode, Rd.path.maxmode)
    p = _protected_cols(module, budget)
    return _opnorm((Rd.U - R.U.conj().T)[:, :p])


# ---------------------------------------------------------------------------
# homotopy invariance up to the central pairing


def cocycle_invariance_residual(H: FramingHomotopy, module: ModuleData,
                                c: float | None = None,
                                tol: float = DEFAULT_ODE_TOL,
                                maxmode: int = DEFAULT_MAXMODE,
                                tail_tol: float = DEFAULT_TAIL_TOL,
                                budget: int | None = None) -> float:
    """How far the two end framings of a homotopy are from representing
    equal operators up to the exponentiated central pairing.

    Extracts generator paths from the first and last deformation slices,
    represents both, and returns ||U_last P - exp(-I) U_first P|| where I
    is the double integral of the central pairing of the raw ratio fields
    over the homotopy (``homotopy_cocycle``).  The exponent's sign is a
    convention pair with the plus-ratio integrand there; this combination
    is the one that cancels on scaling-only homotopies and on the
    mode-wiggle oracle downstream, and it is asserted by those tests.

    ``c`` defaults to the module's central charge; passing another value
    mismatches the pairing from the represented commutators on purpose
    (useful only as a falsification probe).
    """
    cc = float(module.params.c) if c is None else float(c)
    p_first = framing_path(H.slice_at(0), maxmode=maxmode, tail_tol=tail_tol)
    p_last = framing_path(H.slice_at(H.uknots.size - 1), maxmode=maxmode,
                          tail_tol=tail_tol)
    U0 = represent(p_first, module, tol=tol).U
    U1 = represent(p_last, module, tol=tol).U
    raw = homotopy_cocycle(H, cc, maxmode=maxmode)
    factor = np.exp(-raw)
    if budget is None:
        budget = 2 * max(p_first.maxmode, p_last.maxmode)
    p = _protected_cols(module, budget)
    return _opnorm((U1 - factor * U0)[:, :p])


# ---------------------------------------------------------------------------
# field transport and the commutation relation


def _window_bracket(acoeffs: dict, y: np.ndarray, W: int,
                    ks: np.ndarray) -> np.ndarray:
    """[X, f] on mode window coefficients: out_k = sum_m (2m - k) a_m f_{k-m}."""
    out = np.zeros_like(y)
    for m, a in acoeffs.items():
        lo = max(-W, m - W)
        hi = min(W, m + W)
        if lo > hi:
            continue
        kk = ks[lo + W:hi + W + 1]
        out[lo + W:hi + W + 1] += a * (2 * m - kk) * y[lo - m + W:hi - m + W + 1]
    return out


def _window_pairing(acoeffs: dict, y: np.ndarray, W: int, c: float) -> complex:
    """Central pairing (c/12) sum_m (m^3 - m)(a_m f_-m - a_-m f_m)."""
    total = 0j
    top = min(W, max((abs(m) for m in acoeffs), default=0))
    for m in range(2, top + 1):
        am = acoeffs.get(m, 0j)
        anm = acoeffs.get(-m, 0j)
        if am == 0 and anm == 0:
            continue
        total += (m**3 - m) * (am * y[W - m] - anm * y[W + m])
    return complex(c) * total / 12.0


def transport_field(f0: VectorField, path: FieldPath, c: float,
                    tol: float = DEFAULT_ODE_TOL):
    """Transport of a field along a generator path: f' = [X(t), f].

    Returns (FieldPath of f(t), pairing), where the pairing is the time
    integral of the central pairing of X(t) with f(t) at central charge
    ``c``.  The bracket in mode coefficients is the convolution
    (f')_k = sum_m (2m - k) a_m f_{k-m}.  The reporting
    half-width is 2 * (path modes + f0 modes) plus a fixed four-mode
    apron: mass decays geometrically past the nominal width on any
    transport that a window method can resolve at all, so the apron
    separates healthy decay from genuine runaway.  Mass escaping the
    window beyond TRANSPORT_TAIL_TOL of the total raises TruncationError
    rather than silently truncating the transport.  Integration runs on a
    further padded window so that outside mass is measured honestly
    rather than piling up against the integration boundary.
    """
    M = path.maxmode
    F = f0.maxmode
    W = max(2 * (M + F), 1) + 4
    Wi = W + 2 * max(M, 1) + 6
    ks = np.arange(-Wi, Wi + 1)
    y0 = np.zeros(2 * Wi + 2, dtype=complex)  # the window, then the pairing
    for n, a in f0.coeffs.items():
        y0[n + Wi] = a

    def rhs(x, y):
        a = path.field_at(x).coeffs
        out = np.empty_like(y)
        out[:-1] = _window_bracket(a, y[:-1], Wi, ks)
        out[-1] = _window_pairing(a, y[:-1], Wi, c)
        return out

    ts = np.union1d(np.asarray(path.knots, dtype=float),
                    np.linspace(0.0, 1.0, _TRANSPORT_SAMPLES))
    ts = ts[np.concatenate([[True], np.diff(ts) > 1e-12])]
    ts[0], ts[-1] = 0.0, 1.0
    yend, _, _, ys = _sweep(rhs, _segments(path.knots, 0.0, 1.0), y0, tol,
                            at=ts[:-1])

    def materialize(y: np.ndarray) -> VectorField:
        coeffs = y[:2 * Wi + 1]
        total = float(np.abs(coeffs).sum())
        if total > 0:
            out = float(np.abs(coeffs[:Wi - W]).sum()
                        + np.abs(coeffs[Wi + W + 1:]).sum())
            if out > TRANSPORT_TAIL_TOL * total:
                raise TruncationError(
                    f"transported field carries {out/total:.2e} of its mass "
                    f"beyond the mode window (half-width {W})"
                )
        floor = TRANSPORT_TRIM * total
        return VectorField({int(n): complex(v)
                            for n, v in zip(ks, coeffs) if abs(v) > floor})

    fields = [materialize(y) for y in (*ys, yend)]
    fpath = FieldPath(list(ts), fields)
    return fpath, complex(yend[-1])


def segal_residual(E, f0: VectorField, module: ModuleData,
                   tol: float = DEFAULT_ODE_TOL,
                   budget: int | None = None) -> float:
    """Commutation-relation mismatch ||(T pi(f0) - pi(f1) T - w T) P||.

    T is the represented operator, f1 the endpoint of the transported
    field, and w the time integral of the central pairing of the
    generator with the transported field, accumulated inside the same
    solve.  Exact before truncation; ``E`` may be an element, a bare
    path, or an already-represented element (reused without re-solving).
    """
    R = _ensure_represented(E, module, tol)
    fpath, pairing = transport_field(f0, R.path, float(module.params.c),
                                     tol)
    f1 = fpath.fields[-1]
    if f1.maxmode > module.lmax:
        keep = {n: a for n, a in f1.coeffs.items() if abs(n) <= module.lmax}
        lost = sum(abs(a) for n, a in f1.coeffs.items()
                   if abs(n) > module.lmax)
        total = sum(abs(a) for a in f1.coeffs.values())
        if lost > 1e-9 * total:
            raise ModuleRangeError(
                f"transported field carries {lost/total:.2e} of its mass "
                f"beyond the module's matrix range {module.lmax}"
            )
        f1 = VectorField(keep)
    T = R.U
    resid = T @ pi_field(f0, module) - pi_field(f1, module) @ T - pairing * T
    if budget is None:
        # the transported field's significant support reaches the combined
        # mode content of the generator and the seed, so both count
        budget = 2 * (R.path.maxmode + f0.maxmode)
    p = _protected_cols(module, budget)
    return _opnorm(resid[:, :p])


# ---------------------------------------------------------------------------
# holomorphic parameter dependence


def holomorphy_residual(family: Callable[[complex], "AnnulusElement | FieldPath"],
                        module: ModuleData, eps: float,
                        tol: float = DEFAULT_ODE_TOL,
                        at: complex = 0.0j) -> float:
    """Size of the conjugate Wirtinger derivative of m -> represent(family(m)).

    Central differences at four stencil points m +- eps, m +- i eps
    estimate (d/dRe + i d/dIm)/2 applied to the operator; the result is
    applied to three random protected vectors (generator seed 0) and the
    largest norm returned.  O(eps^2) for holomorphic coefficient
    dependence, order one when the dependence is antiholomorphic.
    """
    if eps <= 0:
        raise ArgumentError("stencil radius must be positive")
    at = complex(at)
    Rs = [represent(family(at + d), module, tol=tol)
          for d in (eps, -eps, 1j * eps, -1j * eps)]
    D = (Rs[0].U - Rs[1].U + 1j * (Rs[2].U - Rs[3].U)) / (4.0 * eps)
    budget = 2 * max(R.path.maxmode for R in Rs)
    _protected_cols(module, budget)
    rng = np.random.default_rng(0)
    return max(float(np.linalg.norm(D @ random_protected_vector(module, budget,
                                                                rng)))
               for _ in range(3))


# ---------------------------------------------------------------------------
# closed-form cross-checks


def lowering_norms(h, nmax: int) -> list:
    """Squared norms ||(lowering)^k v||^2, k = 0..nmax, on a weight-h primary.

    Recurrence n(2h + n - 1) times the previous norm; exact rationals
    when h is given as a Fraction or a dyadic float.  The first few terms
    are pinned to the normal-ordering reduction in the tests.
    """
    if nmax < 0:
        raise ArgumentError("need nmax >= 0")
    hh = h if isinstance(h, Fraction) else Fraction(h)
    out = [Fraction(1)]
    for n in range(1, nmax + 1):
        out.append(out[-1] * n * (2 * hh + n - 1))
    return out


def mobius_overlap(w: complex, h, nmax: int = 20):
    """Partial sums of ||exp(w * lowering) v||^2 against the closed form.

    The squared norm is sum_k |w|^{2k} ||L^k v||^2 / (k!)^2 with closed
    form (1 - |w|^2)^{-2h}; returns (partial sums array, limit).
    """
    aw2 = abs(complex(w)) ** 2
    if aw2 >= 1.0:
        raise ArgumentError("need |w| < 1 for the overlap to converge")
    norms = lowering_norms(h, nmax)
    terms = [aw2 ** k * float(norms[k] / (Fraction(math.factorial(k)) ** 2))
             for k in range(nmax + 1)]
    partials = np.cumsum(terms)
    limit = float((1.0 - aw2) ** (-2.0 * float(h)))
    return partials, limit
