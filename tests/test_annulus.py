"""Framings, annulus elements, composition, dagger, homotopy cocycle, bigons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from virann.annulus import (
    EXTRACT_INWARD_TOL,
    AnnulusElement,
    CompositeFieldPath,
    Framing,
    FramingHomotopy,
    _homotopy_ratio_fields,
    _smoothstep,
    _smoothstep_inverse,
    _spectral_dtheta,
    _spectral_filter,
    bigon_factor,
    compose,
    dagger,
    element_from_path,
    framing_path,
    homotopy_cocycle,
    identity_element,
    radial_framing,
    standard_element,
)
from virann.errors import (ArgumentError, EvolutionError, GridError,
                           NotInwardError, TruncationError)
from virann.field import FieldPath, VectorField, to_theta
from virann.rep import represent
from virann.verify import (BIGON_ARCS, _shallow_path, bigon_gap,
                           bigon_perturbation, wiggle_homotopy)

G = 256
K = 64
THETA = 2 * np.pi * np.arange(G) / G
KNOTS = np.linspace(0.0, 1.0, K + 1)


def rotation_framing(alpha: float) -> Framing:
    grid = np.exp(1j * (THETA[None, :] + alpha * KNOTS[:, None]))
    return Framing(grid, KNOTS)


def path_gap(p1, p2, times=np.linspace(0.0, 1.0, 17)) -> float:
    worst = 0.0
    for t in times:
        a, b = p1.field_at(float(t)), p2.field_at(float(t))
        for n in set(a.coeffs) | set(b.coeffs):
            worst = max(worst, abs(a.coeff(n) - b.coeff(n)))
    return worst


def winding(curve: np.ndarray, center: complex) -> int:
    rel = np.angle(curve - center)
    total = np.diff(np.concatenate([rel, rel[:1]]))
    total = (total + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(total.sum() / (2.0 * np.pi)))


def validate_framing(f: Framing) -> dict:
    """Diagnostics: tangent size, Jacobian sign, windings, inwardness margin.

    Never raises; callers decide what to do with a failing report.
    """
    h_theta = _spectral_dtheta(f.grid)
    h_t = np.gradient(f.grid, f.knots, axis=0, edge_order=2)
    jac = np.imag(np.conj(h_theta) * h_t)
    scale = float(np.abs(f.grid).max())
    center = complex(f.grid[-1].mean())  # inside the inner curve
    report = {
        "min_tangent": float(np.abs(h_theta).min()),
        "min_jacobian": float(jac.min()),
        "winding_out": winding(f.out_curve(), center),
        "winding_in": winding(f.in_curve(), center),
        "scale": scale,
    }
    try:
        path = framing_path(f)
        report["inward_margin"] = float(path.max_inward_margin())
    except (GridError, NotInwardError, TruncationError) as err:
        report["inward_margin"] = np.inf
        report["extraction_error"] = str(err)
    report["ok"] = bool(
        report["min_tangent"] > 1e-8 * scale
        and report["min_jacobian"] > -1e-8 * scale * scale
        and report["winding_out"] == 1
        and report["winding_in"] == 1
        and report["inward_margin"] <= EXTRACT_INWARD_TOL
    )
    return report


def witt_compatibility_residual(H: FramingHomotopy, witt_bracket) -> float:
    """Max coefficient residual of dY/dt - dX/du = [X, Y] on the grid.

    X, Y are the generator fields (minus the raw ratios) in stored
    coordinates.  Finite differences in t and u, so the residual is
    O(knot spacing squared) for smooth homotopies.
    """
    Xr, Yr = _homotopy_ratio_fields(H)
    nu, nt = len(Xr), len(Xr[0])
    X = [[(-1.0) * Xr[l][i] for i in range(nt)] for l in range(nu)]
    Y = [[(-1.0) * Yr[l][i] for i in range(nt)] for l in range(nu)]

    def stencil(axis_knots, a):
        # 3-point Lagrange derivative weights: second order at ends too
        n = len(axis_knots)
        i0 = min(max(a - 1, 0), n - 3)
        xa, xb, xc = (float(axis_knots[i0 + k]) for k in range(3))
        x = float(axis_knots[a])
        wa = (2.0 * x - xb - xc) / ((xa - xb) * (xa - xc))
        wb = (2.0 * x - xa - xc) / ((xb - xa) * (xb - xc))
        wc = (2.0 * x - xa - xb) / ((xc - xa) * (xc - xb))
        return i0, (wa, wb, wc)

    def grad(table, axis_knots, along_u: bool):
        out = [[None] * nt for _ in range(nu)]
        n = len(axis_knots)
        for a in range(n):
            i0, ws = stencil(axis_knots, a)
            for b in range(nt if along_u else nu):
                if along_u:
                    acc = ws[0] * table[i0][b] + ws[1] * table[i0 + 1][b] \
                        + ws[2] * table[i0 + 2][b]
                    out[a][b] = acc
                else:
                    acc = ws[0] * table[b][i0] + ws[1] * table[b][i0 + 1] \
                        + ws[2] * table[b][i0 + 2]
                    out[b][a] = acc
        return out

    dY_dt = grad(Y, H.tknots, along_u=False)
    dX_du = grad(X, H.uknots, along_u=True)

    worst = 0.0
    for l in range(nu):
        for i in range(nt):
            res = dY_dt[l][i] - dX_du[l][i] - witt_bracket(X[l][i], Y[l][i])
            worst = max(worst, max((abs(a) for a in res.coeffs.values()),
                                   default=0.0))
    return worst


# ---------------------------------------------------------------------------
# framing container


class TestFraming:
    def test_validation(self):
        grid = np.exp(1j * THETA)[None, :].repeat(3, axis=0)
        with pytest.raises(ArgumentError):
            Framing(grid, np.array([0.0, 0.5, 0.9]))  # does not end at 1
        with pytest.raises(ArgumentError):
            Framing(grid, np.array([0.0, 0.6, 0.5]))  # not increasing
        with pytest.raises(ArgumentError):
            Framing(grid[:1], np.array([0.0]))  # single row
        with pytest.raises(ArgumentError):
            Framing(grid[0], np.array([0.0]))  # wrong rank

    def test_boundary_curves(self):
        E = standard_element(0.5)
        assert np.allclose(np.abs(E.framing.out_curve()), 1.0)
        assert np.allclose(np.abs(E.framing.in_curve()), 0.5)


# ---------------------------------------------------------------------------
# path extraction oracles


class TestFramingPath:
    def test_standard_real_q(self):
        # scaling family must extract to the constant scaling field
        E = standard_element(0.5)
        path = framing_path(E.framing)
        for f in path.fields:
            assert set(f.coeffs) == {0}
            assert abs(f.coeff(0) - np.log(0.5)) < 1e-4

    def test_standard_complex_q(self):
        q = 0.5 * np.exp(0.1j)
        path = framing_path(standard_element(q).framing)
        assert max(abs(f.coeff(0) - np.log(q)) for f in path.fields) < 1e-4

    def test_attached_path_is_exact(self):
        q = 0.5 * np.exp(0.1j)
        E = standard_element(q)
        assert E.path.field_at(0.0) == VectorField({0: np.log(q)})
        # interpolation at interior times may round in the last ulp
        assert abs(E.path.field_at(0.37).coeff(0) - np.log(q)) < 1e-15
        assert E.generator_path() is E.path

    def test_rotation_framing(self):
        alpha = 0.7
        path = framing_path(rotation_framing(alpha))
        assert max(abs(f.coeff(0) - 1j * alpha) for f in path.fields) < 1e-4
        assert path.max_inward_margin() <= 1e-6

    def test_constant_framing_is_zero_path(self):
        path = framing_path(identity_element().framing)
        assert all(not f.coeffs for f in path.fields)

    def test_wiggle_framing_mode_content(self):
        # radial mode-2 wobble: the ratio h_t/h_theta carries the wobble
        # modes plus geometrically damped harmonics from the division
        r = np.exp(KNOTS[:, None] * np.log(0.5)
                   + 0.02 * np.sin(np.pi * KNOTS[:, None]) * np.cos(2 * THETA[None, :]))
        path = framing_path(Framing(r * np.exp(1j * THETA[None, :]), KNOTS))
        support = set()
        high = 0.0
        for f in path.fields:
            support |= set(f.coeffs)
            high = max([high] + [abs(a) for n, a in f.coeffs.items() if abs(n) > 4])
        assert {-2, 0, 2} <= support
        assert all(n % 2 == 0 for n in support)
        assert high < 1e-3

    def test_time_reversal_convention(self):
        # a framing moving only near t = 1 yields a path moving near time 0;
        # the bump must stay wide enough for the knot differencing
        bump = np.exp(-((KNOTS - 0.85) / 0.12) ** 2)
        r = np.exp(np.cumsum(bump) / np.sum(bump) * np.log(0.5))
        grid = r[:, None] * np.exp(1j * THETA[None, :])
        path = framing_path(Framing(grid, KNOTS))

        def mass(ts):  # summed |a_n| of the fields at the times ts
            return sum(abs(a) for t in ts
                       for a in path.field_at(t).coeffs.values())

        early = mass((0.05, 0.1, 0.15, 0.2))
        late = mass((0.8, 0.85, 0.9, 0.95))
        assert early > 10 * late

    def test_pinched_curve_rejected(self):
        # curve through the tangent-degenerate radius: |h_theta| collapses
        shrink = 1.0 - KNOTS[:, None] * (1.0 - 1e-12)
        grid = shrink * np.exp(1j * THETA[None, :])
        with pytest.raises(GridError):
            framing_path(Framing(grid, KNOTS))

    def test_outward_framing_rejected(self):
        # reversing the time order of a contracting family flips the cone
        E = standard_element(0.5)
        grid = E.framing.grid[::-1].copy()
        with pytest.raises(NotInwardError):
            framing_path(Framing(grid, KNOTS))

    def test_rough_framing_rejected(self):
        rng = np.random.default_rng(0)
        noise = 0.01 * rng.standard_normal((K + 1, G))
        grid = np.exp(KNOTS[:, None] * np.log(0.5) + noise) * np.exp(1j * THETA)
        with pytest.raises(TruncationError):
            framing_path(Framing(grid, KNOTS))


class TestValidateFraming:
    def test_standard_ok(self):
        rep = validate_framing(standard_element(0.5).framing)
        assert rep["ok"]
        assert rep["winding_out"] == 1 and rep["winding_in"] == 1
        assert rep["min_jacobian"] > 0
        assert rep["inward_margin"] <= 1e-6

    def test_reversed_time_flagged(self):
        E = standard_element(0.5)
        rep = validate_framing(Framing(E.framing.grid[::-1].copy(), KNOTS))
        assert not rep["ok"]
        assert rep["min_jacobian"] < 0

    def test_never_raises_on_junk(self):
        grid = np.ones((K + 1, G), dtype=complex)  # fully degenerate
        rep = validate_framing(Framing(grid, KNOTS))
        assert not rep["ok"]


# ---------------------------------------------------------------------------
# standard elements


class TestStandardElement:
    def test_rejects_bad_modulus(self):
        for q in (0.0, 1.0, 1.5, -2.0):
            with pytest.raises(ArgumentError):
                standard_element(q)

    def test_accepts_interior(self):
        E = standard_element(-0.5)  # negative q has |q| in (0, 1)
        assert abs(E.path.field_at(0.0).coeff(0) - np.log(complex(-0.5))) < 1e-14

    def test_grid_shape_defaults(self):
        E = standard_element(0.5)
        assert E.framing.grid.shape == (65, 256)
        assert E.z == 1.0


# ---------------------------------------------------------------------------
# composition


class TestCompose:
    def test_standard_times_standard(self):
        E = compose(standard_element(0.7), standard_element(0.8))
        assert abs(E.z - 1.0) == 0.0
        assert np.allclose(np.abs(E.framing.out_curve()), 1.0)
        assert np.allclose(np.abs(E.framing.in_curve()), 0.56)

    def test_total_scaling_integral(self):
        # integral of the composite mode-0 coefficient recovers ln(q1 q2);
        # tolerance is the trapezoid error of the cubic time change
        q1, q2 = 0.7, 0.5 * np.exp(0.3j)
        E = compose(standard_element(q1), standard_element(q2))
        ts = np.linspace(0.0, 1.0, 4001)
        vals = np.array([E.path.field_at(t).coeff(0) for t in ts])
        total = np.trapezoid(vals, ts)
        assert abs(total - (np.log(q1) + np.log(q2))) < 1e-5

    def test_sitting_instants(self):
        E = compose(standard_element(0.7), standard_element(0.8))
        for t in (0.0, 0.03, 0.47, 0.5, 0.53, 0.97, 1.0):
            assert E.path.field_at(t) == VectorField({})
        assert E.path.field_at(0.25).coeff(0) != 0

    def test_scalars_multiply(self):
        E1 = standard_element(0.7)
        E1.z = 2.0 + 1.0j
        E2 = standard_element(0.8)
        E2.z = 0.5j
        assert compose(E1, E2).z == (2.0 + 1.0j) * 0.5j

    def test_junction_alignment(self):
        # complex q2: E1's incoming circle matches only after rotation+scale
        E = compose(standard_element(0.5 * np.exp(0.4j)), standard_element(0.6))
        assert np.allclose(np.abs(E.framing.in_curve()), 0.3)

    def test_mismatch_rejected(self):
        E1 = standard_element(0.5)
        wobble = standard_element(0.5)
        wobble.framing.grid = wobble.framing.grid * np.exp(
            0.01 * np.cos(2 * THETA)[None, :])
        with pytest.raises(GridError):
            compose(E1, wobble)

    def test_grid_width_mismatch_rejected(self):
        with pytest.raises(GridError):
            compose(standard_element(0.5), standard_element(0.5, G=128))

    def test_identity_absorbs(self):
        E = compose(standard_element(0.5), identity_element())
        assert np.allclose(np.abs(E.framing.in_curve()), 0.5)
        assert np.allclose(np.abs(E.framing.out_curve()), 1.0)

    def test_composite_inward_margin(self):
        E = compose(standard_element(0.7), standard_element(0.8))
        assert E.path.max_inward_margin() <= 0.0 + 1e-12

    def test_associativity_boundary_data(self):
        a, b, c = (standard_element(q) for q in (0.9, 0.8, 0.7))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.framing.out_curve(), right.framing.out_curve())
        assert np.allclose(np.abs(left.framing.in_curve()),
                           np.abs(right.framing.in_curve()))
        assert left.z == right.z


class TestSmoothstep:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_inverse(self, s):
        x = _smoothstep_inverse(s, 0.1)
        val, _ = _smoothstep(x, 0.1)
        assert abs(float(val) - s) < 1e-9

    def test_plateaus(self):
        for x in (0.0, 0.05, 0.1):
            val, dval = _smoothstep(x, 0.1)
            assert float(val) == 0.0 and float(dval) == 0.0
        for x in (0.9, 0.95, 1.0):
            val, dval = _smoothstep(x, 0.1)
            assert float(val) == 1.0 and float(dval) == 0.0


# ---------------------------------------------------------------------------
# dagger


class TestDagger:
    def test_involution(self):
        E = standard_element(0.5 * np.exp(0.1j))
        E.z = 1.0 + 2.0j
        back = dagger(dagger(E))
        assert np.array_equal(back.framing.grid, E.framing.grid)
        assert back.z == E.z
        assert path_gap(back.path, E.path) == 0.0

    def test_scalar_conjugated(self):
        E = standard_element(0.5)
        E.z = 1.0 + 2.0j
        assert dagger(E).z == 1.0 - 2.0j

    def test_attached_path_is_reversed_adjoint(self):
        q = 0.5 * np.exp(0.1j)
        E = standard_element(q)
        assert dagger(E).path.field_at(0.4) == VectorField({0: np.conj(np.log(q))})

    def test_grid_transform_matches_path_transform(self):
        # extraction of the daggered grid equals the reversed adjoint of the
        # extraction: the two dagger models agree beyond differencing noise
        r = np.exp(KNOTS[:, None] * np.log(0.5)
                   + 0.03 * np.sin(2 * np.pi * KNOTS[:, None]) * np.cos(2 * THETA[None, :]))
        F = Framing(r * np.exp(1j * THETA[None, :]), KNOTS)
        direct = framing_path(dagger(AnnulusElement(F)).framing)
        expected = framing_path(F).reversed_adjoint()
        assert path_gap(direct, expected) < 1e-12

    def test_antihomomorphism_on_paths(self):
        E1 = standard_element(0.7 * np.exp(0.2j))
        E2 = standard_element(0.8)
        lhs = dagger(compose(E1, E2)).path
        rhs = compose(dagger(E2), dagger(E1)).path
        assert path_gap(lhs, rhs) < 1e-14

    def test_composite_reversed_adjoint_type(self):
        E = compose(standard_element(0.7), standard_element(0.8))
        assert isinstance(E.path.reversed_adjoint(), CompositeFieldPath)


class TestCompositePhase:
    def test_phase_is_the_integral_of_a0(self, rng, a0_integral):
        first = _shallow_path(rng, maxmode=3, knots=4)
        second = FieldPath.constant_path(VectorField({0: np.log(0.6), 1: 0.1}))
        p = CompositeFieldPath(first, second)
        for t in (0.03, 0.2, 0.5, 0.52, 0.77, 1.0):
            assert abs(p.phase(t) - a0_integral(p, t)) < 1e-13

    def test_halves_add(self):
        E = compose(standard_element(0.7), standard_element(0.8 * np.exp(0.2j)))
        assert E.path.maxmode == 0
        assert abs(E.path.phase(1.0) - np.log(0.7 * 0.8 * np.exp(0.2j))) < 1e-15


# ---------------------------------------------------------------------------
# homotopies


class TestHomotopy:
    def test_pinned_ends_enforced(self):
        H = wiggle_homotopy(2, 0.05, 0.5, G=G)
        bad = H.grid.copy()
        bad[-1, 0, :] *= 1.001  # move a boundary row of the last slice
        with pytest.raises(ArgumentError):
            FramingHomotopy(bad, H.tknots, H.uknots)

    def test_slices_are_framings(self):
        H = wiggle_homotopy(2, 0.05, 0.5, G=G)
        assert validate_framing(H.slice_at(0))["ok"]
        assert validate_framing(H.slice_at(len(H.uknots) - 1))["ok"]

    def test_cocycle_zero_for_low_modes(self):
        # deformations staying within modes |n| <= 1 have vanishing pairing
        t = np.linspace(0.0, 1.0, 49)
        u = np.linspace(0.0, 1.0, 13)
        s = np.sin(np.pi * t) ** 2
        base = np.exp(t[:, None] * np.log(0.5) + 1j * THETA[None, :])
        warp = np.exp(0.3 * u[:, None, None] * s[None, :, None] * np.ones((1, 1, G)))
        H = FramingHomotopy(base[None, :, :] * warp, t, u)
        assert abs(homotopy_cocycle(H, c=2.0)) < 1e-12

    def test_cocycle_converged(self):
        fine = wiggle_homotopy(2, 0.05, 0.5, Kt=96, Ku=24, G=G)
        r1 = homotopy_cocycle(wiggle_homotopy(2, 0.05, 0.5, G=G), c=2.0)
        r2 = homotopy_cocycle(fine, c=2.0)
        assert abs(r1) > 1e-4  # genuinely nonzero
        assert abs(r1 - r2) < 1e-6

    def test_cocycle_linear_in_central_charge(self):
        H = wiggle_homotopy(2, 0.05, 0.5, G=G)
        r1 = homotopy_cocycle(H, c=1.0)
        r2 = homotopy_cocycle(H, c=2.0)
        assert abs(r2 - 2.0 * r1) < 1e-12 * max(1.0, abs(r2))

    def test_witt_compatibility_second_order(self, witt_bracket):
        fine = wiggle_homotopy(2, 0.05, 0.5, Kt=96, Ku=24, G=G)
        res1 = witt_compatibility_residual(wiggle_homotopy(2, 0.05, 0.5, G=G),
                                           witt_bracket)
        res2 = witt_compatibility_residual(fine, witt_bracket)
        assert res2 < res1 / 2.5
        assert res2 < 1e-3


# ---------------------------------------------------------------------------
# bigon factorization


I1, I2 = BIGON_ARCS


def arc_mask(I):
    a, b = I
    span = (b - a) % (2 * np.pi) or 2 * np.pi
    return ((THETA - a) % (2 * np.pi)) < span


class TestBigon:
    def test_round_annulus_middle_curve(self):
        B = bigon_factor(0.25 * np.exp(1j * THETA), np.exp(1j * THETA), I1, I2)
        assert np.abs(np.abs(B.delta_curve) - 0.5).max() < 1e-12

    def test_partition_of_unity(self):
        B = bigon_factor(0.25 * np.exp(1j * THETA), np.exp(1j * THETA), I1, I2)
        lam_m, lam_p, lam_0 = B.partition
        assert np.abs(lam_m + lam_p + lam_0 - 1.0).max() < 1e-14
        assert lam_m[~arc_mask(I1)].max() == 0.0
        assert lam_p[~arc_mask(I2)].max() == 0.0

    def test_composition_reproduces_curves(self):
        pert = bigon_perturbation(np.random.default_rng(7))
        assert bigon_gap(pert) < 1e-12

    def test_deviations_localized(self):
        base_in = 0.25 * np.exp(1j * THETA)
        base_out = np.exp(1j * THETA)

        def bump(I, amp, mode):
            a, b = I
            span = (b - a) % (2 * np.pi)
            x = ((THETA - a) % (2 * np.pi)) / span
            w = np.where((x > 0) & (x < 1), np.sin(np.pi * x) ** 2, 0.0)
            return amp * w * np.cos(mode * THETA)

        g_in = base_in * np.exp(bump(I2, 0.03, 3))
        g_out = base_out * np.exp(bump(I1, 0.03, 2))
        B = bigon_factor(g_in, g_out, I1, I2, base=(base_in, base_out))
        B0 = bigon_factor(base_in, base_out, I1, I2)
        dmid = np.abs(B.delta_curve - B0.delta_curve)
        assert dmid.max() > 1e-5  # the middle curve does move
        assert dmid[~arc_mask(I1)].max() == 0.0 or \
            dmid[~arc_mask(I1)].max() < 1e-15
        assert dmid[~arc_mask(I2)].max() == 0.0 or \
            dmid[~arc_mask(I2)].max() < 1e-15

    def test_nesting_guard(self):
        with pytest.raises(GridError):
            bigon_factor(0.9 * np.exp(1j * THETA), np.exp(1j * THETA), I1, I2,
                         base=(0.2 * np.exp(1j * THETA), np.exp(1j * THETA)))

    def test_coverage_guard(self):
        with pytest.raises(ArgumentError):
            bigon_factor(0.25 * np.exp(1j * THETA), np.exp(1j * THETA),
                         (0.0, 1.0), (2.0, 3.0))

    def test_factor_framings_valid(self):
        B = bigon_factor(0.25 * np.exp(1j * THETA), np.exp(1j * THETA), I1, I2)
        for el in (B.outer, B.inner):
            rep = validate_framing(el.framing)
            assert rep["min_jacobian"] > 0
            assert rep["winding_out"] == 1

    def test_radial_framing_guards(self):
        with pytest.raises(ArgumentError):
            radial_framing(np.exp(1j * THETA), 0.5 * np.exp(1j * THETA[:100]))
        with pytest.raises(GridError):
            radial_framing(np.exp(1j * THETA) - np.exp(1j * THETA),
                           0.5 * np.exp(1j * THETA))


class TestElementFromPath:
    """Building annulus geometry by flowing the circle along a field path."""

    def test_standard_flow_matches_closed_form(self):
        # constant scaling field: the flow is h(theta, t) = q^t e^{i theta}
        q = 0.5
        path = FieldPath.constant_path(VectorField({0: np.log(q)}))
        E = element_from_path(path, G=128, K=32)
        t = np.asarray(E.framing.knots)
        theta = 2 * np.pi * np.arange(128) / 128
        want = np.exp(t[:, None] * np.log(q) + 1j * theta[None, :])
        assert np.abs(E.framing.grid - want).max() < 1e-12
        assert E.path is path

    def test_round_trip_extraction(self):
        # kink-free path: extraction error is second order in the time step
        # (interior path knots would add a first-order kink-localized term)
        rng = np.random.default_rng(7)
        path = _shallow_path(rng, maxmode=3, knots=2)
        E = element_from_path(path, G=256, K=64)
        back = framing_path(E.framing, tail_tol=1e-6)
        assert path_gap(path, back) < 1e-6

    def test_chained_flows_compose_exactly(self):
        rng = np.random.default_rng(11)
        Ea = element_from_path(_shallow_path(rng, maxmode=3), G=128, K=32)
        Eb = element_from_path(_shallow_path(rng, maxmode=3), G=128, K=32,
                               start_curve=Ea.framing.in_curve())
        E = compose(Ea, Eb)
        # junction is shared exactly, so the gluing scale is exactly 1
        assert np.abs(E.framing.grid[0] - Ea.framing.grid[0]).max() == 0.0
        assert isinstance(E.path, CompositeFieldPath)

    def test_framing_equals_per_segment_solve_ivp(self):
        # reference: scipy's solve_ivp on each storage segment, with the
        # same spectral filter between segments
        rng = np.random.default_rng(5)
        for maxmode, knots in ((2, 3), (3, 4)):
            path = _shallow_path(rng, maxmode=maxmode, knots=knots)
            E = element_from_path(path, G=128, K=16)

            def rhs(t, y):
                return to_theta(path.field_at(1.0 - t), 128) * _spectral_dtheta(y)

            ks = E.framing.knots
            rows = [_spectral_filter(np.exp(2j * np.pi * np.arange(128) / 128))]
            for a, b in zip(ks[:-1], ks[1:]):
                sol = solve_ivp(rhs, (a, b), rows[-1], method="RK45",
                                rtol=1e-12, atol=1e-12)
                rows.append(_spectral_filter(sol.y[:, -1]))
            assert np.array_equal(E.framing.grid, np.array(rows))

    def test_failed_circle_flow_raises_evolution_error(self):
        class NaNPath(FieldPath):
            def field_at(self, t):
                return VectorField({1: complex(np.nan, 0.0)})

        path = NaNPath([0.0, 1.0], [VectorField({0: -0.1})] * 2)
        with pytest.raises(EvolutionError):
            element_from_path(path, G=64, K=4)

    def test_outward_path_rejected(self):
        path = FieldPath.constant_path(VectorField({0: +0.3}))
        with pytest.raises(NotInwardError):
            element_from_path(path)

    def test_deep_flow_reports_resolution_loss(self):
        # depth ~1.4 with wiggles: retained negative modes outgrow the
        # clipping budget and the construction must refuse
        rng = np.random.default_rng(3)
        base = _shallow_path(rng, maxmode=3)
        deep = FieldPath(base.knots, [14.0 * f for f in base.fields])
        with pytest.raises((GridError, NotInwardError)):
            element_from_path(deep, G=128, K=64)

    def test_bad_start_curve_shape(self):
        path = FieldPath.constant_path(VectorField({0: -0.3}))
        with pytest.raises(GridError):
            element_from_path(path, G=128, start_curve=np.ones(64, complex))
