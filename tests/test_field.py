"""Mode-coefficient fields: bracket, cocycle, cone test, mu bound, matrices."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virann import verify
from virann.errors import ArgumentError, GridError, NotInwardError, TruncationError
from virann.field import (
    DEFAULT_INWARD_TOL,
    FieldPath,
    VectorField,
    adjoint_field,
    cocycle,
    field_norm,
    inward_margin,
    mode_field,
    pi_field,
    qei_bound,
    random_inward_field,
    random_inward_path,
    to_theta,
)
from virann.verify import energy_margin, qei_excess

coeff_st = st.builds(complex,
                     st.floats(min_value=-2, max_value=2, allow_nan=False),
                     st.floats(min_value=-2, max_value=2, allow_nan=False))


def field_st(maxmode=6):
    return st.dictionaries(st.integers(min_value=-maxmode, max_value=maxmode),
                           coeff_st, max_size=5).map(VectorField)


# ---------------------------------------------------------------------------
# algebra


def test_bracket_basis_cases(witt_bracket):
    assert witt_bracket(mode_field(1), mode_field(-1)) == mode_field(0, 2)
    assert witt_bracket(mode_field(2), mode_field(-1)) == mode_field(1, 3)


@given(field_st())
def test_bracket_self_is_zero(witt_bracket, X):
    assert witt_bracket(X, X) == VectorField({})


@given(field_st(4), field_st(4), field_st(4))
@settings(max_examples=60, deadline=None)
def test_jacobi_identity(witt_bracket, X, Y, Z):
    total = (witt_bracket(witt_bracket(X, Y), Z)
             + witt_bracket(witt_bracket(Y, Z), X)
             + witt_bracket(witt_bracket(Z, X), Y))
    assert max((abs(a) for a in total.coeffs.values()), default=0.0) < 1e-12


def test_cocycle_basis_values():
    assert cocycle(mode_field(2), mode_field(-2), 2.0) == pytest.approx(1.0)
    assert cocycle(mode_field(3), mode_field(-3), 2.0) == pytest.approx(4.0)
    assert cocycle(mode_field(1), mode_field(-1), 7.0) == 0.0


@given(field_st(5), field_st(5))
@settings(max_examples=60, deadline=None)
def test_cocycle_antisymmetric(X, Y):
    assert abs(cocycle(X, Y, 1.7) + cocycle(Y, X, 1.7)) < 1e-12


@given(field_st(4), field_st(4), field_st(4))
@settings(max_examples=60, deadline=None)
def test_two_cocycle_identity(witt_bracket, X, Y, Z):
    """omega([X,Y],Z) + omega([Y,Z],X) + omega([Z,X],Y) = 0."""
    c = 1.3
    total = (cocycle(witt_bracket(X, Y), Z, c)
             + cocycle(witt_bracket(Y, Z), X, c)
             + cocycle(witt_bracket(Z, X), Y, c))
    assert abs(total) < 1e-10


def test_field_norm_values():
    assert field_norm(mode_field(1), 1.5) == pytest.approx(2**1.5)
    assert field_norm(mode_field(0), 3.7) == 1.0
    assert field_norm(VectorField({2: 1, -2: 1}), 1.0) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# circle geometry


def test_to_theta_constants_and_cosine():
    assert np.abs(to_theta(mode_field(0), 16) + 1j).max() < 1e-14
    assert np.abs(to_theta(mode_field(0, 1j), 16) - 1.0).max() < 1e-14
    g = to_theta(VectorField({1: 1j, -1: 1j}), 64)
    theta = 2 * np.pi * np.arange(64) / 64
    assert np.abs(g - 2 * np.cos(theta)).max() < 1e-12


def test_to_theta_grid_too_small():
    with pytest.raises(GridError):
        to_theta(mode_field(5), 10)


def test_inwardness_of_scaling_rotation_expansion():
    assert inward_margin(mode_field(0, np.log(0.5))) <= DEFAULT_INWARD_TOL
    # tangential boundary case
    assert inward_margin(mode_field(0, 1j)) <= DEFAULT_INWARD_TOL
    assert inward_margin(mode_field(0, 1.0)) > DEFAULT_INWARD_TOL


def test_inward_margin_matches_cosine_peak():
    X = VectorField({1: 0.5, -1: 0.5, 0: -0.25})
    # Re part is cos(theta) - 0.25, peak 0.75
    assert inward_margin(X, 512) == pytest.approx(0.75, abs=1e-10)


def test_random_inward_fields_are_inward(rng):
    for _ in range(40):
        X = random_inward_field(4, rng, amplitude=float(rng.uniform(0.01, 5.0)))
        assert inward_margin(X) <= DEFAULT_INWARD_TOL


def test_random_inward_path_interpolates_inward(rng):
    path = random_inward_path(3, rng, knots=6, amplitude=0.7)
    for t in np.linspace(0, 1, 41):
        assert inward_margin(path.field_at(t)) <= 1e-10


# ---------------------------------------------------------------------------
# mu bound


def test_mu_zero_for_constant_speed():
    assert qei_bound(mode_field(0, 1j), 2.0) == 0.0


def test_mu_spot_check_one_plus_cosine():
    # Im g = 1 + cos(theta) -> mu = c pi / 48, here with c = 2
    X = VectorField({0: -1.0, 1: -0.5, -1: -0.5})
    expect = 2.0 * np.pi / 48.0
    assert qei_bound(X, 2.0) == pytest.approx(expect, rel=1e-9)


def test_mu_rejects_outward_field():
    with pytest.raises(NotInwardError):
        qei_bound(mode_field(0, 1.0), 2.0)


def test_mu_scales_linearly_in_central_charge(rng):
    X = random_inward_field(3, rng)
    assert qei_bound(X, 3.0) == pytest.approx(3.0 * qei_bound(X, 1.0), rel=1e-12)


def test_mu_second_derivative_bound(rng):
    """mu_X <= C ||g''||_L2 for an empirical C; reported, not asserted tight."""
    worst_ratio = 0.0
    for _ in range(25):
        X = random_inward_field(4, rng, amplitude=1.0, margin=0.0)
        mu = qei_bound(X, 2.0)
        G = 1024
        theta = 2 * np.pi * np.arange(G) / G
        g = np.zeros(G)
        for n, a in X.coeffs.items():
            g += (-0.5 * (a + np.conj(X.coeff(-n))) * np.exp(1j * n * theta)).real
        g2 = np.zeros(G)
        for n, a in X.coeffs.items():
            g2 += (0.5 * n * n * (a + np.conj(X.coeff(-n)))
                   * np.exp(1j * n * theta)).real
        l2 = np.sqrt((2 * np.pi / G) * (g2**2).sum())
        if l2 > 1e-12:
            worst_ratio = max(worst_ratio, mu / l2)
    assert worst_ratio < 10.0  # loose sanity ceiling on the measured constant


# ---------------------------------------------------------------------------
# matrix action


def test_pi_of_scaling_is_diagonal(mod12):
    r = 0.5
    A = pi_field(mode_field(0, np.log(r)), mod12)
    expect = np.diag(np.log(r) * (0.5 + mod12.level_index()))
    assert np.abs(A - expect).max() < 1e-14


def test_pi_adjoint_identity(mod12):
    X = VectorField({2: 0.3 + 0.1j, -1: 0.2j, 0: -1.0, 3: 0.05})
    A = pi_field(X, mod12)
    B = pi_field(adjoint_field(X), mod12)
    assert np.abs(A.conj().T - B).max() == 0.0


def test_pi_mode_overflow(mod6):
    with pytest.raises(TruncationError):
        pi_field(mode_field(7), mod6)


def _random_field(rng, modes):
    return VectorField({n: complex(*rng.standard_normal(2)) for n in modes})


@pytest.mark.parametrize("cols", [None, 3, 0])
def test_block_product_matches_dense(mod12, rng, cols):
    d = mod12.dim
    # None: a full (d, d) state; 0: a single vector of shape (d,)
    shape = {None: (d, d), 0: (d,)}.get(cols, (d, cols))
    for _ in range(3):
        X = _random_field(rng, range(-mod12.lmax, mod12.lmax + 1))
        V = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = pi_field(X, mod12) @ V
        got = pi_field(X, mod12, V)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_block_product_of_the_empty_field_is_zero(mod12, rng):
    V = rng.standard_normal((mod12.dim, 4)) + 0j
    out = pi_field(VectorField({}), mod12, V)
    assert out.shape == V.shape and not out.any()


def test_block_product_mode_overflow(mod6):
    with pytest.raises(TruncationError):
        pi_field(mode_field(7), mod6, np.eye(mod6.dim))


def test_numerical_range_bound(mod12, rng):
    """Re<pi(X)v, v> <= mu_X for inward X and protected v."""
    assert qei_excess(mod12, rng, fields=60, vectors=5) <= 1e-8


def test_energy_bound(mod12, rng):
    assert energy_margin(mod12, rng, fields=60) <= 0.0


@pytest.mark.parametrize("measure, name", [
    (lambda m, r: qei_excess(m, r, fields=3, vectors=2), "qei_bound"),
    (lambda m, r: energy_margin(m, r, fields=3), "field_norm"),
], ids=["qei_excess", "energy_margin"])
def test_a_nan_case_makes_the_ensemble_worst_nan(mod12, rng, monkeypatch,
                                                 measure, name):
    # only the first case is NaN; later finite cases must not hide it
    real = getattr(verify, name)
    calls = []

    def first_nan(*args):
        calls.append(1)
        return np.nan if len(calls) == 1 else real(*args)

    monkeypatch.setattr(verify, name, first_nan)
    assert np.isnan(measure(mod12, rng))
    assert len(calls) > 1


# ---------------------------------------------------------------------------
# paths


def test_path_validation():
    with pytest.raises(ArgumentError):
        FieldPath([0.0, 0.5], [VectorField({}), VectorField({})])
    with pytest.raises(ArgumentError):
        FieldPath([0.0, 0.5, 0.5, 1.0], [VectorField({})] * 4)
    # every comparison with NaN is false, so the ordering checks pass it
    for knots in ([0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
        with pytest.raises(ArgumentError, match="must be finite"):
            FieldPath(knots, [VectorField({})] * 3)
    with pytest.raises(ArgumentError, match="must be finite"):
        FieldPath([0.0, 1.0],
                  [VectorField({}), mode_field(2, complex(0, np.nan))])


def test_path_linear_interpolation():
    p = FieldPath([0.0, 1.0], [mode_field(1, 0.0), mode_field(1, 2.0)])
    assert p.field_at(0.25) == mode_field(1, 0.5)
    assert p.field_at(-5.0) == VectorField({})  # clamped
    assert p.field_at(2.0) == mode_field(1, 2.0)


def test_reversed_adjoint_is_involution(rng):
    p = random_inward_path(2, rng, knots=4, amplitude=0.3)
    q = p.reversed_adjoint().reversed_adjoint()
    assert q.field_at(0.0) == p.field_at(0.0)  # endpoints exact
    assert q.field_at(1.0) == p.field_at(1.0)
    for t in (0.3, 0.77):  # interior knots may shift by 1 ulp under 1-(1-t)
        d = q.field_at(t) - p.field_at(t)
        assert max((abs(a) for a in d.coeffs.values()), default=0.0) < 1e-14


def test_path_json_round_trip(rng):
    # the document shape of a CLI element file of kind "path"
    p = random_inward_path(3, rng, knots=4, amplitude=0.2)
    doc = {"kind": "path", "knots": p.knots,
           "fields": [f.to_dict() for f in p.fields]}
    q = FieldPath.from_dict(json.loads(json.dumps(doc)))
    assert q.knots == p.knots
    for t in (0.0, 0.41, 1.0):
        assert q.field_at(t) == p.field_at(t)


def test_phase_is_the_integral_of_a0(rng, a0_integral):
    p = random_inward_path(2, rng, knots=5, amplitude=0.7)
    p = FieldPath([0.0, 0.1, 0.45, 0.8, 1.0], p.fields)
    assert p.phase(0.0) == 0.0
    for t in (0.05, 0.1, 0.3, 0.45, 0.61, 0.99, 1.0):
        assert abs(p.phase(t) - a0_integral(p, t)) < 1e-13
