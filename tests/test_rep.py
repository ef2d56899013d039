"""Represented annuli: diagonal oracles, law residuals, transport, overlaps."""

import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virann.annulus import (compose, dagger, element_from_path,
                            identity_element, standard_element)
from virann.errors import ArgumentError, NotInwardError, TruncationError
from virann.evolve import DEFAULT_ODE_TOL, GeneratorPath, ode_exp
from virann.field import FieldPath, VectorField
from virann.rep import (_interaction_generator, cocycle_invariance_residual,
                        dagger_residual, holomorphy_residual, lowering_norms,
                        mobius_overlap, represent, segal_residual,
                        semigroup_residual, transport_field)
from virann.verify import (_shallow_path, constant_homotopy, growth_margin,
                           mobius_term_mismatch, reparametrization_homotopy,
                           standard_diagonal_gap, wiggle_homotopy)
from virann.virmod import random_protected_vector

G = 128


def flowed_pair(rng):
    Ea = element_from_path(_shallow_path(rng, maxmode=3), G=G, K=32)
    Eb = element_from_path(_shallow_path(rng, maxmode=3), G=G, K=32,
                           start_curve=Ea.framing.in_curve())
    return Ea, Eb


# ---------------------------------------------------------------------------
# the representation itself


class TestRepresent:
    def test_standard_is_diagonal_scaling(self, mod10):
        assert standard_diagonal_gap(mod10, 0.5, DEFAULT_ODE_TOL) < 1e-9

    def test_standard_complex_parameter(self, mod10):
        q = 0.5 * np.exp(0.1j)
        assert standard_diagonal_gap(mod10, q, DEFAULT_ODE_TOL) < 1e-9

    def test_zero_path_gives_identity(self, mod10):
        R = represent(FieldPath.constant_path(VectorField({})), mod10)
        assert np.array_equal(R.U, np.eye(mod10.dim, dtype=complex))

    def test_scalar_multiplies(self, mod10):
        path = FieldPath.constant_path(VectorField({0: np.log(0.5)}))
        R1 = represent(path, mod10)
        R2 = represent(path, mod10, z=2j)
        assert np.abs(R2.U - 2j * R1.U).max() < 1e-12
        assert R2.z == 2j

    def test_element_scalar_conflict(self, mod10):
        with pytest.raises(ArgumentError):
            represent(standard_element(0.5), mod10, z=2.0)

    def test_rejects_junk(self, mod10):
        with pytest.raises(ArgumentError):
            represent("not an annulus", mod10)

    def test_mode_beyond_matrices(self, mod10):
        path = FieldPath.constant_path(VectorField({11: 0.01, 0: -1.0}))
        with pytest.raises(TruncationError):
            represent(path, mod10)

    def test_outward_rejected(self, mod10):
        path = FieldPath.constant_path(VectorField({0: 0.2}))
        with pytest.raises(NotInwardError):
            represent(path, mod10)

    def test_rotation_is_unitary_diagonal(self, mod10):
        R = represent(FieldPath.constant_path(VectorField({0: 0.3j})), mod10,
                      tol=1e-12)
        assert np.abs(R.U @ R.U.conj().T - np.eye(mod10.dim)).max() < 1e-9
        want = np.exp(0.3j * mod10.weights())
        assert np.abs(np.diag(R.U) - want).max() < 1e-9

    def test_deterministic(self, mod10):
        E = standard_element(0.6)
        assert np.array_equal(represent(E, mod10).U, represent(E, mod10).U)

    def test_weighted_norm_report(self, mod10):
        R = represent(standard_element(0.5), mod10)
        report = R.hn_report()
        assert set(report) == {0, 1, 2}
        for row in report.values():
            assert row["ok"]
        # scaling operators have weighted norm equal to the plain norm
        assert abs(report[0]["norm"] - 0.5 ** 0.5) < 1e-9
        assert abs(report[2]["norm"] - report[0]["norm"]) < 1e-9


class TestInteractionPicture:
    """U = z e^{phi(1) L_0} V: exact without oscillating modes."""

    def test_scaling_rotation_and_composite_are_closed_form(self, mod14):
        w = mod14.weights()
        q1, q2 = 0.5 * np.exp(0.1j), 0.8
        cases = [
            (standard_element(q1), q1 ** w),
            (FieldPath.constant_path(VectorField({0: 0.3j})),
             np.exp(0.3j * w)),
            (compose(standard_element(q2), standard_element(q1)),
             q2 ** w * q1 ** w),
            (compose(standard_element(q2), standard_element(q1)).path,
             q2 ** w * q1 ** w),
        ]
        for E, want in cases:
            R = represent(E, mod14)
            assert np.abs(R.U - np.diag(want)).max() < 1e-13
            assert R.result.method == "interaction:ode:RK45"

    def test_flowed_element_matches_full_generator_solve(self, mod12):
        rng = np.random.default_rng(601)
        E = element_from_path(_shallow_path(rng, maxmode=2,
                                                  depth=0.05), G=256, K=16)
        R = represent(E, mod12)
        assert R.result.method == "interaction:ode:RK45"
        full = ode_exp(GeneratorPath.from_field_path(E.path, mod12), 0.0,
                       1.0, 1e-12)
        assert np.abs(R.U - full.U).max() < 1e-8

    def test_no_solve_outlives_its_call(self, mod10):
        # the operator is the only d x d array a represented element holds,
        # and nothing of its solve is left once it is gone; gc is off, so
        # a reference cycle would keep what it holds
        path = _shallow_path(np.random.default_rng(1), depth=0.05)
        represent(path, mod10)  # warm the module's caches
        gc.collect()
        gc.disable()
        try:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            R = represent(path, mod10)
            held = tracemalloc.get_traced_memory()[0] - base
            nbytes = R.U.nbytes
            del R
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held <= 1.25 * nbytes
        assert left < 0.05 * nbytes

    def test_block_action_takes_the_dense_solver_steps(self, mod12):
        rng = np.random.default_rng(601)
        E = element_from_path(_shallow_path(rng, maxmode=2,
                                                  depth=0.05), G=256, K=16)
        gp = _interaction_generator(E.generator_path(), mod12)
        dense = GeneratorPath(gp.sampler, gp.dim, gp.knots)
        blocks, full = ode_exp(gp, 0.0, 1.0), ode_exp(dense, 0.0, 1.0)
        assert blocks.meta["nfev"] == full.meta["nfev"]
        assert blocks.stepcount == full.stepcount
        assert np.abs(blocks.U - full.U).max() < 1e-12


# ---------------------------------------------------------------------------
# semigroup and adjoint laws


class TestSemigroup:
    def test_two_standard_annuli(self, mod10):
        res = semigroup_residual(standard_element(0.4), standard_element(0.5),
                                 mod10)
        assert res < 1e-8

    def test_identity_is_neutral(self, mod10):
        res = semigroup_residual(standard_element(0.5), identity_element(),
                                 mod10)
        assert res < 1e-8

    def test_random_flowed_pair(self, mod12):
        Ea, Eb = flowed_pair(np.random.default_rng(42))
        assert semigroup_residual(Ea, Eb, mod12) < 1e-5


class TestDagger:
    def test_real_standard_is_self_adjoint(self, mod10):
        assert dagger_residual(standard_element(0.5), mod10) < 1e-12

    def test_complex_standard(self, mod10):
        assert dagger_residual(standard_element(0.5 * np.exp(0.3j)),
                               mod10) < 1e-10

    def test_random_flowed_element(self, mod12):
        E, _ = flowed_pair(np.random.default_rng(7))
        assert dagger_residual(E, mod12) < 1e-6

    def test_dagger_squares_to_identity_operator(self, mod10):
        E = standard_element(0.5 * np.exp(0.2j))
        R1 = represent(E, mod10)
        R2 = represent(dagger(dagger(E)), mod10)
        assert np.abs(R1.U - R2.U).max() < 1e-9


# ---------------------------------------------------------------------------
# homotopy invariance up to the central factor


class TestCocycleInvariance:
    def test_constant_homotopy(self, mod10):
        assert cocycle_invariance_residual(constant_homotopy(), mod10) < 1e-8

    def test_time_reparametrization(self, mod10):
        H = reparametrization_homotopy()
        assert cocycle_invariance_residual(H, mod10) < 1e-7

    def test_mode_two_wiggle(self, mod12):
        H = wiggle_homotopy(2, 0.05, 0.5)
        res = cocycle_invariance_residual(H, mod12, maxmode=7, tail_tol=3e-5)
        assert res < 1e-4

    def test_wiggle_pins_the_sign(self, mod12):
        # flipping the central charge flips the exponent; the matched sign
        # must beat the flipped one decisively
        H = wiggle_homotopy(2, 0.05, 0.5)
        good = cocycle_invariance_residual(H, mod12, maxmode=7, tail_tol=3e-5)
        bad = cocycle_invariance_residual(H, mod12, c=-2.0, maxmode=7,
                                          tail_tol=3e-5)
        assert bad > 3 * good


# ---------------------------------------------------------------------------
# transport of fields along a generator path


class TestTransport:
    def test_scaling_eigenfields(self):
        r = 0.7
        path = FieldPath.constant_path(VectorField({0: np.log(r)}))
        for n in (-2, 1, 3):
            fp, _ = transport_field(VectorField({n: 1.0}), path, c=2.0)
            for t in (0.25, 0.5, 1.0):
                got = fp.field_at(t).coeff(n)
                assert abs(got - r ** (-n * t)) < 1e-6
            assert abs(fp.fields[-1].coeff(n) - r ** (-n)) < 1e-8

    def test_generator_is_fixed_point(self):
        X = VectorField({0: np.log(0.7)})
        fp, _ = transport_field(X, FieldPath.constant_path(X), c=2.0)
        assert all(f == X for f in fp.fields)

    def test_rotation_gives_phases(self):
        path = FieldPath.constant_path(VectorField({0: 0.4j}))
        fp, _ = transport_field(VectorField({2: 1.0}), path, c=2.0)
        assert abs(fp.fields[-1].coeff(2) - np.exp(-0.8j)) < 1e-9

    def test_closed_mode_triple_stays_closed(self):
        # modes {0, +-m} bracket into themselves, so transport cannot leak
        for m, amp in ((2, 0.1), (3, 2.0)):
            X = VectorField({m: amp, -m: amp, 0: -0.3})
            fp, _ = transport_field(VectorField({0: 1.0}),
                                    FieldPath.constant_path(X), c=2.0)
            assert set(fp.fields[-1].support) <= {-m, 0, m}

    def test_endpoints(self):
        X = VectorField({1: 0.05, 0: -0.2})
        fp, pairing = transport_field(VectorField({1: 1.0}),
                                      FieldPath.constant_path(X), c=2.0)
        assert fp.knots[0] == 0.0 and fp.knots[-1] == 1.0
        assert abs(fp.fields[0].coeff(1) - 1.0) < 1e-12
        assert pairing == 0  # no central term between modes of order <= 1

    def test_runaway_overflow_raises(self):
        # seeding off the closed triple makes the brackets spread for real
        path = FieldPath.constant_path(VectorField({3: 2.0, -3: 2.0,
                                                    0: -0.1}))
        with pytest.raises(TruncationError):
            transport_field(VectorField({1: 1.0}), path, c=2.0)


# ---------------------------------------------------------------------------
# the commutation relation


class TestSegal:
    def test_standard_annulus_exact_cases(self, mod10):
        R = represent(standard_element(0.5), mod10)
        for n in (-2, 0, 2):
            assert segal_residual(R, VectorField({n: 1.0}), mod10) < 1e-8

    def test_flowed_two_mode_element(self, mod12):
        rng = np.random.default_rng(42)
        E = element_from_path(_shallow_path(rng, maxmode=2, depth=0.02),
                              G=G, K=32)
        R = represent(E, mod12)
        for n in (-1, 0, 1):
            assert segal_residual(R, VectorField({n: 1.0}), mod12) < 1e-4

    def test_represented_reuse_matches_element(self, mod10):
        E = standard_element(0.6)
        R = represent(E, mod10)
        f0 = VectorField({1: 1.0})
        assert (segal_residual(R, f0, mod10)
                == segal_residual(R, f0, mod10))
        assert abs(segal_residual(R, f0, mod10)
                   - segal_residual(E, f0, mod10)) < 1e-12

    def test_foreign_module_rejected(self, mod10, mod12):
        R = represent(standard_element(0.5), mod10)
        with pytest.raises(ArgumentError):
            segal_residual(R, VectorField({0: 1.0}), mod12)

    def test_fixed_block_budget_cuts_leakage(self, mod12):
        rng = np.random.default_rng(5)
        E = element_from_path(_shallow_path(rng, maxmode=2, depth=0.03),
                              G=G, K=32)
        R = represent(E, mod12)
        f0 = VectorField({1: 1.0})
        loose = segal_residual(R, f0, mod12, budget=4)
        tight = segal_residual(R, f0, mod12, budget=8)
        assert tight <= loose


# ---------------------------------------------------------------------------
# holomorphic parameter dependence


class TestHolomorphy:
    def test_standard_family_second_order(self, mod10):
        fam = lambda q: standard_element(q)
        r2 = holomorphy_residual(fam, mod10, 2e-3, at=0.5)
        r1 = holomorphy_residual(fam, mod10, 1e-3, at=0.5)
        assert r1 < 1e-5
        assert 3.0 < r2 / r1 < 5.5

    def test_linear_coefficient_family_second_order(self, mod10):
        def fam(m):
            return FieldPath.constant_path(
                VectorField({0: np.log(0.5), 1: m}))
        r2 = holomorphy_residual(fam, mod10, 2e-3)
        r1 = holomorphy_residual(fam, mod10, 1e-3)
        assert r1 < 1e-5
        assert 3.0 < r2 / r1 < 5.5

    def test_conjugated_family_is_order_one(self, mod10):
        fam = lambda q: standard_element(np.conj(q))
        r2 = holomorphy_residual(fam, mod10, 2e-3, at=0.5)
        r1 = holomorphy_residual(fam, mod10, 1e-3, at=0.5)
        assert r1 > 0.1 and r2 > 0.1
        assert 0.8 < r2 / r1 < 1.25

    def test_radius_guard(self, mod10):
        with pytest.raises(ArgumentError):
            holomorphy_residual(lambda q: standard_element(q), mod10, 0.0)


# ---------------------------------------------------------------------------
# closed-form overlap of exponentiated lowering


class TestMobiusOverlap:
    def test_lowering_norms_match_normal_ordering_oracle(self):
        assert mobius_term_mismatch(Fraction(2), Fraction(1, 2)) == 0.0

    def test_lowering_norms_closed_product(self):
        h = Fraction(2, 3)
        norms = lowering_norms(h, 6)
        for n in range(7):
            want = Fraction(1)
            for j in range(n):
                want *= (j + 1) * (2 * h + j)
            assert norms[n] == want

    def test_partial_sums_reach_closed_form(self):
        partials, limit = mobius_overlap(0.5, Fraction(1, 2), nmax=20)
        assert abs(partials[-1] - limit) < 1e-6
        assert np.all(np.diff(partials) >= 0)

    def test_domain_guards(self):
        with pytest.raises(ArgumentError):
            mobius_overlap(1.0, 0.5)
        with pytest.raises(ArgumentError):
            lowering_norms(0.5, -1)

    @settings(max_examples=20, deadline=None)
    @given(h=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(3),
                          max_denominator=24),
           re=st.floats(-0.5, 0.5), im=st.floats(-0.5, 0.5))
    def test_partials_increase_to_limit(self, h, re, im):
        w = complex(re, im)
        if abs(w) >= 0.75:
            w = 0.5 * w
        partials, limit = mobius_overlap(w, h, nmax=12)
        assert np.all(np.diff(partials) >= -1e-12)
        assert np.all(partials <= limit * (1 + 1e-9))


# ---------------------------------------------------------------------------
# growth against the expectation bound


class TestContraction:
    """||U(t,s) v|| <= e^{omega (t-s)} ||v|| on elements' generator paths."""

    @staticmethod
    def margin(E, module, budget):
        rng = np.random.default_rng(0)
        vecs = np.array([random_protected_vector(module, budget, rng)
                         for _ in range(8)])
        return growth_margin(module, E.generator_path(), vecs,
                             DEFAULT_ODE_TOL)

    def test_standard_scaling_contracts(self, mod10):
        # mu = 0, and the unit vectors shrink by 0.5^{h (t-s)} at least
        assert self.margin(standard_element(0.5), mod10, 0) < (
            0.5 ** 0.25 - 1.0 + 1e-9)

    def test_flowed_element(self, mod10):
        E, _ = flowed_pair(np.random.default_rng(3))
        assert self.margin(E, mod10, 2 * E.path.maxmode) <= 1e-8
