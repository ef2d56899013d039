import numpy as np
import pytest
from scipy.integrate import quad

from virann.field import VectorField
from virann.virmod import ModuleParams, build_module


@pytest.fixture(scope="session")
def mod12():
    """Workhorse module: c=2, h=0.5, N=12 (no null vectors at any level)."""
    return build_module(ModuleParams(2.0, 0.5, 12))


@pytest.fixture(scope="session")
def mod14():
    # tighter nulltol: at level >= 13 genuine normalized gram eigenvalues
    # sink below the 1e-9 default and would be misread as null directions
    return build_module(ModuleParams(2.0, 0.5, 14), nulltol=1e-12)


@pytest.fixture(scope="session")
def mod8():
    return build_module(ModuleParams(2.0, 0.5, 8))


@pytest.fixture(scope="session")
def mod10():
    return build_module(ModuleParams(2.0, 0.5, 10))


@pytest.fixture(scope="session")
def mod6():
    """Small module for solver-heavy suites."""
    return build_module(ModuleParams(2.0, 0.5, 6))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def a0_integral():
    """(path, t) -> integral of a_0 over [0, t] by quadrature split at knots.

    a_0 is polynomial between knots, so the quadrature is exact to
    rounding; 1e-13 is the finest absolute request it meets without
    roundoff warnings.
    """
    def integral(path, t):
        pts = [k for k in path.knots if 0.0 < k < t] or None
        return complex(*(quad(lambda x: part(path.field_at(x).coeff(0)), 0.0,
                              t, points=pts, epsabs=1e-13, epsrel=0.0,
                              limit=200)[0]
                         for part in (np.real, np.imag)))
    return integral


@pytest.fixture(scope="session")
def witt_bracket():
    """(X, Y) -> [X, Y] with [e_m, e_n] = (m - n) e_{m+n} on basis fields.

    Accumulated over unordered mode pairs as (m-n)(a_m b_n - a_n b_m), so
    antisymmetry and [X, X] = 0 hold exactly in floating point, not just up
    to rounding.
    """
    def bracket(X, Y):
        modes = sorted(set(X.coeffs) | set(Y.coeffs))
        out: dict[int, complex] = {}
        for i, m in enumerate(modes):
            for n in modes[:i]:
                cross = X.coeff(m) * Y.coeff(n) - X.coeff(n) * Y.coeff(m)
                if cross != 0:
                    k = m + n
                    out[k] = out.get(k, 0j) + (m - n) * cross
        return VectorField(out)
    return bracket
