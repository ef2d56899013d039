"""Numerical semigroup representations built on truncated Virasoro modules.

The package exponentiates unitary positive-energy representations of the
Virasoro algebra, truncated at a level cutoff, into time-ordered products
over paths of complexified circle vector fields, i.e. into representatives
of annuli with parametrized boundary.  Alongside the constructions it ships
a verification harness for the quantitative identities the construction is
supposed to satisfy: bracket relations, energy bounds, the inward-cone
expectation bound, semigroup/adjoint/cocycle laws of the annulus calculus,
intertwining relations for transported fields, and holomorphic dependence
on parameters.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ArgumentError,
    EvolutionError,
    GridError,
    NonUnitaryError,
    NotInwardError,
    TruncationError,
)
from .annulus import (
    AnnulusElement,
    BigonFactors,
    CompositeFieldPath,
    Framing,
    FramingHomotopy,
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
from .evolve import (
    EvolutionResult,
    GeneratorPath,
    adjoint_evolution_check,
    flow_residual,
    ode_exp,
    parameter_derivative,
    piecewise_exp,
)
from .field import (
    FieldPath,
    VectorField,
    adjoint_field,
    cocycle,
    energy_bound_constant,
    field_norm,
    inward_margin,
    mode_field,
    pi_field,
    qei_bound,
    random_inward_field,
    random_inward_path,
    to_theta,
)
from .rep import (
    RepresentedAnnulus,
    cocycle_invariance_residual,
    dagger_residual,
    holomorphy_residual,
    lowering_norms,
    mobius_overlap,
    represent,
    segal_residual,
    semigroup_residual,
    transport_field,
)
from .verify import SUITES, CheckResult, run_config
from .virmod import (
    DEFAULT_NULLTOL,
    ModuleData,
    ModuleParams,
    VirasoroOracle,
    build_module,
    check_unitarity,
    gram_matrix,
    module_from_dict,
    module_to_dict,
    random_protected_vector,
    sobolev_norm,
)

# the imports above also bind the submodules; they are not API
__all__ = sorted(name for name, obj in globals().items()
                 if not (name.startswith("_") or isinstance(obj, _ModuleType)))

__version__ = "0.1.0"
