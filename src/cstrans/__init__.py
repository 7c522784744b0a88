"""Cauchy transforms of atomic circle measures, disk-algebra duality, and
composition-operator norm bounds, all at desk scale with certified
numerics."""

from .circle import (
    CirclePoint,
    DiskPoint,
    NonConvergenceError,
    QuadratureGrid,
    grid_integrate,
    mobius_eval,
    refine_until_stable,
)
from .disk_algebra import (
    DiskAlgebraPoly,
    certify_sup_norm,
    make_poly,
    monomial,
    poly_eval,
)
from .kernel_op import (
    monomial_radial_limits,
    p_lambda_closed_form,
    p_phi_at,
    p_phi_at_stable,
    p_phi_exact_at,
    p_phi_radial_limit,
)
from .measures import (
    AtomicMeasure,
    atomic_measure,
    point_mass,
    taylor_coeffs,
    tv_norm,
)
from .norm_engine import (
    NormBracket,
    PreconditionError,
    ScanRow,
    VerificationReport,
    bound_cima_matheson,
    composition_knorm_lower,
    composition_moments,
    knorm_bracket,
    knorm_lower,
    sharpness_scan,
    verify_eq1,
    verify_lemma1,
    verify_lemma2,
)
from .self_maps import (
    BlaschkeMap,
    ComposedMap,
    DiskSelfMap,
    MobiusSelfMap,
    PolynomialMap,
    factorization_residual,
    schwarz_factorize,
    self_map_eval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
