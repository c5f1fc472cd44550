"""Workbench for two-sided quotients of compact matrix Lie groups.

Subpackages, in dependency order: algebra (matrix Lie algebras and root
decompositions), metric (left-invariant metrics as positive operators),
curvature (sectional curvature of such metrics), biquotient (two-sided
actions, vertical geometry, quotient curvature), freeness (exact integer
freeness tests), detectors (flat-plane criteria and the numeric flat
search), fixtures (the four worked examples as seeded runs of one trial
driver), catalog (torus normal forms, classification tables and family
enumerations), cli (command-line front end).
"""

from .algebra import (
    AlgebraElement,
    GroupElement,
    GroupFamily,
    RootDecomposition,
    Subspace,
    bracket,
    exp_map,
    inner_q,
    root_decomposition,
    so,
    sp,
    su,
    u,
)
from .biquotient import (
    BiquotientAction,
    PlaneReport,
    from_torus_weights,
    gromoll_meyer_action,
    horizontal_space,
    quotient_sectional,
    unit_tangent_flow_action,
    z_term,
)
from .curvature import puttmann_numerator
from .detectors import (
    FlatCertificate,
    check_N1,
    check_N2,
    check_N3,
    find_balanced_point,
    numeric_flat_search,
)
from .freeness import (
    FreenessVerdict,
    TorusActionWeights,
    bazaikin_free,
    eschenburg_free,
    eschenburg_positive_flag,
    is_free_bruteforce,
    is_free_exact,
)
from .metric import (
    MetricOperator,
    L_tensor,
    apply_P,
    build_metric,
    build_metric_from_subspaces,
)

__version__ = "0.1.0"
