"""Lie systems toolkit: closure tests, fundamental-set sizes, and
(nonlinear, partial) superposition rules for ODE and flat PDE systems."""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    Chart,
    Expr,
    ZeroDecision,
    canonical_expr,
    canonically_equal,
    compile_expr,
    differentiate,
    evaluate,
    free_variables,
    is_zero,
    parse,
    substitute,
)
from .geometry import (  # noqa: F401
    ProductChart,
    VectorField,
    diagonal_prolongation,
    is_diagonal_prolongation,
    lie_bracket,
)
from .algebra import (  # noqa: F401
    FundamentalSizeReport,
    LieClosureReport,
    closure_test,
    minimal_m,
    prune_independent,
    span_coefficients,
)
from .dynamics import (  # noqa: F401
    CoefficientCurve,
    LieSystem,
    Trajectory,
    align_trajectories,
    fundamental_points,
    fundamental_set,
    integrate,
    integrate_tuple,
)
from .superposition import (  # noqa: F401
    SuperpositionRule,
    derive_k,
    reconstruct,
    verify_along_solutions,
    verify_tangency,
)
from .group import (  # noqa: F401
    ACTIONS,
    LINEAR_SL2,
    MOBIUS,
    GroupAction,
    GroupTrajectory,
    MatrixCurve,
    act_solve,
    check_equivariance,
    sl2_from_coefficients,
    solve_group_equation,
)
from .pde import (  # noqa: F401
    CurvatureReport,
    PdeSystem,
    curvature,
    path_independence_audit,
    path_solve,
    pde_superpose,
    solve_on_grid,
)
