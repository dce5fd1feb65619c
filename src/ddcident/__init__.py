"""Identified sets for discount factors and payoffs in dynamic discrete choice models."""

from .betapoly import (
    MatrixPoly,
    RootSet,
    faddeev_adj_det,
    roots_in_interval,
    sign_region,
)
from .ddc import (
    CcpSolution,
    MasterSystem,
    SingleAgentModel,
    master_system,
    psi_from_ccps,
    recover_payoffs,
    solve_bellman,
)
from .errors import ConvergenceError, RankDeficiencyError
from .games import (
    GameModel,
    MpeSolution,
    build_system,
    expected_objects,
    identified_set_game,
    inequality_region_game,
    r3_adjustment_cost,
    r3_exchangeability,
    r3_linear,
    r4_monotone_own_lag,
    r4_monotone_rivals,
    solve_mpe,
)
from .identify import (
    FiniteDependenceCert,
    IdentifiedSet,
    check_finite_dependence,
    combine,
    equality_identified_set,
    finite_equality_set,
    finite_inequality_region,
    finite_restriction_poly,
    inequality_region,
    solve_log_diff,
)
from .restrictions import (
    FactoredStates,
    RestrictionSet,
    additive_homogeneous,
    complementarity,
    concavity,
    exclusion,
    homogeneity_known_nu,
    linear_in_parameters,
    log_diff_restriction,
    log_homogeneity,
    monotonicity,
    zero_cross_difference,
)
from .scenarios import (
    EntryGameBundle,
    EntryGameConfig,
    EntryModelBundle,
    EntryModelConfig,
    ar1_transition,
    build_entry_game,
    build_entry_model,
    build_entry_model_fd,
    tauchen,
)

__version__ = "0.1.0"
