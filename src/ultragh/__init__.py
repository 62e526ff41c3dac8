"""Exact non-Archimedean Gromov-Hausdorff distances on finite ultrametric spaces."""

from .exact import ExactValue, ZERO, ONE
from .spaces import (
    UltrametricSpace,
    WeightSpectrum,
    ball_partition,
    ball_representatives,
    candidate_thresholds,
    hausdorff_distance,
    induced_subspace,
    is_epsilon_net,
    spectra_lower_bound,
    validate_space,
    weight_spectrum,
)
from .umsio import parse_space, parse_space_file, write_space, write_space_file
from .correspondences import (
    Correspondence,
    EquilibriumTable,
    GlueResult,
    SearchResult,
    StrongnessVerdict,
    associated_correspondence,
    distortion,
    equilibrium_table,
    full_product,
    glue_along_strong_correspondence,
    glue_with_constant_bridge,
    is_correspondence,
    is_strong_correspondence,
    min_distortion_correspondence,
)
from .isometries import (
    ApproximationWitness,
    MapWitness,
    correspondence_from_isometry,
    exists_strong_epsilon_approximation,
    exists_strong_epsilon_isometry,
    is_strong_epsilon_approximation,
    is_strong_epsilon_isometry,
    map_distortion,
)
from .engine import (
    DistanceReport,
    EngineCaps,
    classical_gh,
    dhat_gh,
    metric_ratio,
    min_distortion_strong_correspondence,
)
from .generators import (
    LocalFieldParams,
    ramified_ball_approx,
    random_ultrametric,
    truncated_scaled_ball,
    truncated_unramified_ring,
    zq_delta,
)
from .convergence import (
    SplitResult,
    check_convergence_certificate,
    check_net_convergence_certificate,
    diameter_trend,
    find_split,
    replay_split,
    sutb_check,
)
from . import errors

__version__ = "0.1.0"
