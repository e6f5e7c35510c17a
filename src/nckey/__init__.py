"""Secret-key agreement over non-coherent random linear network coding:
finite-field subspace algebra, the randomized matrix broadcast channel,
rate bounds, and the subset-allocation achievability protocol."""

from .fieldmath import FieldCtx, MatrixFq, mat_mul, random_matrix, rank, rref, solve_in_rowspan
from .subspaces import (
    Subspace,
    SubspaceFamily,
    direct_sum,
    gaussian_binomial,
    iter_subspaces,
    random_subspace,
    span_of,
    spanning_matrix_count,
)
from .channel import (
    ChannelParams,
    SlotObservation,
    broadcast_slot,
    make_source_matrix,
    matrix_transition_prob,
    subspace_transition_prob,
)
from .bounds import (
    exact_cmi_oracle,
    generic_dims,
    no_feedback_two_terminal_rate,
    three_terminal_rate,
    two_terminal_rate,
    upper_bound,
)
from .agreement import (
    SubsetAllocation,
    check_allocation_feasible,
    extract_secure_subspaces,
    plan_dimensions,
    run_session,
    solve_allocation_lp,
    solve_allocation_lp_planned,
)

__version__ = "0.1.0"
