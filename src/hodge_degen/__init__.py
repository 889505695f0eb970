"""Desk-scale verification toolkit for the singularity and limit
invariants of higher cycles on a degenerating pencil of surfaces."""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    LinearForm,
    P3Point,
    intersection_point,
    sweep_vertices,
    tempered_arrangement,
    triangle_vertices,
    validate_general_position,
)
from .cycles import (
    HigherCycle,
    build_cycle,
    express_in_B,
    singularity_at_zero,
    span_rank,
    threefold_boundary,
)
from .degeneration import (
    H2Class,
    hodge_kernel_basis,
    phi_matrix,
    presentation,
    reduce_raw,
)
from .exactlin import MU, CycloNumber, QMatrix, cyclo_embed, in_span, kernel_basis, rank
from .limits import (
    EtaModel,
    Frame,
    NormalFunctionModel,
    conjugate_at,
    independence_matrix,
    limit_of_pairing,
    pair,
)
from .periods import (
    aj_closed_form,
    check_functional_equations,
    clausen,
    dilog,
    log_line_integral,
    membrane_integral,
    membrane_quadrature,
)
