"""General caching instances, exact solvers, and independent-set gadgets.

The package models caching with page sizes and fault costs as a savings
maximization over *normalized services*, provides exact solvers plus an
interval-packing export, generates graph gadget instances in three cost
models (fault, bit, simple), and verifies them end to end against a
brute-force independent-set oracle.
"""

from __future__ import annotations

from .core import (
    FORCED,
    OPTIONAL,
    Block,
    FormatError,
    GapTable,
    Instance,
    InstanceError,
    InvalidServiceError,
    Page,
    Request,
    Service,
    UnknownGapError,
    ValidationReport,
    gap_table,
    instance_from_text,
    instance_to_text,
    make_instance,
    merged_occupancy_runs,
    request_positions,
    savings,
    service_from_text,
    service_to_text,
    validate_service,
)
from .solver import (
    BudgetExceeded,
    DEFAULT_STATE_BUDGET,
    IntervalPackingInstance,
    SolveResult,
    SolveStats,
    UnsupportedPolicyError,
    export_interval_packing,
    packing_to_text,
    solve_brute_force,
    solve_exact,
)
from .reductions import (
    MODEL_BIT,
    MODEL_FAULT,
    MODEL_SIMPLE,
    MODELS,
    Graph,
    PageRole,
    ReductionOutput,
    default_H,
    edge_page_id,
    generate,
    graph_from_text,
    graph_to_text,
    optional_to_forced,
    reduce_bit_optional,
    reduce_fault_optional,
    reduce_simple,
    reduction_from_text,
    reduction_to_text,
    vertex_page_id,
)
from .properties import (
    BlockDiagnostics,
    MissingRolesError,
    NotIndependentError,
    PropertyCheck,
    PropertyReport,
    check_properties,
    construct_service_from_is,
    diagnostics,
    diagnostics_to_csv,
    extract_is,
)
from .harness import (
    CORPUS,
    RoundTripReport,
    max_independent_set,
    reports_to_csv,
    reports_to_table,
    round_trip,
    run_corpus,
)

__version__ = "0.1.0"
