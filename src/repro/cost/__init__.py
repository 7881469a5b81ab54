"""Communication cost models: closed forms, lower bounds, exact counts."""

from .cache import COST_CACHE, CacheInfo, CostCache, pattern_key
from .bounds import (
    cholesky_io_lower_bound,
    cholesky_io_lower_bound_symmetric,
    cholesky_pattern_floor,
    gemm_io_lower_bound,
    lu_io_lower_bound,
    lu_io_lower_bound_conflux,
    lu_pattern_lower_bound,
    parallel_per_node_bound,
    sbc_cost_curve,
    syrk_io_lower_bound,
)
from .exact import CommCount, count_cholesky_messages, count_lu_messages
from .metrics import (
    communication_cost,
    inter_node_volume,
    intra_node_volume,
    per_node_volume,
    q_cholesky,
    q_lu,
)
from .schedbounds import ScheduleBounds, makespan_bounds, schedule_lower_bounds
from .replication import (
    gemm_volume_per_node,
    lu_volume_per_node,
    max_useful_replication,
    memory_per_node,
    optimal_replication,
    replication_tradeoff,
)

__all__ = [
    "COST_CACHE",
    "CacheInfo",
    "CostCache",
    "pattern_key",
    "CommCount",
    "communication_cost",
    "count_cholesky_messages",
    "count_lu_messages",
    "per_node_volume",
    "inter_node_volume",
    "intra_node_volume",
    "q_cholesky",
    "q_lu",
    "lu_pattern_lower_bound",
    "cholesky_pattern_floor",
    "sbc_cost_curve",
    "gemm_io_lower_bound",
    "syrk_io_lower_bound",
    "lu_io_lower_bound",
    "lu_io_lower_bound_conflux",
    "cholesky_io_lower_bound",
    "cholesky_io_lower_bound_symmetric",
    "parallel_per_node_bound",
    "ScheduleBounds",
    "makespan_bounds",
    "schedule_lower_bounds",
    "gemm_volume_per_node",
    "lu_volume_per_node",
    "max_useful_replication",
    "memory_per_node",
    "optimal_replication",
    "replication_tradeoff",
]
