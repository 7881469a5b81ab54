"""StarPU-like task-based distributed runtime simulator."""

from .analysis import MemoryStats, makespan_bounds, memory_footprint
from .cluster import ClusterSpec, paper_cluster
from .graph import KIND_NAMES, DataRef, GraphColumns, Task, TaskGraph, TaskKind
from .objgraph import (
    ObjectTaskGraph,
    build_cholesky_graph_reference,
    build_lu_graph_reference,
)
from .faults import (
    FaultEvent,
    FaultPlan,
    FaultStats,
    LinkDegradation,
    NodeFailure,
    StragglerWindow,
    colrow_recovery,
    parse_faults,
    recovery_peers,
    simulate_with_faults,
)
from .network import (
    NETWORK_MODELS,
    ContentionModel,
    HierarchicalModel,
    NetworkModel,
    NetworkStats,
    NicModel,
    ResilientNetwork,
    make_network,
)
from .topology import Topology
from .schedulers import (
    SCHEDULERS,
    Scheduler,
    bottom_levels,
    make_scheduler,
    register_scheduler,
    registered_schedulers,
)
from .simulator import SimulationError, simulate
from .stats import (
    TraceStats,
    comm_breakdown,
    compute_stats,
    fault_breakdown,
    concurrency_profile,
    critical_path_breakdown,
    extract_critical_path,
    iteration_overlap,
)
from .trace import ExecutionTrace, MsgRecord, RecordList, TaskRecord
from .tracefmt import save_chrome_trace, text_gantt

__all__ = [
    "MemoryStats",
    "memory_footprint",
    "save_chrome_trace",
    "text_gantt",
    "makespan_bounds",
    "ClusterSpec",
    "paper_cluster",
    "DataRef",
    "GraphColumns",
    "KIND_NAMES",
    "ObjectTaskGraph",
    "Task",
    "TaskGraph",
    "TaskKind",
    "build_cholesky_graph_reference",
    "build_lu_graph_reference",
    "NETWORK_MODELS",
    "ContentionModel",
    "HierarchicalModel",
    "NetworkModel",
    "NetworkStats",
    "NicModel",
    "ResilientNetwork",
    "make_network",
    "Topology",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "LinkDegradation",
    "NodeFailure",
    "StragglerWindow",
    "colrow_recovery",
    "parse_faults",
    "recovery_peers",
    "simulate_with_faults",
    "fault_breakdown",
    "SCHEDULERS",
    "Scheduler",
    "bottom_levels",
    "make_scheduler",
    "register_scheduler",
    "registered_schedulers",
    "SimulationError",
    "TraceStats",
    "comm_breakdown",
    "compute_stats",
    "concurrency_profile",
    "critical_path_breakdown",
    "extract_critical_path",
    "iteration_overlap",
    "simulate",
    "ExecutionTrace",
    "MsgRecord",
    "RecordList",
    "TaskRecord",
]
