"""Execution-environment substrate: contexts, budgets, faults, checkpoints."""

from .budget import MemoryBudget, MemoryLimitError
from .checkpoint import (
    CheckpointState,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from .context import (
    EXECUTIONS,
    ExecContext,
    PlanCache,
    current_context,
    resolve_context,
    tensor_generation,
)
from .faults import (
    DEFAULT_FALLBACK,
    BackendUnhealthyError,
    CorruptPartialError,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    WorkerCrashError,
    faults_from_env,
    parse_fault_specs,
    parse_policy_spec,
    policy_from_env,
)
from .health import (
    CancelToken,
    DeadlineExceededError,
    HealthError,
    HealthMonitor,
    NumericalHealthError,
    RunCancelledError,
)
from .profile import HotSpot, ProfileReport, profile_call
from .timer import PhaseTimer, Stopwatch

__all__ = [
    "ExecContext",
    "PlanCache",
    "EXECUTIONS",
    "current_context",
    "resolve_context",
    "tensor_generation",
    "MemoryBudget",
    "MemoryLimitError",
    "FaultSpec",
    "FaultInjector",
    "FallbackPolicy",
    "DEFAULT_FALLBACK",
    "InjectedFault",
    "WorkerCrashError",
    "CorruptPartialError",
    "BackendUnhealthyError",
    "faults_from_env",
    "parse_fault_specs",
    "parse_policy_spec",
    "policy_from_env",
    "CancelToken",
    "HealthError",
    "HealthMonitor",
    "RunCancelledError",
    "DeadlineExceededError",
    "NumericalHealthError",
    "CheckpointState",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "PhaseTimer",
    "profile_call",
    "ProfileReport",
    "HotSpot",
    "Stopwatch",
]
