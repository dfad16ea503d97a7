"""Execution-environment substrate: contexts, budgets, faults, checkpoints."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".context": (
            "ExecContext",
            "PlanCache",
            "EXECUTIONS",
            "current_context",
            "resolve_context",
            "tensor_generation",
        ),
        ".budget": ("MemoryBudget", "MemoryLimitError"),
        ".faults": (
            "FaultSpec",
            "FaultInjector",
            "FallbackPolicy",
            "DEFAULT_FALLBACK",
            "InjectedFault",
            "WorkerCrashError",
            "BackendUnhealthyError",
        ),
        ".health": (
            "CancelToken",
            "HealthError",
            "HealthMonitor",
            "RunCancelledError",
            "DeadlineExceededError",
            "NumericalHealthError",
        ),
        ".checkpoint": (
            "CheckpointState",
            "checkpoint_path",
            "save_checkpoint",
            "load_checkpoint",
        ),
        ".timer": ("PhaseTimer",),
    },
)
