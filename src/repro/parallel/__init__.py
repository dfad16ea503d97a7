"""Parallel execution substrate: partitioning, backends, scaling simulation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".backends": (
            "BACKENDS",
            "Backend",
            "SerialBackend",
            "ProcessBackend",
            "default_workers",
            "make_backend",
        ),
        ".distributed": (
            "CommunicationPlan",
            "plan_distribution",
            "simulate_distributed_time",
            "ShardedExchangePlan",
            "plan_sharded_exchange",
            "simulate_sharded_time",
            "exchange_from_trace",
        ),
        ".executor": (
            "ChunkPlan",
            "ParallelJob",
            "parallel_s3ttmc",
            "measure_chunk_costs",
            "get_chunk_plans",
            "chunk_row_block",
            "ParallelRunReport",
        ),
        ".partition": (
            "block_partition",
            "balanced_partition",
            "estimate_nonzero_costs",
        ),
        ".sharding": (
            "TensorShard",
            "build_shards",
            "shards_for_ranges",
            "partition_ranges",
            "hierarchical_merge",
            "merge_schedule",
            "shard_resident_bytes",
        ),
        ".simulate": (
            "lpt_makespan",
            "contention_factor",
            "simulate_time",
            "simulate_curve",
            "ScalingCurve",
            "GAMMA0",
            "WIDTH0",
        ),
    },
)
