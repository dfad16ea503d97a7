"""Differential correctness oracle for the S³TTMc/S³TTMcTC kernel family.

The paper's contribution is an *exact-equality* claim: the compact
(SymProp) evaluation equals the naive expansion (Properties 1–3, the
Eq. 7 recurrence). Four PRs of parallel backends, shared-memory workers
and OOM bisection multiplied the execution paths through that claim —
layouts × backends × reductions × plan reuse × row-block scatter — far
past what hand-written fixtures can pin down. ``repro.verify`` turns the
claim into an always-on subsystem:

* :mod:`repro.verify.generators` — seeded random workloads: orders 3–6,
  uniform / skewed / duplicate-heavy index distributions, and the
  degenerate cases (empty tensor, rank 1, dim 1, single non-zero,
  all-equal indices).
* :mod:`repro.verify.oracles` — the differential check matrix: every
  kernel configuration against the dense einsum reference and against
  each other, with ULP-aware tolerances that distinguish *reordered
  summation* (allclose) from *must be bitwise* (slot-ordered paths), plus
  error-contract checks that misuse fails loudly.
* :mod:`repro.verify.invariants` — run-level invariants after each case:
  the memory budget drains to zero, trace span stacks balance, plan-cache
  hit/miss counters are consistent, and instrumented
  :class:`~repro.core.stats.KernelStats` flop/byte tallies equal the
  closed-form :mod:`repro.perfmodel` predictions.
* :mod:`repro.verify.runner` — the seeded suite (``smoke`` / ``full``)
  behind ``python -m repro.verify``; every mismatch prints a
  seed-plus-config repro line that reruns exactly the failing case.

See ``docs/verification.md`` for the oracle matrix and tolerance policy.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".oracles": ("CheckResult", "run_workload_checks"),
        ".generators": ("GeneratedWorkload", "Workload", "generate", "workloads_for"),
        ".runner": ("VerifyReport", "run_case", "run_suite"),
        ".invariants": ("check_budget_preflight", "run_case_invariants"),
    },
)
