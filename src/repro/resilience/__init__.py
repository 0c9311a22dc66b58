"""repro.resilience — fault injection, retries, resilient execution.

The layer between the campaign/fleet runners and
``ProcessPoolExecutor``: deterministic seeded fault injection
(:mod:`repro.resilience.faults`) so every failure mode is testable in
CI, retry classification and seeded backoff
(:mod:`repro.resilience.retry`), and a pool wrapper
(:mod:`repro.resilience.executor`) that survives worker crashes,
hangs and transient task failures — rebuilding pools, requeueing
unfinished work, quarantining poison tasks as structured
:class:`TaskFailure` records, and degrading to serial in-process
execution when the pool keeps breaking. Successful results are
bit-identical no matter how many recoveries occurred.
"""

from repro.resilience.executor import (
    ExecutionReport,
    ResilientExecutor,
    TaskFailure,
    require_complete,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy

__all__ = [
    "ExecutionReport",
    "FaultPlan",
    "FaultSpec",
    "ResilientExecutor",
    "RetryPolicy",
    "TaskFailure",
    "require_complete",
]
