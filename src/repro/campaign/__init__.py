"""Campaign subsystem: declarative experiment campaigns over the system.

A *campaign* is the cross product of fabric geometries, mappers,
allocation policies, workloads and RNG seeds. :class:`CampaignSpec` declares it,
:class:`CampaignRunner` evaluates every resulting design point (as
tasks of one :class:`~repro.resilience.ResilientExecutor`, inline or on
a process pool) against memoised workload traces — grouping
points that differ only in allocation policy onto shared launch
schedules (one trace walk per pipeline, vectorized replay per policy;
see :mod:`repro.system.schedule`) — and per-point JSON artifacts make
the results durable. The experiment drivers (``repro.experiments``)
and the DSE sweep (``repro.dse.sweep``) are thin consumers of this
package.
"""

from repro.campaign.artifacts import to_jsonable, write_json
from repro.campaign.results import SuiteRun, suite_run_summary
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    evaluate_design_point,
)
from repro.campaign.spec import (
    CampaignSpec,
    DesignPoint,
    MapperSpec,
    PolicySpec,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "DesignPoint",
    "MapperSpec",
    "PolicySpec",
    "SuiteRun",
    "evaluate_design_point",
    "suite_run_summary",
    "to_jsonable",
    "write_json",
]
