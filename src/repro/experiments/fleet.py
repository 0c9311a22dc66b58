"""(extra) Fleet-scale aging campaign — the paper's Eq. 1 lifetime
claim expanded over a device population.

The paper evaluates one simulated device per design point; a deployed
CGRA product ships as a *fleet* whose devices each see a different
traffic mix. This experiment runs :class:`~repro.fleet.FleetRunner`
over a population drawing per-device workload mixes from a named
traffic scenario and reports, per allocation policy: streaming fleet
lifetime percentiles, MTTF, survival fractions over the mission grid,
and the MTTF ratio against the baseline allocation — i.e. whether the
single-device lifetime improvements of Table I survive traffic
heterogeneity at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.spec import PolicySpec
from repro.fleet import FleetResult, FleetRunner, FleetSpec

#: Default fleet: Fig. 1's 4x8 fabric, a crypto-gateway traffic
#: distribution, one device population shared by all three policies so
#: per-policy MTTF deltas are paired.
DEFAULT_SPEC = FleetSpec(
    name="crypto-gateway-fleet",
    rows=4,
    cols=8,
    policies=(
        PolicySpec.make("baseline"),
        PolicySpec.make("rotation"),
        PolicySpec.make("stress_aware"),
    ),
    scenario="crypto_gateway",
    n_devices=4096,
    devices_per_shard=1024,
    seed=0,
)


@dataclass
class FleetExperimentResult:
    result: FleetResult


def run(spec: FleetSpec | None = None) -> FleetExperimentResult:
    """Run the fleet; raises :class:`~repro.errors.ConfigurationError`
    naming every quarantined shard task rather than rendering MTTF
    over a partial fleet."""
    spec = spec if spec is not None else DEFAULT_SPEC
    return FleetExperimentResult(
        result=FleetRunner().run(spec).require_complete()
    )


def render(result: FleetExperimentResult) -> str:
    fleet = result.result
    spec = fleet.spec
    traffic = spec.traffic
    baseline = spec.policies[0].label
    lines = [
        "(extra) Fleet-scale aging campaign",
        f"fleet: {spec.n_devices} devices, {spec.rows}x{spec.cols} fabric, "
        f"{len(spec.shards())} shards of {spec.devices_per_shard}",
        f"traffic: {spec.scenario!r} — {traffic.description}",
        "",
        f"{'policy':>14} {'MTTF':>7} {'p50':>7} {'p90':>7} {'p99':>7} "
        f"{'worst-u':>8} {'vs ' + baseline:>12}",
    ]
    for policy in spec.policies:
        agg = fleet.aggregate(policy.label)
        ratio = fleet.mttf_ratio(policy.label, baseline)
        lines.append(
            f"{policy.label:>14} {agg.mttf_years():7.2f} "
            f"{agg.lifetime_percentile(50):7.2f} "
            f"{agg.lifetime_percentile(90):7.2f} "
            f"{agg.lifetime_percentile(99):7.2f} "
            f"{agg.mean_worst_utilization():8.3f} "
            f"{'x' + format(ratio, '.2f'):>12}"
        )
    lines.append("")
    lines.append("fleet survival (fraction alive after N years):")
    header = "  ".join(f"{year:>6.0f}y" for year in spec.mission_years)
    lines.append(f"{'policy':>14}  {header}")
    for policy in spec.policies:
        agg = fleet.aggregate(policy.label)
        survival = agg.survival_fractions()
        cells = "  ".join(
            f"{survival[year]:7.3f}" for year in spec.mission_years
        )
        lines.append(f"{policy.label:>14}  {cells}")
    return "\n".join(lines)


def main() -> None:
    print(render(run()))  # noqa: T201


if __name__ == "__main__":
    main()
