"""Micro-benchmarks of the hot library paths.

These use pytest-benchmark's statistical timing (many rounds) since
they are cheap: the greedy scheduler, the allocation policies and the
functional simulator — the three components everything else multiplies.
"""

from repro.cgra.fabric import FabricGeometry
from repro.core.allocator import ConfigurationAllocator
from repro.core.policy import make_policy
from repro.dbt.window import build_unit
from repro.isa.assembler import assemble
from repro.sim.cpu import CPU
from repro.workloads.suite import get_workload, run_workload


def test_functional_simulator_throughput(benchmark):
    """Instructions/second of the RV32IM interpreter (bitcount)."""
    program = get_workload("bitcount").program()

    def run():
        return CPU(program).run()

    result = benchmark(run)
    assert result.exit_code == get_workload("bitcount").expected_checksum
    benchmark.extra_info["instructions"] = result.steps


def test_scheduler_unit_build(benchmark):
    """Greedy first-fit scheduling of one translation unit."""
    trace = run_workload("sha")
    geometry = FabricGeometry(rows=4, cols=32)

    unit = benchmark(build_unit, trace, 0, geometry)
    assert unit is not None
    benchmark.extra_info["unit_instructions"] = unit.n_instructions


def test_rotation_allocation_throughput(benchmark):
    """Pivot selection + wrap translation + stress recording for one
    queued launch placed by the next tracker read (a batch of one, the
    coupled walk's worst case)."""
    geometry = FabricGeometry(rows=4, cols=32)
    trace = run_workload("sha")
    unit = build_unit(trace, 0, geometry)
    allocator = ConfigurationAllocator(geometry, make_policy("rotation"))

    def launch():
        allocator.allocate(unit)
        return allocator.tracker

    tracker = benchmark(launch)
    assert tracker.total_executions == allocator.launches > 0


def test_rotation_allocation_batch_throughput(benchmark):
    """Same launches through the vectorized batch API (compare per-
    launch time against ``test_rotation_allocation_throughput``: the
    reported time covers ``batch_size`` launches)."""
    geometry = FabricGeometry(rows=4, cols=32)
    trace = run_workload("sha")
    unit = build_unit(trace, 0, geometry)
    allocator = ConfigurationAllocator(geometry, make_policy("rotation"))
    batch_size = 4096
    sequence = [unit] * batch_size

    def launch_batch():
        return allocator.allocate_batch(sequence)

    batch = benchmark(launch_batch)
    assert batch.n_launches == batch_size
    benchmark.extra_info["batch_size"] = batch_size


def test_stress_aware_allocation_throughput(benchmark):
    """The adaptive policy's pivot search (future-work variant)."""
    geometry = FabricGeometry(rows=4, cols=32)
    trace = run_workload("sha")
    unit = build_unit(trace, 0, geometry)
    allocator = ConfigurationAllocator(
        geometry, make_policy("stress_aware", interval=1)
    )

    def launch():
        allocator.allocate(unit)
        return allocator.tracker

    tracker = benchmark(launch)
    assert tracker.total_executions == allocator.launches > 0


def test_assembler_throughput(benchmark):
    """Two-pass assembly of the largest workload source."""
    source = get_workload("rijndael").source

    program = benchmark(assemble, source)
    assert len(program) > 0
