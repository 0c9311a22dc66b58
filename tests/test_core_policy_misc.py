"""Edge-case tests for the policy registry and base classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.fabric import FabricGeometry
from repro.core.policy import (
    AllocationPolicy,
    ScheduleView,
    available_policies,
    make_policy,
    min_stress_index,
    register_policy,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            @register_policy
            class Duplicate(AllocationPolicy):  # noqa: N801
                name = "baseline"

    def test_policy_kwargs_forwarded(self):
        policy = make_policy("rotation", pattern="diagonal", stride=3)
        assert policy.pattern_name == "diagonal"
        assert policy.stride == 3

    def test_available_policies_sorted(self):
        names = available_policies()
        assert list(names) == sorted(names)
        assert "static_remap" in names

    def test_base_class_is_abstract(self):
        policy = AllocationPolicy()
        policy.bind(FabricGeometry(rows=2, cols=8))
        with pytest.raises(NotImplementedError):
            policy.plan_segments(ScheduleView(()), None)


class TestDescriptions:
    @pytest.mark.parametrize(
        "name,kwargs,needle",
        [
            ("baseline", {}, "baseline"),
            ("rotation", {"pattern": "raster"}, "raster"),
            ("random", {"seed": 9}, "seed=9"),
            ("stress_aware", {"interval": 5}, "interval=5"),
        ],
    )
    def test_describe_mentions_configuration(self, name, kwargs, needle):
        assert needle in make_policy(name, **kwargs).describe()


class TestRotationStride:
    def test_non_coprime_stride_still_covers_over_time(self):
        """Stride 2 on an even-size pattern halves per-sweep coverage;
        the policy must still cycle (never crash) and revisit cells."""
        from repro.core.allocator import ConfigurationAllocator
        from tests.test_core_allocator import config

        geometry = FabricGeometry(rows=2, cols=4)
        allocator = ConfigurationAllocator(
            geometry, make_policy("rotation", stride=2)
        )
        c = config([(0, 0)], rows=2, cols=4)
        pivots = allocator.allocate_batch([c] * 16).pivots
        assert len({tuple(p) for p in pivots}) == 4  # half of the 8 cells


def _scalar_min_stress(stress):
    """First candidate with the lowest (max, sum), by a plain loop."""
    best, best_key = 0, None
    for index, row in enumerate(stress):
        key = (max(row), sum(row))
        if best_key is None or key < best_key:
            best, best_key = index, key
    return best


class TestMinStressIndex:
    @settings(deadline=None, max_examples=150)
    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=4), min_size=12, max_size=12
        ),
        footprints=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=11), min_size=3, max_size=3
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_matches_scalar_tie_break(self, counts, footprints):
        stress = np.asarray(counts, dtype=np.int64)[np.asarray(footprints)]
        assert min_stress_index(stress) == _scalar_min_stress(stress.tolist())

    def test_all_tied_candidates_pick_first(self):
        counts = np.full(9, 7, dtype=np.int64)
        footprints = np.asarray([[0, 1], [2, 3], [4, 5]], dtype=np.int64)
        assert min_stress_index(counts[footprints]) == 0

    def test_float_counts(self):
        counts = np.asarray([0.1, 0.1, 0.2, 0.2, 0.3, 0.3], dtype=np.float64)
        # Equal maxima; the sums tie too, so the first candidate wins.
        assert min_stress_index(counts[np.asarray([[0, 5], [1, 4]])]) == 0
        # A lower sum wins among equal maxima.
        assert min_stress_index(counts[np.asarray([[2, 5], [1, 4]])]) == 1
