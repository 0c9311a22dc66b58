"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gpp.cache import CacheModel, CacheParams


def small_cache(ways=2, sets=2, line=16, penalty=10):
    return CacheModel(
        CacheParams(
            size_bytes=ways * sets * line,
            line_bytes=line,
            ways=ways,
            miss_penalty=penalty,
        )
    )


class TestParams:
    def test_n_sets(self):
        params = CacheParams(size_bytes=1024, line_bytes=64, ways=4)
        assert params.n_sets == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=1000)
        with pytest.raises(ConfigurationError):
            CacheParams(line_bytes=48)
        with pytest.raises(ConfigurationError):
            CacheParams(ways=3)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheParams(size_bytes=64, line_bytes=64, ways=4)


class TestBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1004)  # same line

    def test_distinct_lines_miss(self):
        cache = small_cache(line=16)
        cache.access(0x0)
        assert not cache.access(0x10)

    def test_lru_eviction(self):
        cache = small_cache(ways=2, sets=1, line=16)
        a, b, c = 0x000, 0x010, 0x020  # all map to the single set
        cache.access(a)
        cache.access(b)
        cache.access(a)      # a is now MRU
        cache.access(c)      # evicts b
        assert cache.access(a)
        assert not cache.access(b)

    def test_set_indexing_avoids_conflicts(self):
        cache = small_cache(ways=1, sets=2, line=16)
        # 0x00 -> set 0, 0x10 -> set 1: no conflict
        cache.access(0x00)
        cache.access(0x10)
        assert cache.access(0x00)
        assert cache.access(0x10)

    def test_access_cycles(self):
        cache = small_cache(penalty=7)
        assert cache.access_cycles(0x40) == 7
        assert cache.access_cycles(0x40) == 0

    def test_stats(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(0x1000)
        assert cache.accesses == 3
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.miss_rate == 0.0


class ReferenceLRU:
    """True LRU with no shortcuts: one recency list of line numbers per
    set, most recent first."""

    def __init__(self, ways, sets, line):
        self.ways, self.sets, self.line = ways, sets, line
        self.recency = [[] for _ in range(sets)]
        self.hits = self.misses = 0

    def access(self, address):
        line = address // self.line
        lines = self.recency[line % self.sets]
        hit = line in lines
        if hit:
            lines.remove(line)
            self.hits += 1
        else:
            self.misses += 1
        lines.insert(0, line)
        del lines[self.ways :]
        return hit


#: One access run: (tag, set, run length, offsets within the line).
#: Few tags per set force evictions; most runs land in set 0, so they
#: conflict with each other.
RUNS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from([0, 0, 0, 1, 3]),
        st.integers(1, 4),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=60,
)


class TestLastLineFastPath:
    """Repeats of the previous line take a shortcut in
    :meth:`CacheModel.access`; it must stay exact true LRU."""

    @settings(max_examples=200, deadline=None)
    @given(
        ways=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 2, 4]),
        line=st.sampled_from([4, 16, 64]),
        runs=RUNS,
    )
    def test_matches_reference_lru(self, ways, sets, line, runs):
        cache = small_cache(ways=ways, sets=sets, line=line)
        reference = ReferenceLRU(ways, sets, line)
        for tag, set_index, length, seed in runs:
            base = (tag * sets + set_index % sets) * line
            for step in range(length):
                address = base + (seed >> step) % line
                assert cache.access(address) == reference.access(address)
        assert cache.hits == reference.hits
        assert cache.misses == reference.misses
        accesses = reference.hits + reference.misses
        assert cache.miss_rate == reference.misses / accesses
