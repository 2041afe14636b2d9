"""Tests for algebraic inverse mapping (repro.core.inverse).

The defining property: for every device, the algebraic enumeration of its
qualified buckets must equal filtering ``R(q)`` by ``device_of`` — across
methods, file systems and query shapes.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fx import FXDistribution
from repro.core.inverse import contribution_index, separable_qualified_on_device
from repro.distribution.gdm import GDMDistribution
from repro.distribution.modulo import ModuloDistribution
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import all_patterns, representative_query


def _naive(method, device, query):
    return [
        bucket
        for bucket in query.qualified_buckets()
        if method.device_of(bucket) == device
    ]


def _method_factories():
    return [
        ("fx-paper", lambda fs: FXDistribution(fs)),
        ("fx-theorem9", lambda fs: FXDistribution(fs, policy="theorem9")),
        ("modulo", lambda fs: ModuloDistribution(fs)),
        (
            "gdm-odd",
            lambda fs: GDMDistribution(
                fs, multipliers=tuple(3 + 2 * i for i in range(fs.n_fields))
            ),
        ),
        (
            "gdm-even",  # even multipliers exercise non-injective solving
            lambda fs: GDMDistribution(
                fs, multipliers=tuple(2 + 2 * i for i in range(fs.n_fields))
            ),
        ),
    ]


FILESYSTEMS = [
    FileSystem.of(4, 8, m=8),
    FileSystem.of(2, 4, 8, m=4),
    FileSystem.of(16, 2, m=8),   # field larger than M
    FileSystem.of(4, 4, 4, m=16),
]


@pytest.mark.parametrize("name,factory", _method_factories())
@pytest.mark.parametrize("fs", FILESYSTEMS, ids=lambda fs: fs.describe())
def test_inverse_matches_naive_filter_all_patterns(name, factory, fs):
    method = factory(fs)
    for pattern in all_patterns(fs.n_fields):
        query = representative_query(fs, pattern)
        for device in range(fs.m):
            algebraic = sorted(
                separable_qualified_on_device(method, device, query)
            )
            assert algebraic == sorted(_naive(method, device, query))


@given(
    st.sampled_from(FILESYSTEMS),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_inverse_matches_naive_random_values(fs, method_index, rng):
    __, factory = _method_factories()[method_index]
    method = factory(fs)
    # Random query with random specified values.
    values = []
    for size in fs.field_sizes:
        values.append(rng.randrange(size) if rng.random() < 0.5 else None)
    query = PartialMatchQuery(fs, tuple(values))
    device = rng.randrange(fs.m)
    reference = list(separable_qualified_on_device(method, device, query))
    assert sorted(reference) == sorted(_naive(method, device, query))
    # The method's per-pattern solver yields the reference's buckets in its
    # order.
    assert list(method.qualified_on_device(device, query)) == reference


def test_inverse_partitions_qualified_buckets():
    fs = FileSystem.of(4, 8, m=8)
    fx = FXDistribution(fs)
    query = PartialMatchQuery.from_dict(fs, {0: 2})
    collected = []
    for device in range(fs.m):
        collected.extend(separable_qualified_on_device(fx, device, query))
    assert sorted(collected) == sorted(query.qualified_buckets())


def test_exact_match_query():
    fs = FileSystem.of(4, 8, m=8)
    fx = FXDistribution(fs)
    bucket = (3, 6)
    query = PartialMatchQuery.exact(fs, bucket)
    home = fx.device_of(bucket)
    for device in range(fs.m):
        found = list(separable_qualified_on_device(fx, device, query))
        assert found == ([bucket] if device == home else [])


def test_contribution_index_groups_values():
    fs = FileSystem.of(16, 2, m=8)  # identity on a large field: 2 values/slot
    fx = FXDistribution(fs)
    index = contribution_index(fx, 0)
    assert all(len(values) == 2 for values in index.values())
    assert sum(len(v) for v in index.values()) == 16


def test_method_level_entry_point():
    fs = FileSystem.of(4, 8, m=8)
    fx = FXDistribution(fs)
    query = PartialMatchQuery.from_dict(fs, {1: 3})
    assert sorted(fx.qualified_on_device(2, query)) == sorted(
        _naive(fx, 2, query)
    )


def test_pattern_solvers_built_concurrently_answer_like_the_reference():
    """Threads racing on a fresh method may each build a pattern's solver;
    every build must answer like the reference iterator."""
    fs = FileSystem.of(4, 4, 4, m=16)
    reference = FXDistribution(fs)
    queries = [
        representative_query(fs, pattern)
        for pattern in all_patterns(fs.n_fields)
    ]
    expected = {
        (query, device): list(
            separable_qualified_on_device(reference, device, query)
        )
        for query in queries
        for device in range(fs.m)
    }
    shared = FXDistribution(fs)
    mismatches = []

    def worker():
        for (query, device), buckets in expected.items():
            if list(shared.qualified_on_device(device, query)) != buckets:
                mismatches.append((query.describe(), device))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
