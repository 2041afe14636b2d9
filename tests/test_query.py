"""Tests for partial match queries, patterns and workloads."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, QueryError
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.query.patterns import (
    all_patterns,
    patterns_with_k_unspecified,
    queries_for_pattern,
    representative_query,
)
from repro.query.trace import dump_trace, format_query, load_trace, parse_trace
from repro.query.workload import QueryWorkload, WorkloadSpec


FS = FileSystem.of(2, 4, 8, m=4)


class TestPartialMatchQueryConstruction:
    def test_from_dict(self):
        q = PartialMatchQuery.from_dict(FS, {0: 1, 2: 5})
        assert q.values == (1, None, 5)

    def test_from_dict_unknown_field(self):
        with pytest.raises(QueryError):
            PartialMatchQuery.from_dict(FS, {3: 0})

    def test_value_out_of_domain(self):
        with pytest.raises(QueryError):
            PartialMatchQuery.from_dict(FS, {0: 2})

    def test_bool_value_rejected(self):
        with pytest.raises(QueryError, match="field 0 value True"):
            PartialMatchQuery.from_dict(FS, {0: True})
        with pytest.raises(QueryError):
            PartialMatchQuery(FS, (None, False, None))

    def test_bool_field_index_rejected(self):
        with pytest.raises(QueryError, match="no field True"):
            PartialMatchQuery.from_dict(FS, {True: 2})

    def test_wrong_arity(self):
        with pytest.raises(QueryError):
            PartialMatchQuery(FS, (None, None))

    def test_exact(self):
        q = PartialMatchQuery.exact(FS, (1, 3, 7))
        assert q.num_unspecified == 0
        assert q.qualified_count == 1

    def test_full_scan(self):
        q = PartialMatchQuery.full_scan(FS)
        assert q.num_unspecified == 3
        assert q.qualified_count == FS.bucket_count


class TestQueryIntrospection:
    def test_fields_partition(self):
        q = PartialMatchQuery.from_dict(FS, {1: 2})
        assert q.specified_fields == (1,)
        assert q.unspecified_fields == (0, 2)
        assert q.pattern == frozenset({0, 2})

    def test_qualified_count(self):
        q = PartialMatchQuery.from_dict(FS, {1: 2})
        assert q.qualified_count == 2 * 8

    def test_describe(self):
        q = PartialMatchQuery.from_dict(FS, {0: 1})
        assert q.describe() == "<1, *, *>"

    def test_specified_items(self):
        q = PartialMatchQuery.from_dict(FS, {0: 1, 2: 3})
        assert list(q.specified_items()) == [(0, 1), (2, 3)]


class TestQueryEvaluation:
    def test_qualified_buckets_enumeration(self):
        q = PartialMatchQuery.from_dict(FS, {0: 1, 1: 2})
        buckets = list(q.qualified_buckets())
        assert buckets == [(1, 2, j) for j in range(8)]

    def test_matches(self):
        q = PartialMatchQuery.from_dict(FS, {0: 1})
        assert q.matches((1, 0, 0))
        assert not q.matches((0, 0, 0))

    def test_matches_agrees_with_enumeration(self):
        q = PartialMatchQuery.from_dict(FS, {1: 3})
        qualified = set(q.qualified_buckets())
        for bucket in FS.buckets():
            assert q.matches(bucket) == (bucket in qualified)

    def test_with_specified(self):
        q = PartialMatchQuery.full_scan(FS).with_specified(1, 2)
        assert q.values == (None, 2, None)


class TestPatterns:
    def test_all_patterns_count(self):
        assert sum(1 for __ in all_patterns(5)) == 32

    def test_patterns_with_k_count(self):
        assert sum(1 for __ in patterns_with_k_unspecified(6, 3)) == math.comb(6, 3)

    def test_patterns_with_k_invalid(self):
        with pytest.raises(QueryError):
            list(patterns_with_k_unspecified(3, 4))

    def test_queries_for_pattern_count(self):
        queries = list(queries_for_pattern(FS, {0}))
        # specified fields 1 and 2 -> 4 * 8 value combos
        assert len(queries) == 32
        assert all(q.pattern == frozenset({0}) for q in queries)

    def test_queries_for_pattern_bad_field(self):
        with pytest.raises(QueryError):
            list(queries_for_pattern(FS, {5}))

    def test_representative_query(self):
        q = representative_query(FS, {2})
        assert q.values == (0, 0, None)

    @given(st.integers(1, 6))
    def test_patterns_partition_by_k(self, n):
        total = 0
        for k in range(n + 1):
            total += sum(1 for __ in patterns_with_k_unspecified(n, k))
        assert total == 2**n


class TestWorkload:
    def test_reproducible(self):
        a = QueryWorkload(FS, WorkloadSpec(seed=11)).take(50)
        b = QueryWorkload(FS, WorkloadSpec(seed=11)).take(50)
        assert a == b

    def test_reset_replays(self):
        wl = QueryWorkload(FS, WorkloadSpec(seed=3))
        first = wl.take(10)
        wl.reset()
        assert wl.take(10) == first

    def test_exclude_trivial(self):
        spec = WorkloadSpec(seed=1, exclude_trivial=True)
        for q in QueryWorkload(FS, spec).take(200):
            assert 0 < q.num_unspecified < FS.n_fields

    def test_probability_zero_never_specifies(self):
        spec = WorkloadSpec(spec_probability=0.0, seed=2)
        assert all(
            q.num_unspecified == FS.n_fields
            for q in QueryWorkload(FS, spec).take(20)
        )

    def test_probability_one_always_exact(self):
        spec = WorkloadSpec(spec_probability=1.0, seed=2)
        assert all(
            q.num_unspecified == 0 for q in QueryWorkload(FS, spec).take(20)
        )

    def test_per_field_probabilities(self):
        spec = WorkloadSpec(spec_probability=(1.0, 0.0, 1.0), seed=4)
        for q in QueryWorkload(FS, spec).take(50):
            assert q.values[0] is not None
            assert q.values[1] is None
            assert q.values[2] is not None

    def test_wrong_probability_count(self):
        with pytest.raises(ConfigurationError):
            QueryWorkload(FS, WorkloadSpec(spec_probability=(0.5,)))

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            QueryWorkload(FS, WorkloadSpec(spec_probability=1.5))

    def test_trivial_only_model_raises(self):
        spec = WorkloadSpec(spec_probability=1.0, exclude_trivial=True, seed=0)
        with pytest.raises(QueryError):
            QueryWorkload(FS, spec).next_query()

    def test_negative_take_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryWorkload(FS).take(-1)

    def test_iter_protocol(self):
        wl = QueryWorkload(FS, WorkloadSpec(seed=8))
        iterator = iter(wl)
        assert next(iterator).filesystem is FS


class TestTraceRoundTrip:
    """Property: serialising a workload and parsing it back is lossless."""

    @given(data=st.data())
    def test_format_parse_round_trip(self, data):
        sizes = data.draw(
            st.lists(st.sampled_from((2, 4, 8)), min_size=1, max_size=4)
        )
        fs = FileSystem.of(*sizes, m=2)
        query_strategy = st.tuples(
            *[
                st.one_of(st.none(), st.integers(0, size - 1))
                for size in sizes
            ]
        ).map(lambda values: PartialMatchQuery(fs, values))
        queries = data.draw(
            st.lists(query_strategy, min_size=0, max_size=20)
        )
        lines = [format_query(query) for query in queries]
        assert list(parse_trace(fs, lines)) == queries

    @given(seed=st.integers(0, 2**16))
    def test_dump_load_file_round_trip(self, seed):
        queries = QueryWorkload(FS, WorkloadSpec(seed=seed)).take(12)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "trace.txt"
            dump_trace(queries, path)
            assert load_trace(FS, path) == queries
