"""Tests for the replication availability analysis."""

import math
from itertools import combinations

import pytest

from repro.analysis.availability import (
    count_survivable_sets,
    expected_degraded_load_factor,
    survivable,
    survival_probability,
)
from repro.core.fx import FXDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.errors import AnalysisError
from repro.hashing.fields import FileSystem


def _scheme(m=8, offset=1):
    fs = FileSystem.of(4, m * 2, m=m)
    return ChainedReplicaScheme(FXDistribution(fs), offset=offset)


class TestSurvivable:
    def test_empty_set_survives(self):
        assert survivable(_scheme(), set())

    def test_single_failure_survives(self):
        scheme = _scheme()
        assert all(survivable(scheme, {d}) for d in range(8))

    def test_adjacent_pair_loses(self):
        assert not survivable(_scheme(), {3, 4})
        assert not survivable(_scheme(), {7, 0})  # wraps around

    def test_non_adjacent_pair_survives(self):
        assert survivable(_scheme(), {1, 5})

    def test_offset_respected(self):
        scheme = _scheme(offset=3)
        assert not survivable(scheme, {2, 5})   # 2 + 3 = 5
        assert survivable(scheme, {2, 4})

    def test_unknown_device(self):
        with pytest.raises(AnalysisError):
            survivable(_scheme(), {99})

    def test_unknown_device_beside_a_losing_pair(self):
        # {3, 4} alone loses data; device 99 must still be rejected.
        with pytest.raises(AnalysisError):
            survivable(_scheme(), {3, 4, 99})


class TestCountSurvivableSets:
    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, m, k):
        scheme = _scheme(m=m)
        brute = sum(
            1
            for failed in combinations(range(m), k)
            if survivable(scheme, set(failed))
        )
        assert count_survivable_sets(m, k) == brute

    def test_over_half_is_zero(self):
        assert count_survivable_sets(8, 5) == 0

    def test_bad_inputs(self):
        with pytest.raises(AnalysisError):
            count_survivable_sets(0, 1)


class TestSurvivalProbability:
    def test_known_value(self):
        # m=8, k=2: 20 survivable of C(8,2)=28
        assert survival_probability(_scheme(), 2) == pytest.approx(20 / 28)

    def test_monotone_in_k(self):
        scheme = _scheme(m=16)
        probabilities = [survival_probability(scheme, k) for k in range(0, 6)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_non_coprime_offset_brute_force(self):
        scheme = _scheme(m=8, offset=2)  # gcd(2, 8) = 2: two cycles
        value = survival_probability(scheme, 2)
        brute = sum(
            1
            for failed in combinations(range(8), 2)
            if survivable(scheme, set(failed))
        ) / math.comb(8, 2)
        assert value == pytest.approx(brute)

    def test_k_range_checked(self):
        with pytest.raises(AnalysisError):
            survival_probability(_scheme(), 9)


class TestDegradedLoadFactor:
    def test_two_x(self):
        assert expected_degraded_load_factor(_scheme()) == 2.0

    def test_matches_simulated_degradation(self):
        """The analytic 2x must match the replicated file's observed
        degraded histogram under a balanced base method."""
        from repro.query.partial_match import PartialMatchQuery
        from repro.runtime import DegradedExecutor, FaultPlan
        from repro.storage.replicated_file import ReplicatedFile

        fs = FileSystem.of(8, 8, m=8)
        scheme = ChainedReplicaScheme(FXDistribution(fs))
        rf = ReplicatedFile(scheme)
        query = PartialMatchQuery.full_scan(fs)
        healthy = DegradedExecutor(rf).execute(query).buckets_per_device
        degraded = DegradedExecutor(rf, FaultPlan.fail([2])).execute(
            query
        ).buckets_per_device
        assert degraded[3] == 2 * healthy[3]
