"""Stateful testing of the replicated file: failures, restores, reads.

Hypothesis drives interleavings of inserts, device failures and restores
(the failed set becomes a :class:`FaultPlan`), checking after every step
that a degraded read returns exactly the live logical records whenever
the failure pattern is survivable, and reports lost buckets precisely
when an adjacent primary/backup pair is down.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.fx import FXDistribution
from repro.distribution.replicated import ChainedReplicaScheme
from repro.hashing.fields import FileSystem
from repro.query.partial_match import PartialMatchQuery
from repro.runtime import DegradedExecutor, FaultPlan
from repro.storage.replicated_file import ReplicatedFile

M = 4


class ReplicatedFileMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        fs = FileSystem.of(4, 4, m=M)
        self.file = ReplicatedFile(ChainedReplicaScheme(FXDistribution(fs)))
        self.model: list[tuple] = []
        self.failed: set[int] = set()
        self.next_id = 0

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(tag=st.integers(0, 9))
    def insert(self, tag):
        record = (self.next_id, tag)
        self.next_id += 1
        self.file.insert(record)
        self.model.append(record)

    @rule(device=st.integers(0, M - 1))
    def fail(self, device):
        self.failed.add(device)

    @rule(device=st.integers(0, M - 1))
    def restore(self, device):
        self.failed.discard(device)

    @rule()
    def full_scan(self):
        query = PartialMatchQuery.full_scan(self.file.filesystem)
        failed = self.failed
        result = DegradedExecutor(self.file, FaultPlan.fail(failed)).execute(
            query
        )
        # survivable iff no failed device's backup neighbour is also failed
        survivable = all((d + 1) % M not in failed for d in failed)
        if survivable:
            assert result.lost_buckets == 0
            assert sorted(map(str, result.records)) == sorted(
                map(str, self.model)
            )
        else:
            assert result.lost_buckets > 0
            assert result.completeness < 1.0

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def physical_copies_consistent(self):
        physical = sum(d.record_count for d in self.file.devices)
        assert physical == 2 * len(self.model)
        self.file.check_invariants()


ReplicatedFileMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestReplicatedFileStateful = ReplicatedFileMachine.TestCase
