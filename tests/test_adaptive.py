"""Tests for the adaptive declustering loop (bridge, score, hot-swap).

The scenario used throughout: ``F=(2, 2, 2, 2), M=16`` has four small
fields, so (Sung's impossibility) no assignment is perfect for *all*
patterns — the uniform-optimal assignment ``I,U,IU1,IU2`` fails on the
pattern leaving field 3 specified (load factor 2.0), while ``I,U,IU2,I``
is strict optimal on every pattern of the skewed mix below.  The mix is
therefore one the uniform choice serves at E[load factor] 1.5 and the
adaptive search must serve at 1.0, the lower bound.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.adaptive import (
    AdaptivePlan,
    EmpiricalQueryModel,
    adaptive_transform_search,
    apply_plan,
    content_digest_of,
    load_profile,
    mix_lower_bound,
    pattern_to_unspecified,
    representative_queries,
    score_method,
    unspecified_to_pattern,
)
from repro.analysis.query_model import IndependenceModel
from repro.analysis.skew import (
    expected_load_factor,
    pattern_load_factor,
)
from repro.api import make_durable_file
from repro.cli import main
from repro.core.fx import FXDistribution
from repro.durability.durable_file import recover
from repro.errors import AnalysisError, ReproError, SimulatedCrashError
from repro.hashing.fields import FileSystem
from repro.obs.profile import QueryMixProfile, pattern_of_query
from repro.query.patterns import all_patterns, representative_query
from repro.storage.parallel_file import PartitionedFile

FIELDS = (2, 2, 2, 2)
DEVICES = 16
#: Uniform-optimal assignment for FIELDS/DEVICES (what `search` deploys).
UNIFORM_BEST = ("I", "U", "IU1", "IU2")
#: Skewed mix: dominated by queries specifying only field 3 — the one
#: pattern UNIFORM_BEST serves at twice the optimal load.
MIX = {"***1": 50, "**11": 20, "*1*1": 15, "1**1": 15}


def _fs() -> FileSystem:
    return FileSystem.of(*FIELDS, m=DEVICES)


def _baseline(fs: FileSystem) -> FXDistribution:
    return FXDistribution(fs, transforms=list(UNIFORM_BEST))


def _model(fs: FileSystem) -> EmpiricalQueryModel:
    return EmpiricalQueryModel.from_counts(MIX, fs.n_fields)


def _records(n: int = 64, seed: int = 7) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(size) for size in FIELDS) for __ in range(n)
    ]


@pytest.fixture
def telemetry_on():
    obs.reset_telemetry()
    obs.configure(enabled=True)
    yield
    obs.reset_telemetry()


# ======================================================================
# Pattern bridge
# ======================================================================
class TestPatternBridge:
    @pytest.mark.parametrize("n_fields", [2, 3, 4])
    def test_round_trip_over_all_patterns(self, n_fields):
        for pattern in all_patterns(n_fields):
            indicator = unspecified_to_pattern(pattern, n_fields)
            assert len(indicator) == n_fields
            assert set(indicator) <= {"1", "*"}
            assert pattern_to_unspecified(indicator, n_fields) == pattern

    @pytest.mark.parametrize("n_fields", [2, 3, 4])
    def test_round_trip_from_indicator_side(self, n_fields):
        for cells in itertools.product("1*", repeat=n_fields):
            indicator = "".join(cells)
            pattern = pattern_to_unspecified(indicator, n_fields)
            assert unspecified_to_pattern(pattern, n_fields) == indicator

    @pytest.mark.parametrize("n_fields", [2, 3, 4])
    def test_agrees_with_observed_pattern_of_query(self, n_fields):
        """The obs layer's canonical pattern of a live query converts to
        exactly the frozenset the analysis layer would sweep."""
        fs = FileSystem.of(*(2,) * n_fields, m=4)
        for pattern in all_patterns(n_fields):
            query = representative_query(fs, pattern)
            assert (
                pattern_to_unspecified(pattern_of_query(query), n_fields)
                == pattern
            )

    @given(st.lists(st.sampled_from("1*"), min_size=2, max_size=4))
    def test_property_round_trip(self, cells):
        indicator = "".join(cells)
        n_fields = len(indicator)
        pattern = pattern_to_unspecified(indicator, n_fields)
        assert pattern == frozenset(
            i for i, cell in enumerate(indicator) if cell == "*"
        )
        assert unspecified_to_pattern(pattern, n_fields) == indicator

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            pattern_to_unspecified("1*1", 4)

    def test_bad_character_rejected(self):
        with pytest.raises(AnalysisError):
            pattern_to_unspecified("1x1", 3)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(AnalysisError):
            unspecified_to_pattern(frozenset({3}), 3)


# ======================================================================
# Empirical query model
# ======================================================================
class TestEmpiricalQueryModel:
    def test_weights_normalised(self):
        model = EmpiricalQueryModel.from_counts({"1*": 3, "*1": 1}, 2)
        assert model.pattern_weight(frozenset({1}), 2) == pytest.approx(0.75)
        assert model.pattern_weight(frozenset({0}), 2) == pytest.approx(0.25)

    def test_unobserved_pattern_weighs_zero(self):
        model = EmpiricalQueryModel.from_counts({"1*": 1}, 2)
        assert model.pattern_weight(frozenset(), 2) == 0.0

    def test_patterns_enumerate_support_deterministically(self):
        model = _model(_fs())
        listed = list(model.patterns(4))
        assert listed == sorted(
            listed, key=lambda pattern: (len(pattern), sorted(pattern))
        )
        assert len(listed) == len(MIX)

    def test_zero_count_dropped(self):
        model = EmpiricalQueryModel.from_counts({"1*": 1, "*1": 0}, 2)
        assert list(model.patterns(2)) == [frozenset({1})]

    def test_empty_and_zero_total_rejected(self):
        with pytest.raises(AnalysisError):
            EmpiricalQueryModel({}, 2)
        with pytest.raises(AnalysisError):
            EmpiricalQueryModel.from_counts({"1*": 0}, 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(AnalysisError):
            EmpiricalQueryModel({frozenset({0}): -1.0}, 2)

    def test_field_count_mismatch_rejected(self):
        model = EmpiricalQueryModel.from_counts({"1*": 1}, 2)
        with pytest.raises(AnalysisError):
            model.pattern_weight(frozenset({0}), 3)
        with pytest.raises(AnalysisError):
            list(model.patterns(3))

    def test_frequencies_round_trip(self):
        model = _model(_fs())
        total = sum(MIX.values())
        assert model.frequencies() == {
            pattern: pytest.approx(count / total)
            for pattern, count in MIX.items()
        }

    def test_from_profile_single_tenant_and_pooled(self):
        profile = QueryMixProfile()
        profile.tenant("acme").record("1*", 3)
        profile.tenant("zeta").record("*1", 1)
        profile.observed = 4
        pooled = EmpiricalQueryModel.from_profile(profile, 2)
        assert pooled.pattern_weight(frozenset({1}), 2) == pytest.approx(0.75)
        acme = EmpiricalQueryModel.from_profile(profile, 2, tenant="acme")
        assert acme.pattern_weight(frozenset({1}), 2) == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            EmpiricalQueryModel.from_profile(profile, 2, tenant="nobody")

    def test_plugs_into_expected_load_factor(self):
        """The model= hook reproduces the hand-computed weighted sum."""
        fs = _fs()
        method = _baseline(fs)
        model = _model(fs)
        expected = sum(
            (count / 100) * pattern_load_factor(
                method, pattern_to_unspecified(indicator, 4)
            )
            for indicator, count in MIX.items()
        )
        assert expected_load_factor(method, model=model) == pytest.approx(
            expected
        )
        assert expected == pytest.approx(1.5)


# ======================================================================
# Mix scoring and the lower bound
# ======================================================================
class TestMixScore:
    def test_lower_bound_hand_computed(self):
        fs = _fs()
        # every observed pattern qualifies at most 8 of 16 devices' worth
        # of buckets, so each floor is ceil(q/16) = 1 and the bound is 1.
        assert mix_lower_bound(fs, _model(fs)) == pytest.approx(1.0)

    def test_lower_bound_with_large_patterns(self):
        fs = FileSystem.of(4, 4, m=4)
        model = EmpiricalQueryModel.from_counts({"**": 1, "1*": 1}, 2)
        # "**" qualifies 16 buckets -> floor 4; "1*" qualifies 4 -> floor 1
        assert mix_lower_bound(fs, model) == pytest.approx((4 + 1) / 2)

    def test_score_baseline_known_numbers(self):
        fs = _fs()
        score = score_method(_baseline(fs), _model(fs))
        assert score.expected_load_factor == pytest.approx(1.5)
        assert score.lower_bound == pytest.approx(1.0)
        assert score.gap == pytest.approx(1.5)
        assert score.optimal_weight == pytest.approx(0.5)

    def test_gap_never_below_one(self):
        fs = _fs()
        model = _model(fs)
        for combo in itertools.product(("I", "U", "IU1", "IU2"), repeat=2):
            method = FXDistribution(
                fs, transforms=["I", "U", combo[0], combo[1]]
            )
            assert score_method(method, model).gap >= 1.0 - 1e-12

    def test_independence_model_also_accepted(self):
        fs = _fs()
        score = score_method(_baseline(fs), IndependenceModel(0.5))
        assert score.expected_load_factor == pytest.approx(
            expected_load_factor(_baseline(fs), p=0.5)
        )


# ======================================================================
# Adaptive search
# ======================================================================
class TestAdaptiveSearch:
    def test_beats_uniform_baseline_on_skewed_mix(self):
        fs = _fs()
        plan = adaptive_transform_search(fs, _model(fs), baseline=_baseline(fs))
        assert plan.baseline.expected_load_factor == pytest.approx(1.5)
        assert plan.candidate.expected_load_factor == pytest.approx(1.0)
        assert plan.candidate.gap == pytest.approx(1.0)
        assert plan.worthwhile
        assert plan.improvement == pytest.approx(0.5)
        # exhaustive over 4 small fields: 4^4 assignments
        assert plan.evaluations == 256
        assert 0.0 < plan.moved_fraction <= 1.0

    def test_deterministic_per_seed(self):
        fs = _fs()
        first = adaptive_transform_search(
            fs, _model(fs), baseline=_baseline(fs), seed=3, linear_draws=4
        )
        second = adaptive_transform_search(
            fs, _model(fs), baseline=_baseline(fs), seed=3, linear_draws=4
        )
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_linear_draws_extend_the_search(self):
        fs = _fs()
        plan = adaptive_transform_search(
            fs, _model(fs), baseline=_baseline(fs), linear_draws=8
        )
        assert plan.evaluations == 256 + 8
        # the family optimum already hits the lower bound; random linear
        # candidates must not displace it
        assert plan.candidate.expected_load_factor == pytest.approx(1.0)

    def test_build_reconstructs_the_scored_method(self):
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        rebuilt = plan.build()
        assert expected_load_factor(rebuilt, model=model) == pytest.approx(
            plan.candidate.expected_load_factor
        )
        assert tuple(t.method for t in rebuilt.transforms) == (
            plan.candidate_names
        )

    def test_hill_climb_path_on_many_small_fields(self):
        fs = FileSystem.of(2, 2, 2, 2, 2, 2, 2, 2, 2, m=1024)
        model = EmpiricalQueryModel.from_counts(
            {"*" * 8 + "1": 3, "1" * 8 + "*": 1}, 9
        )
        plan = adaptive_transform_search(
            fs, model, baseline=FXDistribution(fs), restarts=2
        )
        assert plan.candidate.expected_load_factor <= (
            plan.baseline.expected_load_factor + 1e-12
        )

    def test_baseline_filesystem_mismatch_rejected(self):
        fs = _fs()
        other = FileSystem.of(4, 4, m=16)
        with pytest.raises(AnalysisError):
            adaptive_transform_search(
                fs, _model(fs), baseline=FXDistribution(other)
            )

    def test_negative_linear_draws_rejected(self):
        fs = _fs()
        with pytest.raises(ReproError):
            adaptive_transform_search(
                fs, _model(fs), baseline=_baseline(fs), linear_draws=-1
            )


# ======================================================================
# Crash-safe hot-swap
# ======================================================================
def _durable(records):
    durable = make_durable_file(
        "fx",
        fields=FIELDS,
        devices=DEVICES,
        replicate=False,
        transforms=list(UNIFORM_BEST),
    )
    durable.insert_all(records)
    return durable


class TestHotSwap:
    def test_swap_improves_and_verifies(self, telemetry_on):
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        durable = _durable(_records())
        report = apply_plan(durable, plan, model)
        assert report.verified
        assert report.content_preserved
        assert report.before.expected_load_factor == pytest.approx(1.5)
        assert report.after.expected_load_factor == pytest.approx(1.0)
        assert report.verified_queries == len(MIX)
        # the swapped file now answers by the candidate method
        assert durable.file.method.transform_methods() == tuple(
            t.effective_method for t in plan.transforms
        )
        durable.check_invariants()

    def test_every_moved_record_is_wal_audited(self, telemetry_on):
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        records = _records()
        durable = _durable(records)
        report = apply_plan(durable, plan, model)
        assert report.wal_moves == report.records_moved > 0
        entries, torn = durable.wal.scan()
        assert torn == 0
        moves = [e for e in entries if e.op == "move"]
        assert len(moves) == report.records_moved
        # moves log the records themselves, in multiset terms exactly the
        # subset that changed device
        assert {m.record for m in moves} <= {tuple(r) for r in records}

    def test_crash_mid_migration_recovers_pre_swap_content(
        self, telemetry_on
    ):
        """A crash partway through the bucket moves loses nothing: WAL
        replay (which skips moves — placement is method-derived) into a
        fresh file reproduces the pre-swap content digest exactly."""
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        records = _records()
        durable = _durable(records)
        pre_digest = content_digest_of(durable.file)
        durable.arm_crash(after_records=len(records) + 10)
        with pytest.raises(SimulatedCrashError):
            apply_plan(durable, plan, model, verify=False)
        fresh = PartitionedFile(
            FXDistribution(fs, transforms=list(UNIFORM_BEST))
        )
        report = recover(durable.wal, fresh)
        assert report.inserts == len(records)
        assert report.moves_skipped == 10
        assert content_digest_of(fresh) == pre_digest
        fresh.check_invariants()

    def test_crash_recovery_into_candidate_method_also_exact(
        self, telemetry_on
    ):
        """Recovery can equally rebuild directly onto the *target* method
        (the post-crash operator choice): same content, new placement."""
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        records = _records()
        durable = _durable(records)
        pre_digest = content_digest_of(durable.file)
        durable.arm_crash(after_records=len(records) + 5)
        with pytest.raises(SimulatedCrashError):
            apply_plan(durable, plan, model, verify=False)
        fresh = PartitionedFile(plan.build())
        recover(durable.wal, fresh)
        assert content_digest_of(fresh) == pre_digest
        fresh.check_invariants()

    def test_non_improving_plan_rejected_unless_forced(self, telemetry_on):
        fs = _fs()
        # a mix of exact-match queries: every assignment is optimal
        model = EmpiricalQueryModel.from_counts({"1111": 1}, 4)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        assert not plan.worthwhile
        durable = _durable(_records())
        with pytest.raises(AnalysisError):
            apply_plan(durable, plan, model)
        report = apply_plan(durable, plan, model, require_improvement=False)
        assert report.content_preserved

    def test_replicated_file_rejected(self, telemetry_on):
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        replicated = make_durable_file(
            "fx", fields=FIELDS, devices=DEVICES, replicate=True
        )
        with pytest.raises(AnalysisError):
            apply_plan(replicated, plan, model)

    def test_filesystem_mismatch_rejected(self, telemetry_on):
        fs = _fs()
        model = _model(fs)
        plan = adaptive_transform_search(fs, model, baseline=_baseline(fs))
        other = make_durable_file(
            "fx", fields=(4, 4), devices=16, replicate=False
        )
        with pytest.raises(AnalysisError):
            apply_plan(other, plan, model)

    def test_representative_queries_cover_the_support(self):
        fs = _fs()
        model = _model(fs)
        queries = representative_queries(fs, model)
        assert len(queries) == len(MIX)
        assert {pattern_of_query(q) for q in queries} == set(MIX)


# ======================================================================
# Offline profile feed
# ======================================================================
class TestLoadProfile:
    def test_profile_document(self, tmp_path):
        profile = QueryMixProfile()
        profile.tenant("acme").record("1*", 2)
        profile.observed = 2
        path = tmp_path / "profile.json"
        path.write_text(profile.to_json(), encoding="utf-8")
        loaded = load_profile(str(path))
        assert loaded.tenant("acme").patterns == {"1*": 2}

    def test_jsonl_export(self, tmp_path):
        lines = [
            json.dumps(
                {
                    "type": "span", "id": 1, "trace": 1, "parent": None,
                    "name": "query.execute",
                    "attrs": {"query": "<1, *>"},
                }
            ),
            json.dumps({"type": "metrics"}),
        ]
        path = tmp_path / "export.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_profile(str(path))
        assert loaded.observed == 1
        assert loaded.tenant("").patterns == {"1*": 1}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_profile(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(AnalysisError):
            load_profile(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "{oops",
            '{"v":1,"type":"profile","observed":0,"tenants":[]}',
            '{"v":1,"type":"profile","observed":0,"tenants":{"a":3}}',
            '{"v":1,"type":"profile","observed":0,'
            '"tenants":{"a":{"patterns":[1]}}}',
            '{"type":"span","id":1,"trace":1,"attrs":[]}',
            '{"type":"span","id":[1],"trace":1,"parent":null}',
            "[" * 100_000,
        ],
        ids=[
            "syntax",
            "tenants-list",
            "tenant-int",
            "patterns-list",
            "span-attrs-list",
            "span-id-list",
            "deep-nesting",
        ],
    )
    def test_malformed_document_fails_typed(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ReproError):
            load_profile(str(path))
        with pytest.raises(SystemExit) as exited:
            main(["adapt", "score", *CLI_BASE, "--profile", str(path)])
        assert exited.value.code == 2

    def test_non_utf8_file_fails_typed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"v": 1, "type": "\xff"}\n')
        with pytest.raises(AnalysisError):
            load_profile(str(path))


#: JSON values that nest, for fuzzing the profile parser.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
#: Profile documents close to well-formed: every field a valid value or
#: an arbitrary JSON value.
_NEAR_PROFILE = st.fixed_dictionaries(
    {
        "v": st.just(1) | _JSON,
        "type": st.just("profile") | _JSON,
        "observed": st.integers(-1, 9) | _JSON,
        "tenants": st.dictionaries(
            st.text(max_size=4),
            st.fixed_dictionaries(
                {
                    "patterns": st.dictionaries(
                        st.text(alphabet="1*x", max_size=4),
                        st.integers(-1, 9) | _JSON,
                        max_size=3,
                    )
                    | _JSON
                }
            )
            | _JSON,
            max_size=3,
        )
        | _JSON,
    }
)


class TestProfileFuzz:
    """The profile parsers return a profile or raise typed errors only."""

    @given(st.text(max_size=80) | _JSON.map(json.dumps))
    def test_from_json_on_arbitrary_text(self, text):
        try:
            QueryMixProfile.from_json(text)
        except ReproError:
            pass

    @given(_NEAR_PROFILE)
    def test_from_json_on_near_profiles(self, document):
        try:
            profile = QueryMixProfile.from_json(json.dumps(document))
        except ReproError:
            return
        assert profile.observed == sum(
            tenant.queries for tenant in profile.tenants.values()
        )

    @given(
        st.lists(
            _NEAR_PROFILE.map(json.dumps)
            | _JSON.map(json.dumps)
            | st.fixed_dictionaries(
                {"type": st.just("span"), "id": _JSON, "trace": _JSON,
                 "parent": _JSON, "name": _JSON, "attrs": _JSON}
            ).map(json.dumps)
            | st.text(max_size=40),
            min_size=1,
            max_size=4,
        )
    )
    def test_load_profile_on_arbitrary_files(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("fuzz") / "profile.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            load_profile(str(path))
        except ReproError:
            pass


# ======================================================================
# CLI
# ======================================================================
MIX_ARG = ",".join(f"{pattern}={count}" for pattern, count in MIX.items())
CLI_BASE = ["--fields", "2,2,2,2", "--devices", "16"]


class TestAdaptCli:
    def test_score(self, capsys):
        assert main(["adapt", "score", *CLI_BASE, "--mix", MIX_ARG]) == 0
        out = capsys.readouterr().out
        assert "E[load factor]" in out
        assert "1.5000" in out

    def test_score_json(self, capsys):
        assert (
            main(["adapt", "score", *CLI_BASE, "--mix", MIX_ARG, "--json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["score"]["expected_load_factor"] == pytest.approx(1.5)
        assert data["score"]["gap"] == pytest.approx(1.5)

    def test_plan_finds_improvement(self, capsys):
        assert main(["adapt", "plan", *CLI_BASE, "--mix", MIX_ARG]) == 0
        out = capsys.readouterr().out
        assert "1.5000 -> 1.0000" in out

    def test_plan_json_deterministic(self, capsys):
        assert (
            main(["adapt", "plan", *CLI_BASE, "--mix", MIX_ARG, "--json"])
            == 0
        )
        first = capsys.readouterr().out
        assert (
            main(["adapt", "plan", *CLI_BASE, "--mix", MIX_ARG, "--json"])
            == 0
        )
        assert capsys.readouterr().out == first

    def test_plan_rc_one_when_nothing_improves(self, capsys):
        assert main(["adapt", "plan", *CLI_BASE, "--mix", "1111=5"]) == 1

    def test_apply_swaps_and_verifies(self, capsys):
        assert main(["adapt", "apply", *CLI_BASE, "--mix", MIX_ARG]) == 0
        out = capsys.readouterr().out
        assert "verified strict optimal from telemetry" in out

    def test_apply_json(self, capsys):
        assert (
            main(["adapt", "apply", *CLI_BASE, "--mix", MIX_ARG, "--json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["swap"]["verified"] is True
        assert data["swap"]["content_preserved"] is True
        assert data["swap"]["wal_moves"] == data["swap"]["records_moved"]

    def test_apply_rc_one_without_improvement(self, capsys):
        assert main(["adapt", "apply", *CLI_BASE, "--mix", "1111=5"]) == 1

    def test_profile_feed(self, tmp_path, capsys):
        profile = QueryMixProfile()
        for pattern, count in MIX.items():
            profile.tenant("acme").record(pattern, count)
        profile.observed = sum(MIX.values())
        path = tmp_path / "profile.json"
        path.write_text(profile.to_json(), encoding="utf-8")
        assert (
            main(
                [
                    "adapt", "plan", *CLI_BASE,
                    "--profile", str(path), "--tenant", "acme", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["worthwhile"] is True

    def test_mix_and_profile_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["adapt", "score", *CLI_BASE])
        path = tmp_path / "p.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(
                [
                    "adapt", "score", *CLI_BASE,
                    "--mix", "11=1", "--profile", str(path),
                ]
            )

    def test_malformed_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["adapt", "score", *CLI_BASE, "--mix", "***1"])
