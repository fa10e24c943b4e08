"""Replay-diff oracle: barrier cadence, divergence localization, the
RD rules on synthetic runs, and the serving runtime staying identical
with a recorder attached."""

import random

import pytest

from repro.analysis.replay import (
    BarrierRecorder,
    replay_diff,
    state_hash,
)
from repro.serving import ServingConfig, ServingRuntime


class TestStateHash:
    def test_stable_across_calls(self):
        assert state_hash((1, "a", 2.5)) == state_hash((1, "a", 2.5))

    def test_sensitive_to_value(self):
        assert state_hash([1, 2]) != state_hash([1, 3])

    def test_short_hex(self):
        digest = state_hash("x")
        assert len(digest) == 16
        int(digest, 16)


class TestBarrierRecorder:
    def test_snaps_once_per_epoch(self):
        rec = BarrierRecorder(every=16)
        snapped = [pos for pos in range(40)
                   if rec.observe(pos, lambda: {"n": 1})]
        assert snapped == [0, 16, 32]
        assert [b.label for b in rec.barriers] == [
            "epoch-0", "epoch-1", "epoch-2"
        ]

    def test_state_fn_is_lazy(self):
        rec = BarrierRecorder(every=8)
        calls = []

        def state():
            calls.append(1)
            return {"n": 1}

        for pos in range(24):
            rec.observe(pos, state)
        assert len(calls) == 3  # hashed only at epoch crossings

    def test_components_sorted_by_name(self):
        rec = BarrierRecorder()
        barrier = rec.snap("final", 9, {"z": 1, "a": 2})
        assert [name for name, _ in barrier.components] == ["a", "z"]

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError, match="positive"):
            BarrierRecorder(every=0)


def _deterministic_run(rec):
    rng = random.Random(7)
    acc = []
    for i in range(40):
        acc.append(rng.random())
        rec.observe(i, lambda: {"rng": rng.getstate(), "n": len(acc)})
    rec.snap("final", 40, {"sum": sum(acc)})
    return sum(acc)


class TestReplayDiff:
    def test_deterministic_run_is_ok(self):
        report = replay_diff(_deterministic_run, every=8,
                             final_hash=state_hash)
        assert report.ok
        assert report.barriers == 6  # epochs 0..4 plus the final snap
        assert report.result == pytest.approx(_deterministic_run(
            BarrierRecorder()))
        assert "OK (6 barriers identical)" in report.render()

    def test_rd001_names_first_diverging_barrier(self):
        calls = {"n": 0}

        def run(rec):
            calls["n"] += 1
            salt = calls["n"]
            for i in range(40):
                # runs agree until position 20, then drift apart
                v = i if i < 20 else i * salt
                rec.observe(i, lambda v=v: {"v": v})
            return salt

        report = replay_diff(run, every=8)
        assert not report.ok
        assert [f.rule_id for f in report.findings] == ["RD001"]
        finding = report.findings[0]
        # positions 0,8,16 agree; 24 is the first diverging barrier
        assert "barrier 3" in finding.message
        assert "position 24" in finding.message
        assert "v" in finding.message
        assert "DIVERGED" in report.render()

    def test_rd001_on_barrier_count_mismatch(self):
        calls = {"n": 0}

        def run(rec):
            calls["n"] += 1
            rec.snap("only", 0, {"fixed": 1})
            if calls["n"] == 2:
                rec.snap("extra", 1, {"fixed": 1})
            return None

        report = replay_diff(run)
        assert [f.rule_id for f in report.findings] == ["RD001"]
        assert "barrier counts" in report.findings[0].message

    def test_rd002_when_barriers_too_coarse(self):
        calls = {"n": 0}

        def run(rec):
            calls["n"] += 1
            rec.snap("only", 0, {"fixed": 1})
            return calls["n"]

        report = replay_diff(run, final_hash=state_hash)
        assert [f.rule_id for f in report.findings] == ["RD002"]
        assert "barriers matched" in report.findings[0].message

    def test_rd003_when_no_barriers_recorded(self):
        report = replay_diff(lambda rec: 1, final_hash=state_hash)
        assert not report.ok
        assert [f.rule_id for f in report.findings] == ["RD003"]
        assert "VACUOUS (0 barriers)" in report.render()

    def test_result_is_first_runs(self):
        calls = {"n": 0}

        def run(rec):
            calls["n"] += 1
            return calls["n"]

        assert replay_diff(run).result == 1


class TestServingBarriers:
    def test_recorder_does_not_perturb_the_run(self, iphone_engine,
                                               make_requests):
        """Barrier observation hashes state but must consume no
        randomness and advance no clocks: the serving report with a
        recorder attached is byte-identical to one without."""
        config = ServingConfig(seed=3)
        requests = make_requests(12)
        plain = ServingRuntime(iphone_engine, config).run(list(requests))
        rec = BarrierRecorder(every=4)
        recorded = ServingRuntime(
            iphone_engine, config, barriers=rec
        ).run(list(requests))
        assert recorded.to_json() == plain.to_json()
        assert len(rec.barriers) >= 2  # periodic epochs + the final snap
        assert rec.barriers[-1].label == "final"
        names = [name for name, _ in rec.barriers[0].components]
        assert "rng" in names and "outcomes" in names

    def test_legacy_loop_replays_identically(self, iphone_engine,
                                             make_requests):
        config = ServingConfig(seed=3)

        def run(rec):
            return ServingRuntime(
                iphone_engine, config, barriers=rec
            ).run(make_requests(12))

        report = replay_diff(
            run, every=4, final_hash=lambda r: state_hash(r.to_json())
        )
        assert report.ok
        assert report.barriers >= 2

    def test_kv_loop_replays_identically(self, iphone_engine,
                                         make_requests):
        config = ServingConfig(seed=3, kv_blocks=64)

        def run(rec):
            return ServingRuntime(
                iphone_engine, config, barriers=rec
            ).run(make_requests(12))

        report = replay_diff(
            run, every=4, final_hash=lambda r: state_hash(r.to_json())
        )
        assert report.ok
        assert report.barriers >= 2
