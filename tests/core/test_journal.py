"""MapID journal: transaction API, per-site crash recovery, idempotence.

The journal's contract is that a crash at *any* announced site recovers
to the state of some crash-free history: allocations roll back to
nothing, frees and phase switches roll forward to completion (a switch
that never registered its new mapping rolls back instead).  The broad
seeded sweep lives in ``tests/serving/test_crashes.py``; this module
pins down each mechanism on hand-built states.
"""

import pytest

from repro.core.journal import CRASH_SITES, InjectedCrash, MapJournal, recover
from repro.core.mapping import Field, pim_optimized_mapping
from repro.core.pimalloc import PimSystem
from repro.core.selector import MatrixConfig
from repro.pim.config import aim_config_for
from repro.reliability.campaign import TINY_CAMPAIGN_ORG
from repro.reliability.faults import FaultInjector

MATRIX = MatrixConfig(rows=16, cols=256, dtype_bytes=2)


@pytest.fixture
def system():
    org = TINY_CAMPAIGN_ORG
    return PimSystem.build(org, aim_config_for(org), functional=True, journal=True)


@pytest.fixture
def injector(system):
    injector = FaultInjector(seed=0).attach(system)
    yield injector
    injector.detach()


def crash_at(system, injector, site, operation):
    injector.schedule_crash(site)
    with pytest.raises(InjectedCrash) as exc_info:
        operation()
    assert exc_info.value.site == site
    return system.recover()


class TestJournalApi:
    def test_begin_step_commit_lifecycle(self):
        journal = MapJournal()
        txn = journal.begin("alloc", nbytes=4096)
        journal.step(txn, "registered", map_id=3)
        assert txn.step_names() == ["registered"]
        assert txn.find_step("registered") == {"map_id": 3}
        assert journal.uncommitted() == [txn]
        journal.commit(txn)
        assert journal.uncommitted() == []

    def test_step_after_commit_raises(self):
        journal = MapJournal()
        txn = journal.begin("free", va=0)
        journal.commit(txn)
        with pytest.raises(ValueError, match="committed"):
            journal.step(txn, "unmapped")

    def test_truncate_committed_compacts(self):
        journal = MapJournal()
        done = journal.begin("alloc")
        journal.commit(done)
        open_txn = journal.begin("free", va=0)
        assert journal.truncate_committed() == 1
        assert journal.transactions() == [open_txn]

    def test_recover_without_journal_raises(self):
        org = TINY_CAMPAIGN_ORG
        plain = PimSystem.build(org, aim_config_for(org), functional=True)
        with pytest.raises(ValueError, match="journal"):
            recover(plain.allocator)


class TestAllocRollsBack:
    @pytest.mark.parametrize(
        "site", [s for s in CRASH_SITES if s.startswith("alloc:")]
    )
    def test_crashed_alloc_leaves_no_trace(self, system, injector, site):
        report = crash_at(
            system, injector, site, lambda: system.pimalloc(MATRIX)
        )
        assert len(report.actions) == 1
        assert report.actions[0].resolution in ("rolled-back", "no-op")
        # pristine: no mapped areas, only the conventional mapping
        assert not system.space.areas
        assert system.controller.table.refcounts() == {0: 1}

    def test_interrupted_alloc_releases_its_map_id(self, system, injector):
        report = crash_at(
            system,
            injector,
            "alloc:mapped",
            lambda: system.pimalloc(MATRIX),
        )
        action = report.actions[0]
        assert action.resolution == "rolled-back"
        assert "released_map_id" in action.detail
        assert "unmapped_va" in action.detail


class TestFreeRollsForward:
    @pytest.mark.parametrize(
        "site", [s for s in CRASH_SITES if s.startswith("free:")]
    )
    def test_crashed_free_completes(self, system, injector, site):
        tensor = system.pimalloc(MATRIX)
        report = crash_at(system, injector, site, tensor.free)
        action = report.actions[0]
        assert action.resolution in ("rolled-forward", "no-op")
        assert not system.space.areas
        assert system.controller.table.refcounts() == {0: 1}


class TestSwitchRecovers:
    def test_crash_before_registration_rolls_back(self, system, injector):
        tensor = system.pimalloc(MATRIX)
        old_map_id = tensor.map_id
        report = crash_at(
            system,
            injector,
            "switch:staged",
            lambda: system.allocator.switch_mapping(tensor),
        )
        action = report.actions[0]
        assert action.resolution == "rolled-back"
        assert action.detail["kept_map_id"] == old_map_id
        # region still translates through the old mapping; staging gone
        assert set(system.space.areas) == {tensor.va}
        assert system.controller.table.refcounts() == {0: 1, old_map_id: 1}

    @pytest.mark.parametrize("site", ["switch:pte", "switch:rewritten"])
    def test_crash_after_registration_rolls_forward(self, system, injector, site):
        tensor = system.pimalloc(MATRIX)
        old_map_id = tensor.map_id
        report = crash_at(
            system,
            injector,
            site,
            lambda: system.allocator.switch_mapping(tensor),
        )
        action = report.actions[0]
        assert action.resolution == "rolled-forward"
        new_map_id = action.detail["new_map_id"]
        assert new_map_id != old_map_id
        # the switch completed: old reference released, new one live
        assert system.controller.table.refcounts() == {0: 1, new_map_id: 1}
        assert set(system.space.areas) == {tensor.va}

    def test_rolled_forward_switch_preserves_bytes(self, system, injector):
        import numpy as np

        tensor = system.pimalloc(MATRIX)
        data = np.arange(MATRIX.rows * MATRIX.cols, dtype=np.uint16).reshape(
            MATRIX.rows, MATRIX.cols
        )
        tensor.store(data)
        report = crash_at(
            system,
            injector,
            "switch:pte",
            lambda: system.allocator.switch_mapping(tensor),
        )
        new_map_id = report.actions[0].detail["new_map_id"]
        tensor.map_id = new_map_id
        tensor.mapping = system.controller.table[new_map_id]
        assert np.array_equal(tensor.load(np.uint16), data)


class TestIdempotence:
    def test_recovering_twice_is_a_noop(self, system, injector):
        tensor = system.pimalloc(MATRIX)
        crash_at(system, injector, "free:unmapped", tensor.free)
        second = system.recover()
        assert second.actions == []

    def test_committed_transactions_are_untouched(self, system):
        tensor = system.pimalloc(MATRIX)
        tensor.free()
        report = system.recover()
        assert report.actions == []
        assert system.journal.uncommitted() == []


class TestRejectedCallsLeaveTheJournalClean:
    def test_double_free_journals_nothing(self, system):
        tensor = system.pimalloc(MATRIX)
        tensor.free()
        before = len(system.journal)
        with pytest.raises(ValueError, match="not the start of a mapped area"):
            tensor.free()
        assert len(system.journal) == before
        assert system.journal.uncommitted() == []
        assert system.recover().actions == []
        assert len(system.controller.table) == 1

    def test_pimalloc_into_a_full_table_commits_a_noop(self, system):
        wanted = system.pimalloc(MATRIX)
        target = wanted.mapping.fields
        wanted.free()
        table = system.controller.table
        # fill every slot with PIM mappings the matrix does not use
        for map_id in range(1, 11):
            for pu_order in (
                (Field.BANK, Field.RANK, Field.CHANNEL),
                (Field.CHANNEL, Field.RANK, Field.BANK),
            ):
                mapping = pim_optimized_mapping(
                    system.org, system.pim.chunk_rows, system.pim.chunk_cols,
                    system.pim.dtype_bytes, map_id, 21, pu_order=pu_order,
                )
                if len(table) < 16 and mapping.fields != target:
                    table.register(mapping)
        assert len(table) == 16
        live = list(table.entries())
        with pytest.raises(ValueError, match="mapping table full"):
            system.pimalloc(MATRIX)
        last = system.journal.transactions()[-1]
        assert (last.op, last.steps, last.committed) == ("alloc", [], True)
        assert system.journal.uncommitted() == []
        assert list(table.entries()) == live
        assert system.recover().actions == []
