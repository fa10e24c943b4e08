"""Seeded crash-injection campaign over the MapID journal.

The tier-1 test runs a small sweep (every site, a few times each); the
acceptance-scale campaign — 500 injections, the ISSUE criterion — is
``chaos``-marked and runs in the nightly job.
"""

from dataclasses import replace

import pytest

from repro.core.journal import CRASH_SITES, MIGRATE_CRASH_SITES
from repro.dram.config import TINY_ORG
from repro.kvcache import KV_CRASH_SITES
from repro.serving.crashes import run_crash_campaign


def assert_clean(report):
    assert report.verifier_findings == 0
    assert report.refcount_mismatches == 0
    assert report.area_mismatches == 0
    assert report.crc_mismatches == 0
    assert report.leaked_map_ids == 0
    assert report.final_clean
    assert report.failures == []
    assert report.ok


class TestSmallCampaign:
    def test_thirty_injections_recover_clean(self):
        report = run_crash_campaign(n_injections=30, seed=0)
        assert report.n_injections == 30
        # the sweep cycles sites evenly: 30 = 3 full laps of all 10
        assert report.crashes_by_site == {site: 3 for site in CRASH_SITES}
        assert report.rolled_back + report.rolled_forward + report.no_ops > 0
        assert_clean(report)

    def test_campaign_is_reproducible(self):
        a = run_crash_campaign(n_injections=20, seed=7)
        b = run_crash_campaign(n_injections=20, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_report_dict_shape(self):
        report = run_crash_campaign(n_injections=10, seed=1)
        d = report.to_dict()
        assert d["ok"] is True
        assert d["n_injections"] == 10
        assert sum(d["crashes_by_site"].values()) == 10
        assert "final clean" in report.render()

    def test_rejects_nonpositive_injections(self):
        with pytest.raises(ValueError, match="positive"):
            run_crash_campaign(n_injections=0)

    def test_a_crash_that_never_fired_fails_the_campaign(self):
        """On one channel, toggling the PU order yields the same mapping,
        so a phase switch returns before its first checkpoint and no
        switch crash fires.  Every audit counter stays clean; the logged
        failures alone must fail the campaign."""
        org = replace(TINY_ORG, n_channels=1)
        report = run_crash_campaign(n_injections=10, seed=0, org=org)
        assert report.n_injections == 5
        assert report.failures == [
            f"injection {i} site {site}: armed crash never fired"
            for i, site in enumerate(CRASH_SITES[5:10], start=5)
        ]
        assert report.verifier_findings == report.refcount_mismatches == 0
        assert report.final_clean
        assert not report.ok
        assert report.to_dict()["ok"] is False
        assert "verdict         : FAIL" in report.render()


class TestKvCampaign:
    def test_kv_injections_sweep_every_pool_site(self):
        report = run_crash_campaign(n_injections=10, seed=0, kv_injections=8)
        assert report.kv_injections == 8
        assert report.kv_crashes_by_site == {site: 2 for site in KV_CRASH_SITES}
        assert (
            report.kv_rolled_back + report.kv_rolled_forward + report.kv_no_ops == 8
        )
        assert report.kv_leaked_refcounts == 0
        assert report.kv_audit_failures == 0
        assert report.kv_final_clean
        assert_clean(report)

    def test_kv_campaign_does_not_perturb_mapid_campaign(self):
        """The KV sweep uses its own journal, injector, and rng stream:
        the MapID-side counters must be byte-identical with it on/off."""
        plain = run_crash_campaign(n_injections=20, seed=5)
        with_kv = run_crash_campaign(n_injections=20, seed=5, kv_injections=12)
        assert with_kv.crashes_by_site == plain.crashes_by_site
        assert with_kv.rolled_back == plain.rolled_back
        assert with_kv.rolled_forward == plain.rolled_forward
        assert with_kv.no_ops == plain.no_ops

    def test_kv_campaign_reproducible(self):
        a = run_crash_campaign(n_injections=10, seed=2, kv_injections=16)
        b = run_crash_campaign(n_injections=10, seed=2, kv_injections=16)
        assert a.to_dict() == b.to_dict()

    def test_kv_report_shape(self):
        report = run_crash_campaign(n_injections=4, seed=0, kv_injections=4)
        d = report.to_dict()
        assert d["kv_injections"] == 4
        assert sum(d["kv_crashes_by_site"].values()) == 4
        assert "kv final clean" in report.render()

    def test_rejects_negative_kv_injections(self):
        with pytest.raises(ValueError, match="kv_injections"):
            run_crash_campaign(n_injections=4, kv_injections=-1)


class TestMigrationCampaign:
    def test_migration_sweep_every_site_never_torn(self):
        # one full lap of the two-phase MIGRATE checkpoints: recovery
        # lands entirely old or entirely new, audited page by page
        report = run_crash_campaign(migration_injections=7, seed=3)
        assert report.migration_injections == 7
        assert report.migration_crashes_by_site == {
            site: 1 for site in MIGRATE_CRASH_SITES
        }
        assert report.migration_rolled_back + report.migration_rolled_forward == 7
        assert report.torn_mappings == 0
        assert report.migration_audit_failures == 0
        assert report.migration_final_clean
        assert "torn mappings" in report.render()
        assert_clean(report)

    def test_migration_campaign_reproducible(self):
        a = run_crash_campaign(migration_injections=2, seed=9)
        b = run_crash_campaign(migration_injections=2, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_migration_campaign_does_not_perturb_base_or_kv(self):
        """The migration sweep seeds its own arena, injector, and rng
        (seed + 2): the other campaigns stay byte-identical with it on."""
        plain = run_crash_campaign(n_injections=10, seed=5, kv_injections=4)
        mixed = run_crash_campaign(
            n_injections=10, seed=5, kv_injections=4, migration_injections=2
        )
        assert mixed.crashes_by_site == plain.crashes_by_site
        assert mixed.rolled_back == plain.rolled_back
        assert mixed.rolled_forward == plain.rolled_forward
        assert mixed.kv_crashes_by_site == plain.kv_crashes_by_site

    def test_rejects_negative_migration_injections(self):
        with pytest.raises(ValueError, match="migration_injections"):
            run_crash_campaign(n_injections=4, migration_injections=-1)


@pytest.mark.chaos
class TestAcceptanceCampaign:
    def test_five_hundred_injections_recover_clean(self):
        # the ISSUE acceptance criterion: >= 500 seeded crash injections
        # across alloc / free / phase-switch, zero verifier errors, zero
        # leaked MapIDs, pristine final state
        report = run_crash_campaign(n_injections=500, seed=0)
        assert report.n_injections == 500
        assert all(report.crashes_by_site[site] == 50 for site in CRASH_SITES)
        assert_clean(report)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clean_across_seeds(self, seed):
        assert_clean(run_crash_campaign(n_injections=100, seed=seed))

    def test_five_hundred_migration_injections_never_torn(self):
        # the PR 6 acceptance criterion: >= 500 seeded crash injections
        # across every two-phase MIGRATE site, zero torn mappings, zero
        # audit findings, pristine final arena
        report = run_crash_campaign(migration_injections=500, seed=0)
        assert report.migration_injections == 500
        assert all(
            report.migration_crashes_by_site[site] >= 71
            for site in MIGRATE_CRASH_SITES
        )
        assert (
            report.migration_rolled_back + report.migration_rolled_forward
            == 500
        )
        assert report.torn_mappings == 0
        assert report.migration_audit_failures == 0
        assert report.migration_final_clean
        assert_clean(report)

    def test_five_hundred_kv_injections_zero_leaked_refcounts(self):
        # the PR 4 acceptance criterion: 500 seeded crash injections
        # through the KV block pool's journal, zero leaked refcounts
        report = run_crash_campaign(n_injections=10, seed=0, kv_injections=500)
        assert report.kv_injections == 500
        assert report.kv_crashes_by_site == {
            site: 125 for site in KV_CRASH_SITES
        }
        assert report.kv_leaked_refcounts == 0
        assert report.kv_audit_failures == 0
        assert report.kv_final_clean
        assert_clean(report)
