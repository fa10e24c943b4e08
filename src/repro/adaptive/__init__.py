"""Online adaptive remapping: the MappingAdvisor graduated to actuation.

PR 5 left the DReAM-spirit :class:`~repro.telemetry.advisor.MappingAdvisor`
in shadow mode: it watched access streams and reported disagreements with
the static selector, but nothing acted on them.  This package closes the
loop (ROADMAP item 3) under serving traffic, with every safeguard the
robustness bar demands:

* :class:`~repro.adaptive.arena.AdaptiveArena` — a real, functional,
  journaled :class:`~repro.core.pimalloc.PimSystem` holding the hot
  weight arena whose pages the controller migrates.  Migrations are
  two-phase MIGRATE journal transactions
  (:meth:`~repro.core.pimalloc.PimAllocator.migrate_pages`), so a crash
  at any of the ``migrate:*`` sites recovers to entirely-old or
  entirely-new — never torn.
* :class:`~repro.adaptive.controller.AdaptiveController` — the
  sliding-window cost/benefit state machine (WATCHING → CANARY →
  COOLDOWN).  It diffs the advisor's shadow counters per decision
  window, prices a full-arena migration with
  :func:`~repro.core.relayout.relayout_cost_ns`, and only acts when the
  projected PU-crossing savings clear a hysteresis multiple of that
  cost.  Every migration starts as a **canary** on a bounded page
  subset; observed TTFT against the pre-migration baseline decides
  promotion or automatic rollback.  A cooldown and a global migration
  budget prevent flapping.

Rule ``AD003`` audits actuation: after every committed migration the new
mapping must pass the static verifier (MV001–MV012) and the arena's
CRC/refcount audit.  Unlike AD001/AD002 this rule guards a mapping that
is actually **live** — a failure means serving traffic is translating
through a bad mapping, not that advice was questionable.
"""

from __future__ import annotations

from typing import Dict

from repro.adaptive.arena import ADAPTIVE_ARENA_ORG, AdaptiveArena
from repro.adaptive.controller import (
    AdaptiveConfig,
    AdaptiveController,
    MigrationEvent,
)
from repro.analysis.findings import register_rules

__all__ = [
    "ADAPTIVE_ARENA_ORG",
    "ADAPTIVE_RULES",
    "AdaptiveArena",
    "AdaptiveConfig",
    "AdaptiveController",
    "MigrationEvent",
]

ADAPTIVE_RULES: Dict[str, str] = {
    "AD003": "a committed adaptive migration must leave a live mapping "
             "that passes the static verifier (MV001-MV012) and the "
             "arena CRC/refcount audit",
}
register_rules(ADAPTIVE_RULES)
