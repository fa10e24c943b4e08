"""The guarded online remapping controller (WATCHING → CANARY → COOLDOWN).

The controller is deliberately boring about *how* it decides and
paranoid about *when* it acts:

* **Recommendation** comes from the
  :class:`~repro.telemetry.advisor.MappingAdvisor`'s shadow counters,
  diffed over a sliding window so stale history cannot pin a stale
  MapID.  The windowed score adds a small interleave regularizer
  (``k * samples``) to the advisor's raw PU-crossing counts: crossings
  alone fall monotonically in the MapID, and without the regularizer
  the advisor would always drift to the largest candidate even when the
  traffic never needs it.
* **Cost/benefit** prices the projected PIM-phase savings of moving the
  whole arena to the recommended MapID (the same penalty model the
  serving loop charges) against the full-arena
  :func:`~repro.core.relayout.relayout_cost_ns`; only a benefit
  clearing ``hysteresis`` times the cost triggers at all.
* **Canary**: a trigger never migrates the whole arena.  It migrates
  ``canary_fraction`` of the pages, snapshots the pre-migration page
  MapIDs, and watches ``canary_window`` requests.
  The health metric is the observed **PIM-phase slowdown** (penalized
  vs base PIM ns actually charged to the serving timeline) compared
  against the *counterfactual* slowdown of the same canary-window
  requests priced under the pre-migration page MapIDs — scale-free and
  composition-matched, so workload drift across the canary boundary
  can neither fake nor mask a breach — falling back to absolute
  service TTFT when a window carries no PIM work.  Staying within
  ``slo_margin`` of the counterfactual promotes (migrate
  the rest); anything worse — or a PIM circuit-breaker trip mid-canary,
  or a canary window with no served requests — rolls the canary pages
  back to the old MapID.  The forced-bad-advisor knob
  (``pinned_map_id``) models a wrong advisor asserting benefit: it
  bypasses the cost/benefit gate, and the canary is what catches it.
* **Flap damping**: every decision (promote or rollback) starts a
  cooldown during which nothing triggers, and a global
  ``max_migrations`` budget bounds the run.  Triggers are additionally
  gated on a healthy PIM breaker and no active brown-out.

Every migration is a journaled two-phase MIGRATE transaction on the
arena's real pages, and every committed one is audited by rule AD003
(static verifier + CRC/refcount reconciliation).  All decisions are
deterministic functions of the workload — the controller draws nothing
from the run's RNG, so a seeded serving run reproduces byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.adaptive.arena import AdaptiveArena
from repro.analysis.findings import LEVEL_ERROR, Finding
from repro.telemetry.advisor import MappingAdvisor, observe_matrix

__all__ = ["AdaptiveConfig", "AdaptiveController", "MigrationEvent"]

WATCHING = "watching"
CANARY = "canary"
COOLDOWN = "cooldown"

#: interleave regularizer weight per (MapID bit x sample) in the
#: windowed advisor score
INTERLEAVE_WEIGHT = 1e-4


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning of one adaptive controller (see the module docstring)."""

    mode: str = "active"  # "static" observes but never migrates
    window_requests: int = 32
    canary_window: int = 16
    cooldown_requests: int = 64
    hysteresis: float = 2.0
    canary_fraction: float = 0.25
    max_migrations: int = 8
    #: PIM-phase slowdown per mean crossing-equivalent (the penalty
    #: model's scale; also used to project savings)
    penalty_coeff: float = 0.05
    #: canary verdict: observed PIM slowdown (or fallback TTFT) must
    #: stay within this fraction above the counterfactual baseline
    slo_margin: float = 0.10
    #: forced-bad-advisor knob: recommendation pinned to this MapID and
    #: the cost/benefit gate bypassed — the canary must catch it
    pinned_map_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("static", "active"):
            raise ValueError(f"mode must be 'static' or 'active', got {self.mode!r}")
        if self.window_requests <= 0 or self.canary_window <= 0:
            raise ValueError("window_requests and canary_window must be positive")
        if self.cooldown_requests < 0:
            raise ValueError("cooldown_requests must be >= 0")
        if self.hysteresis <= 0:
            raise ValueError("hysteresis must be positive")
        if not 0.0 < self.canary_fraction < 1.0:
            raise ValueError("canary_fraction must be in (0, 1)")
        if self.max_migrations < 0:
            raise ValueError("max_migrations must be >= 0")
        if self.penalty_coeff < 0 or self.slo_margin < 0:
            raise ValueError("penalty_coeff and slo_margin must be >= 0")


@dataclass(frozen=True)
class MigrationEvent:
    """One controller decision, for the report and the ledger."""

    t_ns: float
    kind: str  # "canary" | "promote" | "rollback"
    from_map_id: int
    to_map_id: int
    pages: int
    cost_ns: float
    baseline_ttft_ns: float = 0.0
    observed_ttft_ns: float = 0.0
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_ms": self.t_ns / 1e6,
            "kind": self.kind,
            "from_map_id": self.from_map_id,
            "to_map_id": self.to_map_id,
            "pages": self.pages,
            "cost_ms": self.cost_ns / 1e6,
            "baseline_ttft_ms": self.baseline_ttft_ns / 1e6,
            "observed_ttft_ms": self.observed_ttft_ns / 1e6,
            "reason": self.reason,
        }


@dataclass
class _Window:
    """Accumulators for one decision (or canary) window."""

    count: int = 0
    ttft_sum_ns: float = 0.0
    served: int = 0
    #: base (unpenalized) PIM-phase ns by the requests' ideal MapID —
    #: the demand profile the benefit projection prices
    pim_ns_by_k: Dict[int, float] = field(default_factory=dict)
    pim_healthy: bool = True
    #: realized (penalized) vs base PIM-phase ns of served requests —
    #: their ratio is the window's observed PIM slowdown, a scale-free
    #: health measure that survives workload drift across the canary
    #: boundary (absolute TTFT rises with longer prefills even under a
    #: perfect mapping; the slowdown ratio cancels that)
    pim_obs_sum_ns: float = 0.0
    pim_base_sum_ns: float = 0.0
    #: the same requests priced under the *pre-migration* page MapIDs —
    #: the canary verdict's counterfactual baseline.  Comparing the
    #: canary window against itself (rather than against the decision
    #: window) keeps the workload composition identical on both sides,
    #: so a drift from high-penalty to low-penalty traffic right at the
    #: trigger cannot inflate the baseline and mask a bad canary
    pim_cf_sum_ns: float = 0.0

    def add(self, k_req: int, served: bool, ttft_ns: float,
            pim_base_ns: float, pim_ok: bool,
            pim_obs_ns: Optional[float] = None,
            pim_cf_ns: Optional[float] = None) -> None:
        self.count += 1
        if served:
            self.served += 1
            self.ttft_sum_ns += ttft_ns
            if pim_base_ns > 0:
                self.pim_base_sum_ns += pim_base_ns
                self.pim_obs_sum_ns += (
                    pim_obs_ns if pim_obs_ns is not None else pim_base_ns
                )
                self.pim_cf_sum_ns += (
                    pim_cf_ns if pim_cf_ns is not None else pim_base_ns
                )
        if pim_base_ns > 0:
            self.pim_ns_by_k[k_req] = self.pim_ns_by_k.get(k_req, 0.0) + pim_base_ns
        if not pim_ok:
            self.pim_healthy = False

    @property
    def mean_ttft_ns(self) -> float:
        return self.ttft_sum_ns / self.served if self.served else 0.0

    @property
    def mean_slowdown(self) -> float:
        return (
            self.pim_obs_sum_ns / self.pim_base_sum_ns
            if self.pim_base_sum_ns > 0 else 0.0
        )

    @property
    def counterfactual_slowdown(self) -> float:
        return (
            self.pim_cf_sum_ns / self.pim_base_sum_ns
            if self.pim_base_sum_ns > 0 else 0.0
        )


class AdaptiveController:
    """Watch the advisor, migrate the arena — guarded every step."""

    def __init__(
        self,
        config: AdaptiveConfig,
        arena: Optional[AdaptiveArena] = None,
        telemetry: Optional[Any] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.arena = arena if arena is not None else AdaptiveArena(seed=seed)
        self.telemetry = telemetry
        metrics = telemetry.metrics if telemetry is not None else None
        self.advisor = MappingAdvisor(
            self.arena.org,
            self.arena.pim,
            huge_page_bytes=self.arena.huge_page_bytes,
            metrics=metrics,
            min_samples=1,
        )
        self.state = WATCHING
        self.events: List[MigrationEvent] = []
        self.findings: List[Finding] = []
        self.migrations_started = 0
        self.promotions = 0
        self.rollbacks = 0
        self._window = _Window()
        self._snapshot = self._advisor_snapshot()
        self._cooldown_left = 0
        self._canary_left = 0
        self._canary_pages = 0
        self._canary_from_k = 0
        self._canary_to_k = 0
        self._canary_before_page_k: List[int] = []
        self._baseline_ttft_ns = 0.0
        self._last_recommendation: Optional[int] = None
        #: MapID whose canary was rolled back: never re-canaried until a
        #: *different* recommendation clears it (flap damping beyond the
        #: cooldown — a wrong advisor pinned to one answer gets exactly
        #: one canary, not one per window)
        self._rejected_map_id: Optional[int] = None

    # -- serving-loop interface ----------------------------------------

    def ideal_map_id(self, prefill_tokens: int) -> int:
        return self.arena.ideal_map_id(prefill_tokens)

    def pim_multiplier(self, k_req: int) -> float:
        """PIM-phase slowdown for a request with ideal MapID *k_req*
        under the arena's current page MapIDs (1.0 = no penalty)."""
        return 1.0 + self.config.penalty_coeff * self.arena.mean_penalty(k_req)

    def tick(
        self,
        req_id: int,
        now_ns: float,
        k_req: int,
        served: bool,
        ttft_ns: float,
        pim_base_ns: float,
        pim_obs_ns: Optional[float] = None,
        pim_ok: bool = True,
        brownout: bool = False,
    ) -> float:
        """One serving round observed; returns the migration time (ns)
        to charge to the PIM timeline (0.0 almost always).

        *pim_base_ns* is the round's unpenalized PIM-phase time,
        *pim_obs_ns* the time actually charged (with the mapping-penalty
        multiplier); their window ratio is the canary health metric."""
        observe_matrix(
            self.advisor, self.arena.name, self.arena.hot_matrix(k_req), max_rows=4
        )
        pim_cf_ns: Optional[float] = None
        if self.state == CANARY and pim_base_ns > 0 and self._canary_before_page_k:
            # price this request under the pre-migration page MapIDs:
            # the verdict's counterfactual baseline (same requests on
            # both sides, so composition drift cannot mask a breach)
            mean_pen = sum(
                self.arena.penalty(k_req, k) for k in self._canary_before_page_k
            ) / len(self._canary_before_page_k)
            pim_cf_ns = pim_base_ns * (
                1.0 + self.config.penalty_coeff * mean_pen
            )
        self._window.add(k_req, served, ttft_ns, pim_base_ns, pim_ok,
                         pim_obs_ns=pim_obs_ns, pim_cf_ns=pim_cf_ns)

        if self.state == COOLDOWN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._reset_window()
                self.state = WATCHING
            return 0.0
        if self.state == CANARY:
            self._canary_left -= 1
            if self._canary_left <= 0:
                return self._canary_verdict(req_id, now_ns)
            return 0.0
        # WATCHING
        if self.config.mode != "active":
            if self._window.count >= self.config.window_requests:
                self._last_recommendation = self._windowed_recommendation()
                self._reset_window()
            return 0.0
        if self._window.count < self.config.window_requests:
            return 0.0
        return self._consider_trigger(req_id, now_ns, pim_ok, brownout)

    # -- windowed recommendation and benefit ---------------------------

    def _advisor_snapshot(self) -> Dict[str, Any]:
        rec = self.advisor.recommend(self.arena.name)
        return {
            "samples": rec.samples,
            "crossings": {c.map_id: c.pu_crossings for c in rec.counters},
        }

    def _windowed_recommendation(self) -> Optional[int]:
        """Smallest MapID minimizing this window's advisor score:
        windowed PU crossings plus the interleave regularizer."""
        now = self._advisor_snapshot()
        samples = now["samples"] - self._snapshot["samples"]
        if samples <= 0:
            return None
        old = self._snapshot["crossings"]
        best_k: Optional[int] = None
        best_score = float("inf")
        for k in sorted(now["crossings"]):
            if k > self.arena.max_map_id:
                continue
            crossings = now["crossings"][k] - old.get(k, 0)
            score = crossings + INTERLEAVE_WEIGHT * k * samples
            if score < best_score - 1e-12:
                best_score = score
                best_k = k
        return best_k

    def _projected_saving_ns(self, to_k: int) -> float:
        """PIM-phase ns the *observed window's* demand would have saved
        with every arena page at *to_k* — the benefit side of the model
        (one window's worth; steady drift repeats it every window)."""
        saving = 0.0
        for k_req, pim_ns in self._window.pim_ns_by_k.items():
            cur = self.arena.mean_penalty(k_req)
            new = self.arena.penalty(k_req, to_k)
            saving += pim_ns * self.config.penalty_coeff * (cur - new)
        return saving

    def _reset_window(self) -> None:
        self._window = _Window()
        self._snapshot = self._advisor_snapshot()

    # -- trigger / canary / verdict ------------------------------------

    def _consider_trigger(
        self, req_id: int, now_ns: float, pim_ok: bool, brownout: bool
    ) -> float:
        cfg = self.config
        rec = self._windowed_recommendation()
        self._last_recommendation = rec
        if cfg.pinned_map_id is not None:
            rec = cfg.pinned_map_id
        if rec is not None and rec != self._rejected_map_id:
            self._rejected_map_id = None  # fresh answer clears the block
        if (
            rec is None
            or rec > self.arena.max_map_id
            or rec == self._rejected_map_id
            or all(k == rec for k in self.arena.page_k)
            or self.migrations_started >= cfg.max_migrations
            or not pim_ok
            or brownout
            or not self._window.pim_healthy
        ):
            self._reset_window()
            return 0.0
        if cfg.pinned_map_id is None:
            saving = self._projected_saving_ns(rec)
            cost = self.arena.full_migration_cost_ns
            if saving <= cfg.hysteresis * cost:
                self._reset_window()
                return 0.0
            reason = f"saving {saving:.0f} ns > {cfg.hysteresis} x cost {cost:.0f} ns"
        else:
            reason = f"advisor pinned to MapID {rec}"

        pages = max(1, int(round(cfg.canary_fraction * self.arena.n_pages)))
        pages = min(pages, self.arena.n_pages - 1)  # never canary everything
        from_k = self.arena.page_k[0]
        cost_ns = self.arena.full_migration_cost_ns * pages / self.arena.n_pages
        self._canary_before_page_k = list(self.arena.page_k)
        self.arena.migrate(rec, page_start=0, page_count=pages)
        self._audit(f"canary to MapID {rec}", range(pages))
        self.migrations_started += 1
        self._baseline_ttft_ns = self._window.mean_ttft_ns
        self._canary_pages = pages
        self._canary_from_k = from_k
        self._canary_to_k = rec
        self._canary_left = cfg.canary_window
        self.state = CANARY
        self._record_event(
            req_id, now_ns, "canary", from_k, rec, pages, cost_ns, reason=reason
        )
        self._window = _Window()  # canary window accumulates fresh
        return cost_ns

    def _canary_verdict(self, req_id: int, now_ns: float) -> float:
        cfg = self.config
        observed = self._window.mean_ttft_ns
        baseline = self._baseline_ttft_ns
        observed_slow = self._window.mean_slowdown
        baseline_slow = self._window.counterfactual_slowdown
        healthy = self._window.pim_healthy and self._window.served > 0
        # prefer the counterfactual slowdown ratio: the canary window's
        # own requests priced under the pre-migration page MapIDs.  It
        # is scale-free AND composition-matched, so workload drift at
        # the trigger boundary can neither fake nor mask a breach.
        # Fall back to absolute TTFT when the window carried no PIM work
        # to normalize against.
        if baseline_slow > 0.0 and observed_slow > 0.0:
            within_slo = observed_slow <= baseline_slow * (1.0 + cfg.slo_margin)
            ok_reason = (
                f"canary PIM slowdown {observed_slow:.3f}x within baseline "
                f"{baseline_slow:.3f}x + {cfg.slo_margin:.0%}"
            )
            breach_reason = (
                f"canary PIM slowdown {observed_slow:.3f}x breached baseline "
                f"{baseline_slow:.3f}x + {cfg.slo_margin:.0%}"
            )
        else:
            within_slo = (
                baseline <= 0.0 or observed <= baseline * (1.0 + cfg.slo_margin)
            )
            ok_reason = "canary TTFT within SLO margin"
            breach_reason = (
                f"canary TTFT {observed / 1e6:.2f} ms breached baseline "
                f"{baseline / 1e6:.2f} ms + {cfg.slo_margin:.0%}"
            )
        pages = self.arena.n_pages
        if healthy and within_slo:
            remaining = pages - self._canary_pages
            cost_ns = self.arena.full_migration_cost_ns * remaining / pages
            if remaining:
                self.arena.migrate(
                    self._canary_to_k,
                    page_start=self._canary_pages,
                    page_count=remaining,
                )
            self._audit(
                f"promotion to MapID {self._canary_to_k}",
                range(self._canary_pages, self.arena.n_pages),
            )
            self.promotions += 1
            self._record_event(
                req_id, now_ns, "promote", self._canary_from_k,
                self._canary_to_k, remaining, cost_ns,
                baseline_ttft_ns=baseline, observed_ttft_ns=observed,
                reason=ok_reason,
            )
        else:
            cost_ns = self.arena.full_migration_cost_ns * self._canary_pages / pages
            self.arena.migrate(
                self._canary_from_k, page_start=0, page_count=self._canary_pages
            )
            self._audit(
                f"rollback to MapID {self._canary_from_k}",
                range(self._canary_pages),
            )
            self.rollbacks += 1
            self._rejected_map_id = self._canary_to_k
            reason = (
                "no served requests in canary window" if self._window.served == 0
                else "PIM breaker tripped during canary" if not self._window.pim_healthy
                else breach_reason
            )
            self._record_event(
                req_id, now_ns, "rollback", self._canary_to_k,
                self._canary_from_k, self._canary_pages, cost_ns,
                baseline_ttft_ns=baseline, observed_ttft_ns=observed,
                reason=reason,
            )
        self.state = COOLDOWN
        self._cooldown_left = cfg.cooldown_requests
        self._reset_window()
        return cost_ns

    def abort_canary(self, req_id: int, now_ns: float, reason: str = "") -> float:
        """Roll back an in-flight canary unconditionally (no verdict).

        The administrative counterpart of a breached canary: a device
        being drained or quarantined must not park its arena half-way
        between MapIDs, so the migrated prefix returns to the
        pre-canary MapID, the audit (AD003) runs over those pages, and
        the controller cools down exactly as after a rollback.  The
        aborted target MapID is *not* flap-damped — the canary was
        innocent; the same recommendation may retry once the device is
        back.  Returns the rollback migration cost (ns); 0.0 when no
        canary was in flight (the call is idempotent).
        """
        if self.state != CANARY:
            return 0.0
        pages = self.arena.n_pages
        cost_ns = self.arena.full_migration_cost_ns * self._canary_pages / pages
        self.arena.migrate(
            self._canary_from_k, page_start=0, page_count=self._canary_pages
        )
        self._audit(
            f"aborted canary back to MapID {self._canary_from_k}",
            range(self._canary_pages),
        )
        self.rollbacks += 1
        self._record_event(
            req_id, now_ns, "rollback", self._canary_to_k,
            self._canary_from_k, self._canary_pages, cost_ns,
            baseline_ttft_ns=self._baseline_ttft_ns,
            observed_ttft_ns=self._window.mean_ttft_ns,
            reason=reason or "canary aborted",
        )
        self.state = COOLDOWN
        self._cooldown_left = self.config.cooldown_requests
        self._reset_window()
        return cost_ns

    # -- audit, telemetry, report --------------------------------------

    def _audit(self, context: str, pages=None) -> None:
        """Rule AD003: a committed migration must leave a verifiably
        sound live mapping.  *pages* bounds the CRC read to the huge
        pages the migration touched (structural checks stay global)."""
        problems = self.arena.verify(pages=pages)
        if not problems:
            return
        finding = Finding(
            rule_id="AD003",
            level=LEVEL_ERROR,
            message=f"post-migration audit failed after {context}",
            location=self.arena.name,
            detail="; ".join(problems),
        )
        self.findings.append(finding)
        if self.telemetry is not None:
            self.telemetry.findings.append(finding)

    def _record_event(
        self,
        req_id: int,
        now_ns: float,
        kind: str,
        from_k: int,
        to_k: int,
        pages: int,
        cost_ns: float,
        baseline_ttft_ns: float = 0.0,
        observed_ttft_ns: float = 0.0,
        reason: str = "",
    ) -> None:
        event = MigrationEvent(
            t_ns=now_ns, kind=kind, from_map_id=from_k, to_map_id=to_k,
            pages=pages, cost_ns=cost_ns, baseline_ttft_ns=baseline_ttft_ns,
            observed_ttft_ns=observed_ttft_ns, reason=reason,
        )
        self.events.append(event)
        tel = self.telemetry
        if tel is None:
            return
        tel.metrics.counter(
            "adaptive_migrations_total", "adaptive migration steps",
            labelnames=("kind",),
        ).inc(kind=kind)
        tel.metrics.counter(
            "adaptive_migrated_pages_total", "huge pages migrated"
        ).inc(pages)
        tel.metrics.gauge(
            "adaptive_arena_map_id", "dominant arena MapID"
        ).set(float(max(set(self.arena.page_k), key=self.arena.page_k.count)))
        span = tel.tracer.begin(
            req_id, f"adaptive.{kind}", "controller", now_ns,
            from_map_id=from_k, to_map_id=to_k, pages=pages, reason=reason,
        )
        if span is not None:
            span.close(now_ns + cost_ns)

    def report(self) -> Dict[str, Any]:
        return {
            "mode": self.config.mode,
            "state": self.state,
            "migrations_started": self.migrations_started,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "budget": self.config.max_migrations,
            "page_map_ids": list(self.arena.page_k),
            "last_recommendation": self._last_recommendation,
            "audit_findings": len(self.findings),
            "events": [e.to_dict() for e in self.events],
        }
