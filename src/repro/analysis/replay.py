"""The replay-diff oracle: run twice, hash state at barriers, diff.

Every bench and campaign in this repo leans on byte-identical replays —
"same seed, same report" is the determinism contract the static rules
(RL005-RL010) guard by construction.  This module checks it *by
execution*: run the same workload twice at the same seed, snapshot a
state hash at periodic **barriers** (arena CRC, journal cursor, RNG
stream position, metrics snapshot — whatever the caller assembles), and
report the first barrier where the two runs disagree.  A diverging
barrier localizes the nondeterminism to the work between it and its
predecessor — far tighter than "the final reports differ".

Rules:

* ``RD001`` — two runs at the same seed disagree at a state-hash
  barrier (or produce different barrier sequences).
* ``RD002`` — every barrier matched but the final state hash differs:
  the barriers are too coarse to localize a real divergence.
* ``RD003`` — a run recorded no barriers at all: the check compared
  nothing, so a clean verdict would be vacuous.

The oracle is deliberately generic: :func:`replay_diff` takes a
callable that runs the workload against a fresh
:class:`BarrierRecorder` and returns the run's result.  The serving
loops wire themselves in behind ``repro-facil serve --replay-check``:
every loop's ``drive`` observes a barrier per step,
:meth:`repro.workloads.runtime.WorkloadLoop.run` snaps the final one,
and each loop's ``barrier_state`` names the components (see
:meth:`repro.workloads.runtime.WorkloadLoop.barrier_state` for chat and
the workloads, and
:meth:`repro.kvcache.scheduler.KvServingLoop.barrier_state` for paged
KV).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.findings import LEVEL_ERROR, Finding, register_rules

__all__ = [
    "REPLAY_RULES",
    "state_hash",
    "Barrier",
    "BarrierRecorder",
    "ReplayReport",
    "replay_diff",
]

REPLAY_RULES: Dict[str, str] = {
    "RD001": "replay divergence: two runs at the same seed disagree at a "
             "state-hash barrier",
    "RD002": "replay final-state mismatch with every barrier clean "
             "(barriers too coarse to localize the divergence)",
    "RD003": "vacuous replay: a run recorded no state-hash barriers, so "
             "the check compared nothing",
}
register_rules(REPLAY_RULES)


def state_hash(value: Any) -> str:
    """Stable short hash of *value*'s ``repr``.

    ``repr`` is deterministic for the state this repo snapshots —
    ints, floats, strings, tuples/lists of them, and dicts (insertion
    ordered) — and never salted, unlike ``hash()``.
    """
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Barrier:
    """One state snapshot: per-component hashes at a workload position."""

    index: int
    label: str
    position: int
    #: ``(component name, state hash)`` sorted by name
    components: Tuple[Tuple[str, str], ...]

    def diff(self, other: "Barrier") -> List[str]:
        """Names of the components whose hashes differ from *other*'s
        (plus pseudo-components for label/position mismatches)."""
        problems: List[str] = []
        if self.label != other.label:
            problems.append("label")
        if self.position != other.position:
            problems.append("position")
        mine = dict(self.components)
        theirs = dict(other.components)
        for name in sorted(set(mine) | set(theirs)):
            if mine.get(name) != theirs.get(name):
                problems.append(name)
        return problems


class BarrierRecorder:
    """Collects barriers for one run; ``every`` sets the cadence.

    :meth:`observe` is cheap to call at every loop iteration: it hashes
    state (via the lazy *state_fn*) only when ``position // every``
    enters a new epoch, so a serving loop can call it unconditionally.
    """

    def __init__(self, every: int = 16) -> None:
        if every <= 0:
            raise ValueError("barrier cadence must be positive")
        self.every = every
        self.barriers: List[Barrier] = []
        self._epoch: Optional[int] = None

    def observe(self, position: int,
                state_fn: Callable[[], Mapping[str, Any]]) -> bool:
        """Snap a barrier when *position* crosses into a new epoch.
        Returns True when a barrier was recorded."""
        epoch = position // self.every
        if self._epoch is not None and epoch <= self._epoch:
            return False
        self._epoch = epoch
        self.snap(f"epoch-{epoch}", position, state_fn())
        return True

    def snap(self, label: str, position: int,
             components: Mapping[str, Any]) -> Barrier:
        """Record a barrier unconditionally (e.g. the final snapshot)."""
        barrier = Barrier(
            index=len(self.barriers),
            label=label,
            position=position,
            components=tuple(sorted(
                (name, state_hash(value))
                for name, value in components.items()
            )),
        )
        self.barriers.append(barrier)
        return barrier


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_diff` double run."""

    #: the FIRST run's result — callers use it as the canonical output
    result: Any = None
    barriers: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.ok:
            return f"replay-diff: OK ({self.barriers} barriers identical)"
        verdict = "DIVERGED" if self.barriers else "VACUOUS"
        lines = [f"replay-diff: {verdict} ({self.barriers} barriers)"]
        lines.extend(f.render() for f in self.findings)
        return "\n".join(lines)


def replay_diff(
    run: Callable[[BarrierRecorder], Any],
    every: int = 16,
    final_hash: Optional[Callable[[Any], str]] = None,
) -> ReplayReport:
    """Run *run* twice with fresh recorders and diff the barrier streams.

    *run* must build its entire workload from its own seeds — the only
    shared input is the recorder.  *final_hash*, when given, hashes each
    run's result for the RD002 coarseness check.
    """
    recorder_a = BarrierRecorder(every)
    result_a = run(recorder_a)
    recorder_b = BarrierRecorder(every)
    result_b = run(recorder_b)

    findings: List[Finding] = []
    a, b = recorder_a.barriers, recorder_b.barriers
    if not a or not b:
        findings.append(Finding(
            "RD003", LEVEL_ERROR,
            f"a run recorded no barriers ({len(a)} vs {len(b)}): the "
            f"replay check compared nothing",
            location="barriers",
        ))
    if len(a) != len(b):
        findings.append(Finding(
            "RD001", LEVEL_ERROR,
            f"runs recorded different barrier counts: {len(a)} vs {len(b)}",
            location="barriers",
        ))
    for barrier_a, barrier_b in zip(a, b):
        diverged = barrier_a.diff(barrier_b)
        if diverged:
            findings.append(Finding(
                "RD001", LEVEL_ERROR,
                f"first divergence at barrier {barrier_a.index} "
                f"({barrier_a.label}, position {barrier_a.position}): "
                f"component(s) {', '.join(diverged)} differ",
                location=f"barrier[{barrier_a.index}]",
                detail=f"a={dict(barrier_a.components)} "
                       f"b={dict(barrier_b.components)}",
            ))
            break
    if not findings and final_hash is not None:
        hash_a, hash_b = final_hash(result_a), final_hash(result_b)
        if hash_a != hash_b:
            findings.append(Finding(
                "RD002", LEVEL_ERROR,
                f"final state hashes differ ({hash_a} vs {hash_b}) though "
                f"all {len(a)} barriers matched",
                location="final",
            ))
    return ReplayReport(result=result_a, barriers=len(a), findings=findings)
