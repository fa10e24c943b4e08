"""Golden FR-FCFS oracle: pinned digests of the channel scheduler.

Each case feeds one seeded request stream through a
``ChannelScheduler`` (the last one through a two-channel
``DramTimingSimulator.run``) and hashes everything the scheduler
decides: the full device-command log, the ``ChannelStats`` after
``collect_bank_stats``, the per-tag completions, every bank's timing
fields, hit/miss counters and open rows, and the ``drain`` end times.

The streams mix sequential runs inside a row with jumps to a few hot
rows per bank and to random rows, so they produce row hits, misses
and conflicts in every bank.  Together the cases cover ``TINY_ORG``,
``ADAPTIVE_ARENA_ORG`` and the 2-rank, 16-bank ``ideapad-slim-5``
organization; windows 1, 8, 64 and 256; one and two row buffers; a
soc/pim tag mix whose PIM requests leave the data bus free, with and
without a priority tag; all-bank refresh on streams that cross tREFI;
open-loop arrivals; and an ``enqueue`` after a ``drain``.

The digests were captured at commit
58bb559774b450462c984f49a4e5028aa7199b83, where ``_prepare_window`` and
``_pick`` still rescanned the lookahead window for every issued
request.  A mismatch names the case.  Print fresh digests with
``python -m tests.dram.test_scheduler_golden`` only when a change is
*meant* to move scheduling decisions.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.adaptive.arena import ADAPTIVE_ARENA_ORG
from repro.dram.address import DramCoord
from repro.dram.command import Request
from repro.dram.config import TINY_ORG, DramConfig, DramOrganization, LPDDR5_6400_TIMINGS
from repro.dram.scheduler import ChannelScheduler
from repro.dram.system import DramTimingSimulator
from repro.platforms.specs import IDEAPAD

CONFIGS: Dict[str, DramConfig] = {
    "tiny": DramConfig(TINY_ORG, LPDDR5_6400_TIMINGS),
    "arena": DramConfig(ADAPTIVE_ARENA_ORG, LPDDR5_6400_TIMINGS),
    "ideapad": IDEAPAD.dram,
}
#: rows per bank a stream keeps returning to (the rest are random)
HOT_ROWS = 3


def _stream(
    org: DramOrganization,
    seed: int,
    n: int,
    *,
    tagged: bool = False,
    gap_ns: float = 0.0,
    channels: int = 1,
) -> List[Request]:
    """*n* requests: sequential column runs, broken 40 % of the time by
    a jump to a hot or random row of a random bank.  Tagged streams
    split into "soc" requests and bus-free "pim" MAC requests.  With a
    mean gap *gap_ns* the arrivals are open-loop (exponential gaps);
    without one, every request is due at time zero."""
    rng = np.random.default_rng(seed)
    requests: List[Request] = []
    channel = rank = bank = row = col = 0
    arrival = 0.0
    for i in range(n):
        if i == 0 or rng.random() < 0.4:
            channel = int(rng.integers(channels))
            rank = int(rng.integers(org.ranks_per_channel))
            bank = int(rng.integers(org.banks_per_rank))
            if rng.random() < 0.7:
                row = int(rng.integers(HOT_ROWS))
            else:
                row = int(rng.integers(org.rows_per_bank))
            col = int(rng.integers(org.cols_per_row))
        else:
            col = (col + 1) % org.cols_per_row
        pim = tagged and rng.random() < 0.5
        if gap_ns:
            arrival += float(rng.exponential(gap_ns))
        requests.append(
            Request(
                coord=DramCoord(channel=channel, rank=rank, bank=bank, row=row, col=col),
                is_write=bool(rng.random() < 0.25),
                arrival_ns=arrival,
                tag=("pim" if pim else "soc") if tagged else "",
                uses_bus=not pim,
            )
        )
    return requests


def _scheduler_digest(sched: ChannelScheduler, ends: List[float]) -> str:
    """sha256 over the command log, the stats, the completions sorted by
    tag, every bank's state in bank-key order and the drain end times."""
    sched.collect_bank_stats()
    h = hashlib.sha256()
    for command in sched.command_log:
        h.update(repr(astuple(command)).encode())
    h.update(repr(astuple(sched.stats)).encode())
    h.update(repr(sorted(sched.completions.items())).encode())
    for key in sorted(sched.banks):
        bank = sched.banks[key]
        h.update(repr((
            key, bank.next_act_ns, bank.next_pre_ns, bank.next_col_ns,
            bank.last_act_ns, bank.row_hits, bank.row_misses,
            bank.row_conflicts, bank.open_rows(),
        )).encode())
    h.update(repr(ends).encode())
    return h.hexdigest()


def _drained(
    config: str,
    seed: int,
    n: int,
    *,
    window: int = 64,
    n_row_buffers: int = 1,
    priority_tag: Optional[str] = None,
    model_refresh: bool = False,
    tagged: bool = False,
    gap_ns: float = 0.0,
    split: bool = False,
) -> Tuple[ChannelScheduler, List[float]]:
    """Channel 0's scheduler after its stream is drained once, or in two
    halves with the second enqueued after the first drain when *split*;
    returns the scheduler and the drain end times."""
    cfg = CONFIGS[config]
    sched = ChannelScheduler(
        cfg, 0, window=window, n_row_buffers=n_row_buffers,
        priority_tag=priority_tag, model_refresh=model_refresh,
        log_commands=True,
    )
    requests = _stream(cfg.org, seed, n, tagged=tagged, gap_ns=gap_ns)
    batches = [requests[: n // 2], requests[n // 2:]] if split else [requests]
    ends = []
    for batch in batches:
        for request in batch:
            sched.enqueue(request)
        ends.append(sched.drain())
    return sched, ends


def _two_channel_run() -> str:
    """A tagged two-channel stream through ``DramTimingSimulator.run``
    with PIM priority and two row buffers, digesting the ``SimResult``
    (per channel and per tag) and both command logs."""
    sim = DramTimingSimulator(
        CONFIGS["tiny"], window=32, n_row_buffers=2, priority_tag="pim",
        log_commands=True,
    )
    result = sim.run(_stream(TINY_ORG, 17, 900, tagged=True, channels=2))
    h = hashlib.sha256()
    h.update(repr((
        result.total_ns, result.n_requests, result.bytes_moved,
        result.row_hits, result.row_misses, result.row_conflicts,
        sorted((ch, astuple(stats)) for ch, stats in result.per_channel.items()),
        sorted(result.per_tag.items()),
    )).encode())
    for channel in sorted(sim.command_logs):
        for command in sim.command_logs[channel]:
            h.update(repr(astuple(command)).encode())
    return h.hexdigest()


CHANNEL_CASES: Dict[str, dict] = {
    "tiny-w1": dict(config="tiny", seed=1, n=400, window=1),
    "tiny-w8": dict(config="tiny", seed=2, n=600, window=8),
    "tiny-w64": dict(config="tiny", seed=3, n=800),
    "tiny-w64-rb2": dict(config="tiny", seed=4, n=800, n_row_buffers=2),
    "tiny-w256": dict(config="tiny", seed=5, n=600, window=256),
    "arena-w64-open": dict(config="arena", seed=6, n=800, gap_ns=3.0),
    "arena-w256-rb2": dict(
        config="arena", seed=7, n=600, window=256, n_row_buffers=2),
    "ideapad-w64": dict(config="ideapad", seed=8, n=800),
    "ideapad-w8-rb2": dict(
        config="ideapad", seed=9, n=600, window=8, n_row_buffers=2),
    "ideapad-w256": dict(config="ideapad", seed=10, n=500, window=256),
    "tiny-pim-priority": dict(
        config="tiny", seed=11, n=800, priority_tag="pim", tagged=True),
    "tiny-pim-priority-rb2-open": dict(
        config="tiny", seed=12, n=600, n_row_buffers=2, priority_tag="pim",
        tagged=True, gap_ns=3.0),
    "ideapad-pim-priority-w8": dict(
        config="ideapad", seed=13, n=600, window=8, priority_tag="pim",
        tagged=True),
    "tiny-tags-no-priority": dict(config="tiny", seed=14, n=600, tagged=True),
    "tiny-refresh-w8": dict(
        config="tiny", seed=15, n=1000, window=8, model_refresh=True),
    "ideapad-refresh-rb2-open": dict(
        config="ideapad", seed=16, n=1000, n_row_buffers=2, model_refresh=True,
        tagged=True, priority_tag="pim", gap_ns=9.0),
    "tiny-enqueue-after-drain": dict(
        config="tiny", seed=18, n=800, split=True, tagged=True,
        priority_tag="pim"),
}

CASES: Dict[str, Callable[[], str]] = {
    name: (lambda kwargs=kwargs: _scheduler_digest(*_drained(**kwargs)))
    for name, kwargs in CHANNEL_CASES.items()
}
CASES["system-two-channel"] = _two_channel_run

GOLDEN: Dict[str, str] = {
    "arena-w256-rb2": "e52c3159dfd9dba97a02188b0a1a9e6ad710e86a10000da3886834348d99fe17",
    "arena-w64-open": "2d51a984bd30ab6d45264dcc9ae08f63b142ff60340026e0b7b1e8253a74d77d",
    "ideapad-pim-priority-w8": "0ec75a8c066e9a3ba8d657c22376413c6c56feadba516a7adea9e92f8da8e751",
    "ideapad-refresh-rb2-open": "90fa50f6395f87013add5776a61936f27ffc23f1ca06561926203436c9e05c31",
    "ideapad-w256": "7d8867468b52c35ebd4eae5b373e30387f1d985dba331322d0fd051bd216f1a1",
    "ideapad-w64": "c3d4e420e51858cf908cf7a04473c51065bd3eab07fedd6c9ce501e740db70fb",
    "ideapad-w8-rb2": "66b74f9d7a70f64c10d231ff64d0af2393ae34e30962bc7bf19113c877c22c92",
    "system-two-channel": "3cd85d34d96d0c0f4c76382d8eac48e044f9be95abcd581c0f9fe644f3288d2c",
    "tiny-enqueue-after-drain": "04d03fa25fe4f1831628b65495d48ee421c70979a424ecd9575c40d82fd15ed8",
    "tiny-pim-priority": "aa4cd42b70c4cc6ece44467a9fee36184c4b2e40255639fcb914c9353ac7f14c",
    "tiny-pim-priority-rb2-open": "617bb72518f9323223e6e663cc30f6ebd00d3f3a0749c7acb40e63ad04092f1c",
    "tiny-refresh-w8": "9738f58be908c1cf321c0da4e141e8110856004c70399364cf82ae5b0d580833",
    "tiny-tags-no-priority": "e74384fb9c868b09f3e7eeaf77e14d4e867e5b46bc06b6d81a422d58655c5496",
    "tiny-w1": "a3c64fc9f7d4f39008346373c6ffc5417342e66e08963efacc4c687b56e75b2d",
    "tiny-w256": "17d5aac70d83d424bf550db44138a85375fe1aef200ae2ded9d33855e77c9a3d",
    "tiny-w64": "3fc087d46e0603f22627f8477b91da2a00963c4e08accc458262d771f1428d98",
    "tiny-w64-rb2": "660938a488af54bc5979baca57f7e03d9d7c2053a5b8e9832b02b0493d7590ee",
    "tiny-w8": "a7d99cbfbaee4bb026581bc6ce3f3f95e34677cae8bf57a4f7015023c845a080",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", ["tiny-refresh-w8", "ideapad-refresh-rb2-open"])
def test_refresh_cases_cross_trefi(case):
    sched, _ = _drained(**CHANNEL_CASES[case])
    assert sum(command.op == "REF" for command in sched.command_log) >= 2


if __name__ == "__main__":  # pragma: no cover - digest regeneration aid
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
