"""FR-FCFS channel scheduler with background row activation.

Per channel: a lookahead window over the pending request queue.  Row-buffer
hits are served before older misses (First-Ready, First-Come-First-Served),
and — as in real controllers, where ACT/PRE travel on the command bus while
another bank's data streams — rows for pending misses are opened *in the
background* so bank preparation overlaps column traffic.  Without that
overlap a mapping that interleaves banks coarsely (like the PIM-optimized
layouts) would appear pathologically serial, which hardware is not.

The window is indexed, not rescanned.  A request entering the window joins
a window FIFO, its bank's FIFO and its row's FIFO (plus its row's tagged
FIFO when it carries the priority tag), all in arrival order, and leaves
them when it issues; one issue costs O(banks x row buffers) instead of
passes over the window.  A request issued from the middle of a FIFO is
marked done and dropped once it reaches the left end.  Three invariants
keep every decision identical to scanning the window in arrival order:

* **Preparation order.**  Background activation opens rows only for each
  bank's head (its oldest in-window request) and prepares the unprepared
  heads in arrival order: the tRRD/tFAW shift of each ACT and the command
  log depend on that order.
* **Victim guard.**  A head whose ACT would evict the LRU open row waits
  while that row's FIFO is non-empty, i.e. while the window still holds a
  hit for the row.  The window does not change during a preparation pass.
* **Pick key.**  Every request of one bank sees the same ``next_col_ns``,
  so only the oldest in-window request of each open row can win: the
  oldest priority-tagged one (tier 0), otherwise the oldest one (tier 1).
  Candidates compare by ``(tier, next_col_ns, arrival order)``; when no
  open row has one, the oldest in-window request is served.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import DefaultDict, Deque, Dict, List, Optional, Tuple

from repro.dram.address import DramCoord
from repro.dram.bank import BankState
from repro.dram.command import DramCommand, Request
from repro.dram.config import DramConfig

__all__ = ["ChannelScheduler", "ChannelStats", "check_sizes"]


@dataclass
class ChannelStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    busy_until_ns: float = 0.0
    bus_busy_ns: float = 0.0


class _Entry:
    """Queue slot: the request and its arrival order, whether its row was
    (pre-)activated — which decides its hit/miss classification, so stats
    count each request once — and whether it has been issued."""

    __slots__ = ("request", "seq", "prepared", "done")

    def __init__(self, request: Request, seq: int):
        self.request = request
        self.seq = seq
        self.prepared = False
        self.done = False


class _BankQueue:
    """One bank's share of the lookahead window."""

    __slots__ = ("state", "fifo", "rows", "tagged")

    def __init__(self, state: BankState):
        self.state = state
        #: in-window requests in arrival order; the head is the one
        #: request background activation may open
        self.fifo: Deque[_Entry] = deque()
        #: row -> its in-window requests, in arrival order
        self.rows: DefaultDict[int, Deque[_Entry]] = defaultdict(deque)
        #: row -> its in-window priority-tagged requests, in arrival order
        self.tagged: DefaultDict[int, Deque[_Entry]] = defaultdict(deque)


def _drop_done(fifo: Deque[_Entry]) -> None:
    """Pop issued requests off the left end, so a non-empty FIFO's head
    is always in the window."""
    while fifo and fifo[0].done:
        fifo.popleft()


def _head_seq(queue: _BankQueue) -> int:
    return queue.fifo[0].seq


def check_sizes(window: int, n_row_buffers: int) -> None:
    """Reject a lookahead window or row-buffer count below one."""
    for name, value in (("window", window), ("n_row_buffers", n_row_buffers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class ChannelScheduler:
    """Schedules one channel's requests against its banks and data bus."""

    def __init__(
        self,
        config: DramConfig,
        channel: int,
        window: int = 64,
        n_row_buffers: int = 1,
        priority_tag: Optional[str] = None,
        model_refresh: bool = False,
        log_commands: bool = False,
    ):
        check_sizes(window, n_row_buffers)
        self.config = config
        self.channel = channel
        self.window = window
        #: requests with this tag win ties against other row hits —
        #: "SoC-priority" scheduling that shields normal processes from
        #: PIM interference (paper §V-C remaining challenges)
        self.priority_tag = priority_tag
        org = config.org
        self.banks: Dict[Tuple[int, int], BankState] = {
            (rank, bank): BankState(n_row_buffers=n_row_buffers)
            for rank in range(org.ranks_per_channel)
            for bank in range(org.banks_per_rank)
        }
        self._queues: Dict[Tuple[int, int], _BankQueue] = {
            key: _BankQueue(state) for key, state in self.banks.items()
        }
        #: in-window requests in arrival order, and their number
        self._window: Deque[_Entry] = deque()
        self._in_window = 0
        #: enqueued requests waiting for a window slot, in arrival order
        self._backlog: Deque[_Entry] = deque()
        #: banks whose head is not prepared yet (dict as an ordered set)
        self._unprepared: Dict[_BankQueue, None] = {}
        self._seq = 0
        self._bus_free_ns = 0.0
        self._last_kind_is_write: Optional[bool] = None
        self._act_history: Deque[float] = deque(maxlen=4)  # for tFAW
        self._last_act_ns = -1e18  # for tRRD
        self.stats = ChannelStats()
        #: per-tag (requests served, last data-end time, summed
        #: arrival->completion latency) for co-scheduling experiments
        self.completions: Dict[str, Tuple[int, float, float]] = {}
        self._burst_ns = config.timings.burst_time_ns(org)
        #: refresh modeling (all-bank refresh every tREFI costing tRFC);
        #: off by default so calibrated results stay put — enabling it
        #: shaves the ~tRFC/tREFI duty cycle (~4-5 %) off bandwidth
        self.model_refresh = model_refresh
        self._next_refresh_ns = config.timings.tREFI
        #: device-command log for the trace linter (None = not recorded);
        #: every ACT/PRE/RD/WR/REF this scheduler issues, in issue order
        self.command_log: Optional[List[DramCommand]] = (
            [] if log_commands else None
        )

    # -- public API ---------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        coord = request.coord
        if coord.channel != self.channel:
            raise ValueError(
                f"request for channel {coord.channel} sent to "
                f"scheduler of channel {self.channel}"
            )
        try:
            queue = self._queues[(coord.rank, coord.bank)]
        except KeyError:
            coord.validate(self.config.org)  # names the rank or bank
            raise
        entry = _Entry(request, self._seq)
        self._seq += 1
        if self._in_window < self.window:
            self._admit(entry, queue)
        else:
            self._backlog.append(entry)

    def drain(self) -> float:
        """Serve every queued request; returns the channel-busy end time."""
        while self._window:
            self._prepare_window()
            entry = self._pick()
            self._retire(entry)
            self._issue(entry)
        return self.stats.busy_until_ns

    # -- internals -------------------------------------------------------------

    def _admit(self, entry: _Entry, queue: _BankQueue) -> None:
        """Enter *entry* into the window and *queue*'s indexes."""
        self._window.append(entry)
        self._in_window += 1
        queue.fifo.append(entry)
        if len(queue.fifo) == 1:
            self._unprepared[queue] = None
        request = entry.request
        queue.rows[request.coord.row].append(entry)
        if self.priority_tag is not None and request.tag == self.priority_tag:
            queue.tagged[request.coord.row].append(entry)

    def _retire(self, entry: _Entry) -> None:
        """Take the request about to issue out of the window and its
        indexes, and admit the oldest backlog request in its place."""
        entry.done = True
        request = entry.request
        coord = request.coord
        queue = self._queues[(coord.rank, coord.bank)]
        _drop_done(queue.fifo)
        row = coord.row
        fifo = queue.rows[row]
        _drop_done(fifo)
        if not fifo:
            del queue.rows[row]
        if self.priority_tag is not None and request.tag == self.priority_tag:
            # tagged requests leave their row in arrival order
            tagged = queue.tagged[row]
            tagged.popleft()
            if not tagged:
                del queue.tagged[row]
        _drop_done(self._window)
        self._in_window -= 1
        if self._backlog:
            waiting = self._backlog.popleft()
            coord = waiting.request.coord
            self._admit(waiting, self._queues[(coord.rank, coord.bank)])
        if queue.fifo and not queue.fifo[0].prepared:
            self._unprepared[queue] = None
        else:
            self._unprepared.pop(queue, None)

    def _bank_of(self, request: Request) -> BankState:
        return self.banks[(request.coord.rank, request.coord.bank)]

    def _apply_act_constraints(self, bank: BankState) -> None:
        """Shift a just-recorded ACT to respect tRRD/tFAW across banks."""
        timings = self.config.timings
        act = bank.last_act_ns
        shift = 0.0
        if act - self._last_act_ns < timings.tRRD:
            shift = max(shift, self._last_act_ns + timings.tRRD - act)
        if len(self._act_history) == 4:
            oldest = self._act_history[0]
            if act - oldest < timings.tFAW:
                shift = max(shift, oldest + timings.tFAW - act)
        if shift > 0.0:
            bank.last_act_ns += shift
            bank.next_act_ns += shift
            bank.next_col_ns += shift
            bank.next_pre_ns += shift
        self._last_act_ns = bank.last_act_ns
        self._act_history.append(bank.last_act_ns)

    def _prepare(self, bank: BankState, coord: DramCoord, is_write: bool) -> None:
        """Bring *coord*'s row to openable state in *bank*: precharge a
        victim if all row buffers are busy, activate if the row is closed,
        and record the resulting ACT/PRE on the command log."""
        timings = self.config.timings
        opening = not bank.is_open(coord.row)
        victim: Optional[int] = None
        if opening and len(bank.open_rows()) >= bank.n_row_buffers:
            victim = bank.open_rows()[0]
        bank.prepare_column(coord.row, self._bus_free_ns, timings, is_write)
        if opening:
            self._apply_act_constraints(bank)
            if self.command_log is not None:
                act_ns = bank.last_act_ns
                if victim is not None:
                    self.command_log.append(
                        DramCommand(
                            op="PRE",
                            channel=self.channel,
                            rank=coord.rank,
                            bank=coord.bank,
                            row=victim,
                            time_ns=act_ns - timings.tRP,
                        )
                    )
                self.command_log.append(
                    DramCommand(
                        op="ACT",
                        channel=self.channel,
                        rank=coord.rank,
                        bank=coord.bank,
                        row=coord.row,
                        time_ns=act_ns,
                    )
                )

    def _prepare_window(self) -> None:
        """Open rows for the oldest in-window request of each bank
        (background ACT/PRE on the command bus), in arrival order.

        A bank's open row is *not* precharged while the window still holds
        a request hitting it — closing under pending hits would waste the
        row buffer, and real FR-FCFS drains hits first.
        """
        for queue in sorted(self._unprepared, key=_head_seq):
            entry = queue.fifo[0]
            coord = entry.request.coord
            bank = queue.state
            if not bank.is_open(coord.row) and len(bank.open_rows()) >= bank.n_row_buffers:
                victim = bank.open_rows()[0]  # LRU row the ACT would evict
                if victim in queue.rows:
                    continue  # drain the victim row's hits first
            self._prepare(bank, coord, entry.request.is_write)
            entry.prepared = True
            del self._unprepared[queue]

    def _pick(self) -> _Entry:
        """Among in-window requests whose row is open, serve the one whose
        bank accepts a column command soonest (interleaves banks instead
        of serializing on tCCD); with a priority tag set, that tag's row
        hits are considered first.  Falls back to the oldest request."""
        best = self._window[0]
        best_key = (2, 0.0, 0)
        for queue in self._queues.values():
            rows = queue.rows
            if not rows:
                continue
            bank = queue.state
            for row in bank.open_rows():
                tagged = queue.tagged.get(row)
                if tagged:
                    candidate, tier = tagged[0], 0
                else:
                    fifo = rows.get(row)
                    if fifo is None:
                        continue
                    candidate, tier = fifo[0], 1
                key = (tier, bank.next_col_ns, candidate.seq)
                if key < best_key:
                    best, best_key = candidate, key
        return best

    def _issue(self, entry: _Entry) -> None:
        timings = self.config.timings
        request = entry.request
        coord = request.coord
        bank = self._bank_of(request)

        if self.model_refresh and self._bus_free_ns >= self._next_refresh_ns:
            # all-bank refresh: every bank is precharged (open rows are
            # lost — re-accessing them costs a fresh ACT) and stalls tRFC
            stall_end = self._next_refresh_ns + timings.tRFC
            for state in self.banks.values():
                state.close_all()
                state.next_act_ns = max(state.next_act_ns, stall_end)
                state.next_col_ns = max(state.next_col_ns, stall_end)
            if self.command_log is not None:
                self.command_log.append(
                    DramCommand(
                        op="REF",
                        channel=self.channel,
                        rank=-1,
                        bank=-1,
                        time_ns=self._next_refresh_ns,
                    )
                )
            self._bus_free_ns = max(self._bus_free_ns, stall_end)
            self._next_refresh_ns += timings.tREFI

        if not entry.prepared or not bank.is_open(coord.row):
            # Unprepared entries reach here either as row hits (counted by
            # prepare_column) or after a background prepare closed their
            # row (counted as the conflict they now are); a *prepared*
            # entry whose row was closed anyway is re-prepared defensively.
            self._prepare(bank, coord, request.is_write)

        ready = max(bank.next_col_ns, request.arrival_ns)
        if request.uses_bus:
            issue = max(ready, self._bus_free_ns)
            # Read/write turnaround on the shared data bus.
            if self._last_kind_is_write is not None:
                if self._last_kind_is_write and not request.is_write:
                    issue = max(issue, self._bus_free_ns + timings.tWTR)
        else:
            # PIM MAC: bank-internal data movement, no bus arbitration.
            issue = ready
        bank.note_column(issue, timings, request.is_write, self._burst_ns)
        if self.command_log is not None:
            self.command_log.append(
                DramCommand(
                    op="WR" if request.is_write else "RD",
                    channel=self.channel,
                    rank=coord.rank,
                    bank=coord.bank,
                    row=coord.row,
                    col=coord.col,
                    time_ns=issue,
                    tag=request.tag,
                )
            )

        latency = timings.tCWL if request.is_write else timings.tCL
        data_end = issue + latency + self._burst_ns
        if request.uses_bus:
            self._bus_free_ns = issue + self._burst_ns
            self._last_kind_is_write = request.is_write

        stats = self.stats
        if request.uses_bus:
            stats.bus_busy_ns += self._burst_ns
        stats.busy_until_ns = max(stats.busy_until_ns, data_end)
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        tag = request.tag
        count, last, latency = self.completions.get(tag, (0, 0.0, 0.0))
        self.completions[tag] = (
            count + 1,
            max(last, data_end),
            latency + (data_end - request.arrival_ns),
        )

    def collect_bank_stats(self) -> None:
        """Fold per-bank hit/miss counters into the channel stats."""
        stats = self.stats
        stats.row_hits = sum(b.row_hits for b in self.banks.values())
        stats.row_misses = sum(b.row_misses for b in self.banks.values())
        stats.row_conflicts = sum(b.row_conflicts for b in self.banks.values())

    def publish_metrics(self, registry: object) -> None:
        """Publish this channel's counters into a telemetry registry
        (duck-typed ``repro.telemetry.MetricsRegistry`` — the DRAM layer
        never imports the telemetry package)."""
        self.collect_bank_stats()
        stats = self.stats
        labels = {"channel": str(self.channel)}
        for name, help_text, value in (
            ("dram_reads_total", "column reads issued", stats.reads),
            ("dram_writes_total", "column writes issued", stats.writes),
            ("dram_row_hits_total", "row-buffer hits", stats.row_hits),
            ("dram_row_misses_total", "row-buffer misses (bank idle)",
             stats.row_misses),
            ("dram_row_conflicts_total",
             "bank conflicts (wrong row open)", stats.row_conflicts),
        ):
            registry.counter(  # type: ignore[attr-defined]
                name, help_text, labelnames=("channel",)
            ).inc(value, **labels)
        registry.gauge(  # type: ignore[attr-defined]
            "dram_bus_busy_ns", "data-bus busy time per channel",
            labelnames=("channel",),
        ).set(stats.bus_busy_ns, **labels)
