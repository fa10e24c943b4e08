"""Request-trace I/O for the DRAM timing simulator.

A trace is a plain-text file, one request per line::

    <channel> <rank> <bank> <row> <col> <R|W> [tag]

Lines starting with ``#`` are comments.  Traces make the simulator usable
standalone: capture a stream once (e.g. from the mapping translator),
replay it under different timings/policies, diff the results.
"""

from __future__ import annotations

from typing import Iterable, List, TextIO, Union

from repro.dram.address import DramCoord, Field
from repro.dram.command import Request

__all__ = ["save_trace", "load_trace", "trace_from_fields"]


def trace_from_fields(
    fields: dict,
    is_write: bool = False,
    tag: str = "",
) -> List[Request]:
    """Build a request list from decoded field arrays (the output of
    :meth:`MemoryController.translate_array`)."""
    n = len(fields[Field.CHANNEL])
    return [
        Request(
            coord=DramCoord(
                channel=int(fields[Field.CHANNEL][i]),
                rank=int(fields[Field.RANK][i]),
                bank=int(fields[Field.BANK][i]),
                row=int(fields[Field.ROW][i]),
                col=int(fields[Field.COL][i]),
            ),
            is_write=is_write,
            tag=tag,
        )
        for i in range(n)
    ]


def save_trace(requests: Iterable[Request], target: Union[str, TextIO]) -> int:
    """Write *requests* to *target* (path or file object); returns the
    number of lines written."""
    own = isinstance(target, str)
    handle: TextIO = open(target, "w") if own else target
    count = 0
    try:
        handle.write("# channel rank bank row col R/W [tag]\n")
        for request in requests:
            c = request.coord
            kind = "W" if request.is_write else "R"
            suffix = f" {request.tag}" if request.tag else ""
            handle.write(
                f"{c.channel} {c.rank} {c.bank} {c.row} {c.col} {kind}{suffix}\n"
            )
            count += 1
    finally:
        if own:
            handle.close()
    return count


def load_trace(source: Union[str, TextIO]) -> List[Request]:
    """Parse a trace file back into requests.

    Raises:
        ValueError: on malformed lines (with the line number).
    """
    own = isinstance(source, str)
    handle: TextIO = open(source, "r") if own else source
    requests: List[Request] = []
    try:
        for line_no, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) not in (6, 7):
                raise ValueError(
                    f"line {line_no}: expected 6 or 7 fields, got {len(parts)}"
                )
            try:
                channel, rank, bank, row, col = (int(p) for p in parts[:5])
            except ValueError:
                raise ValueError(f"line {line_no}: non-integer coordinate") from None
            kind = parts[5].upper()
            if kind not in ("R", "W"):
                raise ValueError(f"line {line_no}: kind must be R or W, got {kind!r}")
            requests.append(
                Request(
                    coord=DramCoord(channel, rank, bank, row, col),
                    is_write=kind == "W",
                    tag=parts[6] if len(parts) == 7 else "",
                )
            )
    finally:
        if own:
            handle.close()
    return requests
