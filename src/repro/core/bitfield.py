"""Bit-level utilities for address manipulation.

Every DRAM address mapping in this library is expressed as a *bit
permutation*: each bit of a physical address feeds exactly one bit of one
DRAM coordinate field (channel, rank, bank, row, column, offset).  This
module provides the primitives for gathering and scattering bits according
to such permutations, plus small helpers shared across the code base.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "is_pow2",
    "ilog2",
    "ceil_log2",
    "ceil_div",
    "bit",
    "bits_of",
    "extract_bits",
    "deposit_bits",
    "extract_bits_array",
    "deposit_bits_array",
]


def is_pow2(value: int) -> bool:
    """Return True iff *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Exact integer log2 of a power of two.

    Raises:
        ValueError: if *value* is not a positive power of two.
    """
    if not is_pow2(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def ceil_log2(value: int) -> int:
    """Smallest ``k`` such that ``2**k >= value`` (for positive *value*)."""
    if value <= 0:
        raise ValueError(f"ceil_log2 requires a positive value, got {value}")
    return (value - 1).bit_length()


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def bit(value: int, position: int) -> int:
    """Return bit *position* (0 = LSB) of *value* as 0 or 1."""
    return (value >> position) & 1


def bits_of(value: int, width: int) -> Tuple[int, ...]:
    """Return the *width* least-significant bits of *value*, LSB first."""
    return tuple((value >> i) & 1 for i in range(width))


def extract_bits(value: int, positions: Sequence[int]) -> int:
    """Gather the bits of *value* at *positions* into a packed integer.

    ``positions[0]`` supplies the LSB of the result, ``positions[1]`` the
    next bit, and so on.  This is the software analogue of the mux array in
    FACIL's memory-controller frontend (paper Fig. 12): each output bit
    selects one input bit.
    """
    result = 0
    for out_pos, in_pos in enumerate(positions):
        result |= ((value >> in_pos) & 1) << out_pos
    return result


def deposit_bits(field_value: int, positions: Sequence[int]) -> int:
    """Scatter the low bits of *field_value* to *positions* (inverse of
    :func:`extract_bits`)."""
    result = 0
    for out_pos, in_pos in enumerate(positions):
        result |= ((field_value >> out_pos) & 1) << in_pos
    return result


#: LUT chunk width for the vectorised bit movers: each 8-bit slice of the
#: input is one table lookup, so a 21-bit page offset needs 3 gathers
#: instead of one full-array pass per bit
_LUT_BITS = 8
_LUT_SIZE = 1 << _LUT_BITS
_LUT_MASK = np.int64(_LUT_SIZE - 1)

#: cached (shift, table) pairs keyed by the kind of move and the exact
#: bit-position tuple; tables are tiny (2 KiB) and position tuples are
#: one-per-mapping-field, so the cache stays small
_MOVE_LUTS: dict = {}


def _move_luts(positions: Tuple[int, ...], deposit: bool):
    """Tables for a vectorised bit gather/scatter: chunk ``c`` of the
    input maps through ``table[c]`` to its contribution to the output."""
    key = (deposit, positions)
    cached = _MOVE_LUTS.get(key)
    if cached is not None:
        return cached
    # for extract, the input is the value whose bits live at *positions*;
    # for deposit, the input is the packed field (bit i at position i)
    pairs = (
        [(in_pos, out_pos) for out_pos, in_pos in enumerate(positions)]
        if deposit
        else [(out_pos, in_pos) for out_pos, in_pos in enumerate(positions)]
    )
    luts = []
    span = max((src for _, src in pairs), default=-1) + 1
    for lo in range(0, span, _LUT_BITS):
        sel = [(dst, src - lo) for dst, src in pairs if lo <= src < lo + _LUT_BITS]
        if not sel:
            continue
        index = np.arange(_LUT_SIZE, dtype=np.int64)
        table = np.zeros(_LUT_SIZE, dtype=np.int64)
        for dst, src in sel:
            table |= ((index >> np.int64(src)) & np.int64(1)) << np.int64(dst)
        luts.append((np.int64(lo), table))
    _MOVE_LUTS[key] = luts
    return luts


def _apply_luts(values: np.ndarray, luts) -> np.ndarray:
    if not luts:
        return np.zeros_like(values)
    shift, table = luts[0]
    result = table[(values >> shift) & _LUT_MASK]
    for shift, table in luts[1:]:
        result |= table[(values >> shift) & _LUT_MASK]
    return result


def extract_bits_array(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Vectorised :func:`extract_bits` over a numpy integer array."""
    values = np.asarray(values, dtype=np.int64)
    return _apply_luts(values, _move_luts(tuple(positions), deposit=False))


def deposit_bits_array(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Vectorised :func:`deposit_bits` over a numpy integer array."""
    values = np.asarray(values, dtype=np.int64)
    return _apply_luts(values, _move_luts(tuple(positions), deposit=True))
