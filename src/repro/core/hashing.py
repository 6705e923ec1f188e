"""Context hashing: ``h(PC, GHB)`` and floating-point quantization.

The approximator table is indexed by XOR-ing the load's instruction address
with the bit patterns of the values currently in the global history buffer
(Section III-A). Floating-point values hash poorly at full precision —
1.000 and 1.001 land in different entries — so Section VII-B truncates
low-order mantissa bits before hashing, improving approximate value
locality (Figure 13).
"""

from __future__ import annotations

import struct
from typing import Iterable, Tuple, Union

Number = Union[int, float]

_UINT64_MASK = (1 << 64) - 1
_FLOAT32_MANTISSA_BITS = 23


def quantize_float(value: float, drop_bits: int) -> float:
    """Zero the ``drop_bits`` lowest mantissa bits of ``value`` (as float32).

    ``drop_bits == 0`` returns the single-precision rounding of ``value``;
    ``drop_bits == 23`` keeps only the sign and exponent. Non-finite values
    pass through unchanged.
    """
    if drop_bits == 0 or value != value or value in (float("inf"), float("-inf")):
        return value
    bits = struct.unpack("<I", struct.pack("<f", value))[0]
    bits &= ~((1 << drop_bits) - 1) & 0xFFFFFFFF
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def value_to_bits(value: Number, mantissa_drop_bits: int = 0) -> int:
    """Map a load value to the 64-bit pattern the hash hardware would see.

    Integers use their two's-complement 64-bit pattern. Floats are first
    rounded to single precision (the paper's Figure 13 operates on the
    single-precision mantissa), optionally with ``mantissa_drop_bits``
    low-order mantissa bits cleared, and the resulting 32-bit pattern is
    used.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & _UINT64_MASK
    quantized = quantize_float(float(value), mantissa_drop_bits)
    if quantized != quantized:  # NaN: use the canonical quiet-NaN pattern
        return 0x7FC00000
    try:
        return struct.unpack("<I", struct.pack("<f", quantized))[0]
    except OverflowError:  # exponent overflow to float32 => +/- inf pattern
        return 0x7F800000 if quantized > 0 else 0xFF800000


def _fold(value: int, out_bits: int) -> int:
    """XOR-fold a 64-bit value down to ``out_bits`` bits."""
    mask = (1 << out_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= out_bits
    return folded


def context_hash(
    pc: int,
    ghb_values: Iterable[Number],
    index_bits: int,
    tag_bits: int,
    mantissa_drop_bits: int = 0,
) -> Tuple[int, int]:
    """Hash a load context to an approximator-table ``(index, tag)`` pair.

    The context is ``XOR(PC, GHB)``: the load's instruction address XOR-ed
    with the bit patterns of every value in the global history buffer. The
    64-bit result is XOR-folded to ``index_bits`` for the direct-mapped
    table index; the bits above the index, truncated to ``tag_bits``, form
    the stored tag (a second fold keeps tag entropy when the raw hash is
    narrow).

    Args:
        pc: Instruction address of the load.
        ghb_values: Values currently in the GHB (oldest first; order is
            irrelevant for XOR but kept for determinism).
        index_bits: log2 of the table size.
        tag_bits: Width of the stored tag.
        mantissa_drop_bits: Mantissa truncation applied to float values
            before hashing (Section VII-B).

    Returns:
        ``(index, tag)`` with ``0 <= index < 2**index_bits`` and
        ``0 <= tag < 2**tag_bits``.
    """
    context = pc & _UINT64_MASK
    for value in ghb_values:
        context ^= value_to_bits(value, mantissa_drop_bits)
    index = _fold(context, index_bits) if index_bits > 0 else 0
    tag_source = (context >> index_bits) | (pc << 1)
    tag = _fold(tag_source & _UINT64_MASK, tag_bits)
    return index, tag
