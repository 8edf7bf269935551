"""Bit-level codec: 30-bit blocks <-> 15 prime symbols, and byte payloads
<-> padded block sequences.

A block is an int in [0, 2**30); its bits are read MSB-first. Consecutive
bit pairs map to the first four primes:

    00 <-> 2    01 <-> 3    10 <-> 5    11 <-> 7

so one block becomes exactly 15 symbols.
"""

from typing import NamedTuple, Sequence

from .errors import EmptyInput, WrongLength, ValueOutOfRange

BLOCK_BITS = 30
SYMBOLS_PER_BLOCK = 15
PRIMES = (2, 3, 5, 7)

PRIME_INDEX = {p: i for i, p in enumerate(PRIMES)}  # prime -> its index, also its bit pair


class PaddedMessage(NamedTuple):
    """A byte payload cut into 30-bit blocks, zero-padded on the right.

    tail_bits counts the meaningful bits of the final block (1..30); all
    earlier blocks carry a full 30 bits.
    """

    blocks: tuple[int, ...]
    tail_bits: int


def block_to_symbols(block: int) -> tuple[int, ...]:
    """Map one 30-bit block to its 15 prime symbols (MSB-first pairs)."""
    if not isinstance(block, int) or block < 0 or block >= 1 << BLOCK_BITS:
        raise WrongLength(f"block must be a 30-bit value, got {block!r}")
    return tuple(
        PRIMES[(block >> (BLOCK_BITS - 2 - 2 * i)) & 3]
        for i in range(SYMBOLS_PER_BLOCK)
    )


def symbols_to_block(symbols: Sequence[int]) -> int:
    """Inverse of block_to_symbols; round-trips exactly."""
    if len(symbols) != SYMBOLS_PER_BLOCK:
        raise WrongLength(f"expected 15 symbols, got {len(symbols)}")
    block = 0
    for s in symbols:
        if s not in PRIME_INDEX:
            raise ValueOutOfRange(f"symbol must be one of {PRIMES}, got {s!r}")
        block = (block << 2) | PRIME_INDEX[s]
    return block


def segment_bits(value: int, nbits: int) -> PaddedMessage:
    """Split an nbits-wide value (MSB-first) into 30-bit blocks, zero-
    padding the final block on the right."""
    if nbits <= 0:
        raise EmptyInput("need at least one bit")
    if not 0 <= value < 1 << nbits:
        raise WrongLength(f"value does not fit {nbits} bits")
    nblocks = (nbits + BLOCK_BITS - 1) // BLOCK_BITS
    tail_bits = nbits - BLOCK_BITS * (nblocks - 1)
    # pad right to the block boundary, then to a byte boundary, and stream
    # bytes through a small accumulator (repeated whole-value shifts are
    # quadratic for MiB payloads)
    extra = -(BLOCK_BITS * nblocks) % 8
    padded = value << (BLOCK_BITS * nblocks - nbits + extra)
    data = padded.to_bytes((BLOCK_BITS * nblocks + extra) // 8, "big")
    blocks = []
    acc = 0
    accbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        accbits += 8
        if accbits >= BLOCK_BITS:
            accbits -= BLOCK_BITS
            blocks.append(acc >> accbits)
            acc &= (1 << accbits) - 1
    return PaddedMessage(blocks=tuple(blocks), tail_bits=tail_bits)


def reassemble_bits(msg: PaddedMessage) -> tuple[int, int]:
    """Inverse of segment_bits: the packed value and its bit width."""
    nblocks = len(msg.blocks)
    if nblocks == 0:
        raise EmptyInput("message has no blocks")
    if not 1 <= msg.tail_bits <= BLOCK_BITS:
        raise ValueOutOfRange(f"tail_bits must be in [1,30], got {msg.tail_bits}")
    out = bytearray()
    acc = 0
    accbits = 0
    for b in msg.blocks:
        if not 0 <= b < 1 << BLOCK_BITS:
            raise WrongLength(f"block out of range: {b!r}")
        acc = (acc << BLOCK_BITS) | b
        accbits += BLOCK_BITS
        while accbits >= 8:
            accbits -= 8
            out.append(acc >> accbits)
            acc &= (1 << accbits) - 1
    if accbits:
        out.append((acc << (8 - accbits)) & 0xFF)
    nbits = BLOCK_BITS * (nblocks - 1) + msg.tail_bits
    value = int.from_bytes(out, "big") >> (8 * len(out) - nbits)
    return value, nbits


def segment_message(payload: bytes) -> PaddedMessage:
    """Split a byte payload into 30-bit blocks, zero-padding the tail."""
    if len(payload) == 0:
        raise EmptyInput("payload must not be empty")
    return segment_bits(int.from_bytes(payload, "big"), 8 * len(payload))


def reassemble_message(msg: PaddedMessage) -> bytes:
    """Rebuild the byte payload, dropping the tail padding bits."""
    value, nbits = reassemble_bits(msg)
    if nbits % 8 != 0:
        raise WrongLength(f"{nbits} bits do not form whole bytes")
    return value.to_bytes(nbits // 8, "big")
