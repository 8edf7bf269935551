"""Bit-level codec: 30-bit blocks <-> 15 prime symbols, and byte payloads
<-> padded block sequences.

A block is an int in [0, 2**30); its bits are read MSB-first. Consecutive
bit pairs map to the first four primes:

    00 <-> 2    01 <-> 3    10 <-> 5    11 <-> 7

so one block becomes exactly 15 symbols, symbol i being the bit pair
(block >> SHIFTS[i]) & 3.

An n-byte payload is read MSB-first as 8n bits and cut into ceil(8n/30)
blocks, the block count the cipher header stores. As lcm(8, 30) = 120,
every 15 bytes are exactly 4 blocks, so the codec converts one 15-byte
chunk at a time: the payload is zero-padded to whole chunks and the
blocks past the count are dropped, which leaves the final block
zero-padded on the right. Its first tail_bits = 8n - 30*(count - 1) bits
carry payload; for a byte payload that number is always even.
"""

from operator import lshift
from typing import NamedTuple, Sequence

from .errors import EmptyInput, WrongLength, ValueOutOfRange

BLOCK_BITS = 30
SYMBOLS_PER_BLOCK = 15
PRIMES = (2, 3, 5, 7)
SHIFTS = range(BLOCK_BITS - 2, -1, -2)  # symbol i is the bit pair (block >> SHIFTS[i]) & 3
CHUNK_BYTES = 15  # lcm(8, 30) = 120 bits, so 15 bytes are exactly 4 blocks
_CHUNK_SHIFTS = (90, 60, 30, 0)  # block j of a chunk is (chunk >> _CHUNK_SHIFTS[j]) & _BLOCK_MASK
_BLOCK_MASK = (1 << BLOCK_BITS) - 1

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
    return tuple(PRIMES[(block >> shift) & 3] for shift in SHIFTS)


def symbols_to_block(symbols: Sequence[int]) -> int:
    """Inverse of block_to_symbols; round-trips exactly."""
    if len(symbols) != SYMBOLS_PER_BLOCK:
        raise WrongLength(f"expected 15 symbols, got {len(symbols)}")
    block = 0
    for s, shift in zip(symbols, SHIFTS):
        if s not in PRIME_INDEX:
            raise ValueOutOfRange(f"symbol must be one of {PRIMES}, got {s!r}")
        block |= PRIME_INDEX[s] << shift
    return block


def segment_message(payload: bytes) -> PaddedMessage:
    """Split a byte payload into 30-bit blocks, zero-padding the tail."""
    if len(payload) == 0:
        raise EmptyInput("payload must not be empty")
    nbits = 8 * len(payload)
    nblocks = -(-nbits // BLOCK_BITS)
    data = payload + bytes(-len(payload) % CHUNK_BYTES)
    chunks = (int.from_bytes(data[i : i + CHUNK_BYTES], "big") for i in range(0, len(data), CHUNK_BYTES))
    blocks = [chunk >> shift & _BLOCK_MASK for chunk in chunks for shift in _CHUNK_SHIFTS]
    return PaddedMessage(blocks=tuple(blocks[:nblocks]), tail_bits=nbits - BLOCK_BITS * (nblocks - 1))


def reassemble_message(msg: PaddedMessage) -> bytes:
    """Rebuild the byte payload, dropping the tail padding bits."""
    blocks, tail_bits = msg
    if len(blocks) == 0:
        raise EmptyInput("message has no blocks")
    if not 1 <= tail_bits <= BLOCK_BITS:
        raise ValueOutOfRange(f"tail_bits must be in [1,30], got {tail_bits}")
    for b in blocks:
        if not 0 <= b <= _BLOCK_MASK:
            raise WrongLength(f"block out of range: {b!r}")
    nbits = BLOCK_BITS * (len(blocks) - 1) + tail_bits
    if nbits % 8 != 0:
        raise WrongLength(f"{nbits} bits do not form whole bytes")
    padded = [*blocks, 0, 0, 0]
    data = b"".join(
        sum(map(lshift, padded[i : i + 4], _CHUNK_SHIFTS)).to_bytes(CHUNK_BYTES, "big")
        for i in range(0, len(blocks), 4)
    )
    return data[: nbits // 8]
