"""Compression engine: the target traversal that turns a 30-bit block
into Reduced/Sequence/Term matrices under an Add-Sub Matrix, and the
inverse: a rebuild from SM and TM alone, checked against RM. Both work on
prime indices (0..3 for 2,3,5,7), the block's own bit pairs.

One traversal: the first cell's prime becomes the target. A cursor starts
on that cell carrying the target's own value and walks right. A maximal
run of same-prime cells immediately right of the cursor is absorbed in one
step (cells removed, their sum added, one sequence event recorded); any
other cell is crossed, adding the +-1 delta the Add-Sub Matrix assigns to
that (target, crossed) pair. When the cursor reaches the right end its
value is the target's outcome. Targets are processed this way until the
residual is empty.
"""

from operator import lshift, mul
from typing import Mapping, NamedTuple, Optional, Sequence

from .codec import BLOCK_BITS, PRIME_INDEX, PRIMES, SHIFTS, SYMBOLS_PER_BLOCK
from .errors import IntegrityFailure, ValueOutOfRange, WrongLength

_END = -1  # ends every residual walk; no prime index equals it


# typing.NamedTuple forbids overriding __new__ in the class body, so the
# range check lives in a subclass of this one-field record.
class _Orders(NamedTuple):
    orders: tuple[int, int, int, int]


class AddSubMatrix(_Orders):
    """4x4 lookup of +-1 deltas, one order nibble per target in (2,3,5,7).

    Bit 1 means +1, bit 0 means -1; nibble bits are read MSB->LSB as
    columns (2,3,5,7). The diagonal bit is a don't-care: a target never
    crosses its own prime, it absorbs it.
    """

    __slots__ = ()

    def __new__(cls, orders: tuple[int, int, int, int]) -> "AddSubMatrix":
        if len(orders) != 4 or any(not 0 <= o <= 15 for o in orders):
            raise ValueOutOfRange(f"orders must be four nibbles, got {orders!r}")
        return super().__new__(cls, orders)

    def delta(self, target: int, crossed: int) -> int:
        bit = (self.orders[PRIME_INDEX[target]] >> (3 - PRIME_INDEX[crossed])) & 1
        return 1 if bit else -1

    @property
    def deltas(self) -> tuple[tuple[int, ...], ...]:
        """The whole table by prime index: deltas[t][c] == delta(PRIMES[t], PRIMES[c])."""
        return tuple(tuple(2 * ((o >> (3 - c)) & 1) - 1 for c in range(4)) for o in self.orders)


class CompressedBlock(NamedTuple):
    """One compressed block, every matrix by prime index (0..3 for
    2,3,5,7): rm[i] is prime i's outcome or None when the prime is
    absent, sm[i] its (seq, run) events, and each of the four term slots
    None or (prime index, last_seq). Occupied term slots are a left prefix
    in reverse processing order."""

    rm: tuple[Optional[int], ...]
    sm: dict[int, list[tuple[int, int]]]
    tm: tuple[Optional[tuple[int, int]], ...]


class TraceStep(NamedTuple):
    """One traversal step for rendering: absorb steps carry `redundant`,
    crossing steps carry the crossed prime."""

    target: int
    seq: int
    action: str  # "absorb" | "cross"
    detail: int
    value: int


def compress_block(
    block: int,
    deltas: Sequence[Sequence[int]],
    trace: Optional[list[TraceStep]] = None,
) -> CompressedBlock:
    """Compress a 30-bit block under the Add-Sub Matrix as a delta table
    (deltas[t][c] by prime index). The 15 symbols are read straight from
    the block as prime indices, and each target walks the cells the
    earlier targets kept once. `trace`, when given, receives every step."""
    if not isinstance(block, int) or not 0 <= block < 1 << BLOCK_BITS:
        raise WrongLength(f"block must be a 30-bit value, got {block!r}")
    residual = [(block >> shift) & 3 for shift in SHIFTS]
    rm: list[Optional[int]] = [None] * len(PRIMES)
    sm: dict[int, list[tuple[int, int]]] = {t: [] for t in range(len(PRIMES))}
    processed: list[tuple[int, int]] = []  # (prime index, last_seq) in order
    while residual:
        t = residual[0]
        p, row, events = PRIMES[t], deltas[t], sm[t]
        value = p
        seq = run = 0
        kept = []
        residual.append(_END)
        for c in residual[1:]:
            if c == t:
                run += 1
                continue
            if run:  # a run ends where a crossing or the right end starts
                seq += 1
                value += run * p
                events.append((seq, run))
                if trace is not None:
                    trace.append(TraceStep(p, seq, "absorb", run, value))
                run = 0
            if c == _END:
                break
            seq += 1
            value += row[c]
            kept.append(c)
            if trace is not None:
                trace.append(TraceStep(p, seq, "cross", PRIMES[c], value))
        rm[t] = value
        processed.append((t, seq))
        residual = kept
    # Left-most occupied slot names the last processed target.
    processed.reverse()
    return CompressedBlock(tuple(rm), sm, tuple(processed) + (None,) * (len(PRIMES) - len(processed)))


# The rebuild's failures by reason, each with the message its details fill.
FAILURES = {
    "term_prefix": "term slots {} are not a left prefix",
    "duplicate_target": "prime {} holds two term slots",
    "crossings": "prime {}: {} crossings over {} placed cells",
    "event_order": "prime {}: event ({},{}) out of order or range",
    "rm_checksum": "prime {}: outcome {} fails the checksum",
    "size": "reconstructed {} symbols, expected 15",
    "orphan_outcome": "a prime without a term slot has an outcome or events",
}


def replay(
    slots: Sequence[tuple[int, int]],
    rm: Sequence[Optional[int]],
    sm: Mapping[int, Sequence[tuple[int, int]]],
    deltas: Sequence[Sequence[int]],
) -> list[int] | tuple:
    """Place the targets of `slots`, occupied term slots in TM order, from
    an empty block and check each: the rebuild's per-target checks, in its
    order. Returns the placed symbols as prime indices, or the first
    failure as rebuild returns it.

    Each target is placed in front of the cells of the targets processed
    after it: its events put its absorbed runs among those cells and every
    other sequence number crosses one of them, so the crossings must number
    exactly the cells already placed. RM is then a keyed checksum: the
    compressor's cursor crosses each placed cell once, so a target's
    outcome must be t*count(t) plus the sum of deltas[t][c] over the placed
    cells. A target's checks read only its own events and outcome and the
    targets before it, so replaying a prefix of the slots gives the
    verdict rebuild reaches at the prefix's last target.
    """
    block: list[int] = []
    counts = [0] * len(PRIMES)
    for t, last_seq in slots:
        events = sm[t]
        placed = len(block)
        if counts[t]:
            return ("duplicate_target", PRIMES[t])
        if last_seq - len(events) != placed:
            return ("crossings", PRIMES[t], last_seq - len(events), placed)
        rebuilt = [t]
        prev = pos = 0
        for seq, run in events:
            if not (prev < seq <= last_seq and seq < SYMBOLS_PER_BLOCK and 0 < run < SYMBOLS_PER_BLOCK):
                return ("event_order", PRIMES[t], seq, run)
            rebuilt += block[pos : pos + seq - prev - 1]
            rebuilt += [t] * run
            pos += seq - prev - 1
            prev = seq
        rebuilt += block[pos:]
        if rm[t] != PRIMES[t] * (len(rebuilt) - placed) + sum(map(mul, deltas[t], counts)):
            return ("rm_checksum", PRIMES[t], rm[t])
        counts[t] = len(rebuilt) - placed
        block = rebuilt
    return block


def rebuild(
    rm: Sequence[Optional[int]],
    sm: Mapping[int, Sequence[tuple[int, int]]],
    tm: Sequence[Optional[tuple[int, int]]],
    deltas: Sequence[Sequence[int]],
) -> int | tuple:
    """Rebuild the 30-bit block from the three matrices of a
    CompressedBlock and the delta table compress_block took; exact
    inverse of compress_block for honest inputs. On failure it returns,
    without raising, the tuple (reason, *details) that FAILURES[reason]
    formats; a tuple never equals a block.

    The structure comes from TM and SM alone: the occupied term slots must
    be a left prefix, replay places and checks their targets left to
    right, and the block must come to 15 symbols with no outcome or event
    outside those targets. Any other state means wrong key or tampering.
    No check before a target's slot reads that target's events, so
    analysis.bruteforce_demo, whose candidates differ only in the events of
    some primes, memoises replay's verdict up to the first of those by its
    mask byte, and rebuilds only the candidates that pass it.
    """
    occupied = [slot for slot in tm if slot is not None]
    if None in tm[: len(occupied)]:
        return ("term_prefix", tuple(tm))
    block = replay(occupied, rm, sm, deltas)
    if isinstance(block, tuple):
        return block
    if len(block) != SYMBOLS_PER_BLOCK:
        return ("size", len(block))
    # Every target passed the checksum, so it has an outcome; the count
    # matches only if no other prime has one, and then the primes without
    # an outcome are the others, which must have no events.
    if rm.count(None) != len(PRIMES) - len(occupied) or any(sm[t] for t, r in enumerate(rm) if r is None):
        return ("orphan_outcome",)
    return sum(map(lshift, block, SHIFTS))


def decompress_block(
    rm: Sequence[Optional[int]],
    sm: Mapping[int, Sequence[tuple[int, int]]],
    tm: Sequence[Optional[tuple[int, int]]],
    deltas: Sequence[Sequence[int]],
) -> int:
    """rebuild, raising IntegrityFailure with the failure's message and
    its reason instead of returning it."""
    block = rebuild(rm, sm, tm, deltas)
    if isinstance(block, tuple):
        raise IntegrityFailure(FAILURES[block[0]].format(*block[1:]), reason=block[0])
    return block
