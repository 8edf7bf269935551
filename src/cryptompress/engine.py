"""Compression engine: the target traversal that turns a 15-symbol block
into Reduced/Sequence/Term matrices under an Add-Sub Matrix, and the
inverse reconstruction.

One traversal: the first cell's prime becomes the target. A cursor starts
on that cell carrying the target's own value and walks right. A maximal
run of same-prime cells immediately right of the cursor is absorbed in one
step (cells removed, their sum added, one sequence event recorded); any
other cell is crossed, adding the +-1 delta the Add-Sub Matrix assigns to
that (target, crossed) pair. When the cursor reaches the right end its
value is the target's outcome. Targets are processed this way until the
residual is empty.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .codec import PRIME_INDEX, PRIMES, SYMBOLS_PER_BLOCK
from .errors import EmptyResidual, IntegrityFailure, ValueOutOfRange


@dataclass(frozen=True)
class AddSubMatrix:
    """4x4 lookup of +-1 deltas, one order nibble per target in (2,3,5,7).

    Bit 1 means +1, bit 0 means -1; nibble bits are read MSB->LSB as
    columns (2,3,5,7). The diagonal bit is a don't-care: a target never
    crosses its own prime, it absorbs it.
    """

    orders: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.orders) != 4 or any(not 0 <= o <= 15 for o in self.orders):
            raise ValueOutOfRange(f"orders must be four nibbles, got {self.orders!r}")

    def delta(self, target: int, crossed: int) -> int:
        bit = (self.orders[PRIME_INDEX[target]] >> (3 - PRIME_INDEX[crossed])) & 1
        return 1 if bit else -1


class SequenceEvent(NamedTuple):
    seq: int
    redundant: int


# SequenceMatrix: {prime: [SequenceEvent, ...]}, all four primes keyed.
SequenceMatrix = dict[int, list[SequenceEvent]]
# ReducedMatrix: {prime: outcome or None when the prime is absent}.
ReducedMatrix = dict[int, Optional[int]]
# TermMatrix: four slots left to right; occupied slots are a left prefix
# holding (prime, last_seq) in reverse processing order.
TermMatrix = tuple[Optional[tuple[int, int]], ...]


@dataclass(frozen=True)
class CompressedBlock:
    rm: ReducedMatrix
    sm: SequenceMatrix
    tm: TermMatrix


class TraversalResult(NamedTuple):
    target: int
    outcome: int
    events: list[SequenceEvent]
    last_seq: int
    new_residual: list[int]


class TraceStep(NamedTuple):
    """One traversal step for rendering: absorb steps carry `redundant`,
    crossing steps carry the crossed prime."""

    target: int
    seq: int
    action: str  # "absorb" | "cross"
    detail: int
    value: int


def traverse_target(
    residual: Sequence[int],
    asm: AddSubMatrix,
    trace: Optional[list[TraceStep]] = None,
) -> TraversalResult:
    """Run one target's traversal over the residual block."""
    if len(residual) == 0:
        raise EmptyResidual("cannot traverse an empty residual")
    target = residual[0]
    value = target
    events: list[SequenceEvent] = []
    kept: list[int] = []
    seq = 0
    i = 1
    n = len(residual)
    while i < n:
        if residual[i] == target:
            run = 0
            while i < n and residual[i] == target:
                run += 1
                i += 1
            seq += 1
            value += run * target
            events.append(SequenceEvent(seq, run))
            if trace is not None:
                trace.append(TraceStep(target, seq, "absorb", run, value))
        else:
            seq += 1
            crossed = residual[i]
            value += asm.delta(target, crossed)
            kept.append(crossed)
            i += 1
            if trace is not None:
                trace.append(TraceStep(target, seq, "cross", crossed, value))
    return TraversalResult(target, value, events, seq, kept)


def compress_block(
    symbols: Sequence[int],
    asm: AddSubMatrix,
    trace: Optional[list[TraceStep]] = None,
) -> CompressedBlock:
    """Compress a 15-symbol block into RM/SM/TM under the given matrix."""
    if len(symbols) != SYMBOLS_PER_BLOCK:
        raise ValueOutOfRange(f"expected 15 symbols, got {len(symbols)}")
    if any(s not in PRIME_INDEX for s in symbols):
        raise ValueOutOfRange(f"symbols must be drawn from {PRIMES}")
    rm: ReducedMatrix = {p: None for p in PRIMES}
    sm: SequenceMatrix = {p: [] for p in PRIMES}
    processed: list[tuple[int, int]] = []  # (prime, last_seq) in order
    residual = list(symbols)
    while residual:
        res = traverse_target(residual, asm, trace)
        rm[res.target] = res.outcome
        sm[res.target] = res.events
        processed.append((res.target, res.last_seq))
        residual = res.new_residual
    # Left-most occupied slot names the last processed target.
    slots: list[Optional[tuple[int, int]]] = [None] * 4
    for j, entry in enumerate(reversed(processed)):
        slots[j] = entry
    return CompressedBlock(rm=rm, sm=sm, tm=tuple(slots))


def _validate_events(prime: int, events: Sequence[SequenceEvent], last_seq: int) -> dict[int, int]:
    """Shape-check one prime's event list as seen on the decrypt path.

    Wrong keys produce arbitrary nibble pairs here; anything the forward
    traversal could never emit is an integrity failure.
    """
    by_seq: dict[int, int] = {}
    prev = 0
    for seq, redundant in events:
        if seq <= prev:
            raise IntegrityFailure(f"prime {prime}: sequence numbers not increasing")
        if not 1 <= seq <= 14 or not 1 <= redundant <= 14:
            raise IntegrityFailure(f"prime {prime}: event ({seq},{redundant}) out of range")
        if seq > last_seq:
            raise IntegrityFailure(f"prime {prime}: event past last sequence number {last_seq}")
        by_seq[seq] = redundant
        prev = seq
    return by_seq


def decompress_block(cb: CompressedBlock, asm: AddSubMatrix) -> tuple[int, ...]:
    """Rebuild the 15-symbol block from RM/SM/TM; exact inverse of
    compress_block for honest inputs.

    Term slots are replayed left to right. Each target's cursor starts at
    the right end of the partial block carrying the stored outcome and
    walks the sequence numbers backwards: recorded events re-insert the
    absorbed cells and subtract their sum, everything else is an inverse
    crossing subtracting the matrix delta of the cell left of the cursor.
    The cursor must come to rest at position 0 holding exactly the
    target's value; any other end state means wrong key or tampering.
    """
    occupied: list[tuple[int, int]] = []
    seen_empty = False
    for slot in cb.tm:
        if slot is None:
            seen_empty = True
        else:
            if seen_empty:
                raise IntegrityFailure("term slots are not a left prefix")
            occupied.append(slot)
    if not occupied:
        raise IntegrityFailure("no term slots occupied")
    primes_in_tm = [p for p, _ in occupied]
    if any(p not in PRIME_INDEX for p in primes_in_tm):
        raise IntegrityFailure("term slot names a non-prime target")
    if len(set(primes_in_tm)) != len(primes_in_tm):
        raise IntegrityFailure("duplicate prime in term slots")
    for p in PRIMES:
        present = p in primes_in_tm
        if present and cb.rm.get(p) is None:
            raise IntegrityFailure(f"prime {p} has a term slot but no outcome")
        if not present and cb.rm.get(p) is not None:
            raise IntegrityFailure(f"prime {p} has an outcome but no term slot")
        if not present and cb.sm.get(p):
            raise IntegrityFailure(f"prime {p} has events but no term slot")

    block: list[int] = []
    for target, last_seq in occupied:
        # last_seq 0 is honest: a last-processed prime occurring once
        # traverses in zero steps. The cursor checks below still apply.
        if last_seq < 0:
            raise IntegrityFailure(f"prime {target}: negative last sequence number")
        by_seq = _validate_events(target, cb.sm.get(target, []), last_seq)
        value = cb.rm[target]
        cursor = len(block)
        for n in range(last_seq, 0, -1):
            if n in by_seq:
                r = by_seq[n]
                value -= r * target
                block[cursor:cursor] = [target] * r
                if len(block) >= SYMBOLS_PER_BLOCK:
                    raise IntegrityFailure("reconstruction exceeds block size")
            else:
                if cursor == 0:
                    raise IntegrityFailure(
                        f"prime {target}: inverse crossing with no cell to the left"
                    )
                cursor -= 1
                value -= asm.delta(target, block[cursor])
        if cursor != 0 or value != target:
            raise IntegrityFailure(
                f"prime {target}: cursor ended at {cursor} with value {value}"
            )
        block.insert(0, target)
    if len(block) != SYMBOLS_PER_BLOCK:
        raise IntegrityFailure(f"reconstructed {len(block)} symbols, expected 15")
    return tuple(block)
