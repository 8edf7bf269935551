"""Compression engine: the target traversal that turns a 15-symbol block
into Reduced/Sequence/Term matrices under an Add-Sub Matrix, and the
inverse: a rebuild from SM and TM alone, checked against RM.

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
from operator import mul
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

    @property
    def deltas(self) -> tuple[tuple[int, ...], ...]:
        """The whole table by prime index: deltas[t][c] == delta(PRIMES[t], PRIMES[c])."""
        return tuple(tuple(2 * ((o >> (3 - c)) & 1) - 1 for c in range(4)) for o in self.orders)


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


def decompress_block(
    rm: Sequence[Optional[int]],
    sm: Sequence[Sequence[tuple[int, int]]],
    tm: Sequence[Optional[tuple[int, int]]],
    deltas: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """Rebuild the 15-symbol block; exact inverse of compress_block for
    honest inputs. Every matrix is indexed by prime index (0..3 for
    2,3,5,7): rm[i] is the outcome or None, sm[i] the (seq, redundant)
    events, each term slot None or (prime index, last_seq), and
    deltas[t][c] the Add-Sub Matrix entry.

    The structure comes from TM and SM alone. Term slots are replayed left
    to right, each target placed in front of the cells of the targets
    processed after it: its events put its absorbed runs among those cells
    and every other sequence number crosses one of them, so the crossings
    must number exactly the cells already placed. RM is then a keyed
    checksum: the compressor's cursor crosses each placed cell once, so a
    target's outcome must be t*count(t) plus the sum of deltas[t][c] over
    the placed cells. Any other state means wrong key or tampering.
    """
    occupied = [slot for slot in tm if slot is not None]
    if None in tm[: len(occupied)]:
        raise IntegrityFailure(f"term slots {tuple(tm)} are not a left prefix")
    block: list[int] = []
    counts = [0] * len(PRIMES)
    n_events = 0
    for t, last_seq in occupied:
        events = sm[t]
        placed = len(block)
        if counts[t]:
            raise IntegrityFailure(f"prime {PRIMES[t]} holds two term slots")
        if last_seq - len(events) != placed:
            raise IntegrityFailure(
                f"prime {PRIMES[t]}: {last_seq - len(events)} crossings over {placed} placed cells"
            )
        rebuilt = [t]
        prev = pos = 0
        for seq, run in events:
            if not (prev < seq <= last_seq and seq < SYMBOLS_PER_BLOCK and 0 < run < SYMBOLS_PER_BLOCK):
                raise IntegrityFailure(f"prime {PRIMES[t]}: event ({seq},{run}) out of order or range")
            rebuilt += block[pos : pos + seq - prev - 1]
            rebuilt += [t] * run
            pos += seq - prev - 1
            prev = seq
        rebuilt += block[pos:]
        if rm[t] != PRIMES[t] * (len(rebuilt) - placed) + sum(map(mul, deltas[t], counts)):
            raise IntegrityFailure(f"prime {PRIMES[t]}: outcome {rm[t]} fails the checksum")
        counts[t] = len(rebuilt) - placed
        n_events += len(events)
        block = rebuilt
    if len(block) != SYMBOLS_PER_BLOCK:
        raise IntegrityFailure(f"reconstructed {len(block)} symbols, expected 15")
    # Every target passed the checksum, so it has an outcome; the counts
    # match only if no other prime has an outcome or events.
    if rm.count(None) != len(PRIMES) - len(occupied) or sum(map(len, sm)) != n_events:
        raise IntegrityFailure("a prime without a term slot has an outcome or events")
    return tuple(map(PRIMES.__getitem__, block))
