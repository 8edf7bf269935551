"""Differential oracle for the encrypt path.

The step-by-step encrypt path is kept here as the reference:
`traverse_target` walks one target over a residual of prime symbols,
`reference_compress` runs it until the block is consumed and keys every
matrix by prime, `reference_data_cells` lays the 12 data cells out from
that shape, and `scramble` checks the 20-item inventory before it
scatters the cells through the slot table (`unscramble` gathers them
back). `engine.compress_block`, which reads prime indices straight from
the block in one pass, must give the same matrices and trace steps, and
`cipher.encrypt_block` the same grids.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import pytest

from cryptompress import analysis, codec
from cryptompress.cipher import (
    EMPTY,
    N_CELLS,
    RM,
    SM,
    TM,
    CipherGrid,
    check_tags,
    compile_key,
    decrypt_block,
    encrypt_block,
    seal_pairs,
)
from cryptompress.codec import PRIME_INDEX, PRIMES, SYMBOLS_PER_BLOCK
from cryptompress.engine import AddSubMatrix, CompressedBlock, TraceStep, compress_block
from cryptompress.errors import CryptompressError, ValueOutOfRange, WrongLength
from cryptompress.keyschedule import KeyChain, extend_key, generate_key


class EmptyResidual(CryptompressError):
    """A traversal was started on an empty residual block."""


class SequenceEvent(NamedTuple):
    seq: int
    redundant: int


@dataclass(frozen=True)
class PrimeBlock:
    """A compressed block keyed by prime: rm {prime: outcome or None}, sm
    {prime: [SequenceEvent, ...]} and four term slots holding
    (prime, last_seq) or None."""

    rm: dict
    sm: dict
    tm: tuple


class TraversalResult(NamedTuple):
    target: int
    outcome: int
    events: list
    last_seq: int
    new_residual: list


def traverse_target(residual: Sequence[int], asm: AddSubMatrix, trace: Optional[list] = None) -> TraversalResult:
    """Run one target's traversal over the residual block."""
    if len(residual) == 0:
        raise EmptyResidual("cannot traverse an empty residual")
    target = residual[0]
    value = target
    events = []
    kept = []
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


def reference_compress(symbols: Sequence[int], asm: AddSubMatrix, trace: Optional[list] = None) -> PrimeBlock:
    """Compress a 15-symbol block into RM/SM/TM under the given matrix."""
    if len(symbols) != SYMBOLS_PER_BLOCK:
        raise ValueOutOfRange(f"expected 15 symbols, got {len(symbols)}")
    if any(s not in PRIME_INDEX for s in symbols):
        raise ValueOutOfRange(f"symbols must be drawn from {PRIMES}")
    rm = {p: None for p in PRIMES}
    sm = {p: [] for p in PRIMES}
    processed = []  # (prime, last_seq) in order
    residual = list(symbols)
    while residual:
        res = traverse_target(residual, asm, trace)
        rm[res.target] = res.outcome
        sm[res.target] = res.events
        processed.append((res.target, res.last_seq))
        residual = res.new_residual
    # Left-most occupied slot names the last processed target.
    slots = [None] * 4
    for j, entry in enumerate(reversed(processed)):
        slots[j] = entry
    return PrimeBlock(rm=rm, sm=sm, tm=tuple(slots))


def index_shape(cb: PrimeBlock) -> CompressedBlock:
    """A block keyed by prime in the engine's shape, by prime index."""
    return CompressedBlock(
        tuple(cb.rm[p] for p in PRIMES),
        {i: cb.sm[p] for i, p in enumerate(PRIMES)},
        tuple(None if slot is None else (PRIME_INDEX[slot[0]], slot[1]) for slot in cb.tm),
    )


def reference_data_cells(cb: PrimeBlock, key) -> tuple:
    """The 12 data cells (rm, sm, tm), the sequence lists sealed under `key`."""
    cells = []
    for p in PRIMES:
        v = cb.rm.get(p)
        cells.append((EMPTY,) if v is None else (RM, v))
    for i, p in enumerate(PRIMES):
        cells.append((SM, seal_pairs(cb.sm.get(p, []), key.mask, key.swap, i)))
    for slot in cb.tm:
        if slot is None:
            cells.append((EMPTY,))
        else:
            prime, last_seq = slot
            cells.append((TM, PRIME_INDEX[prime], last_seq))
    return tuple(cells)


def check_items(cells):
    """Raise InventoryMismatch unless `cells` are the 20 logical items."""
    check_tags(tuple(c[0] for c in cells))


def scramble(cells, slots):
    """Scatter the 20 logical cells to their keyed slots."""
    check_items(cells)
    out = [None] * N_CELLS
    for cell, j in zip(cells, slots):
        out[j] = cell
    return tuple(out)


def unscramble(cells, slots):
    """Gather the logical layout back; two-sided inverse of scramble."""
    check_items(cells)
    return tuple(cells[j] for j in slots)


def reference_encrypt(block: int, chain: KeyChain) -> CipherGrid:
    key = compile_key(chain)
    cb = reference_compress(codec.block_to_symbols(block), key.asm)
    cells = key.asm_cells + reference_data_cells(cb, key)
    return CipherGrid(chain.base.orders, scramble(cells, key.slots), len(chain.sticky))


def _run_heavy_block(rng: random.Random) -> int:
    """A block of few long runs, so targets absorb more than they cross."""
    return analysis.biased_blocks(1, rng.getrandbits(32), stay=rng.choice((0.5, 0.8, 0.95)))[0]


EDGE_BLOCKS = (0, (1 << 30) - 1, 1, 0x2AF738F9, 0x04444444, 0x15555555, 0x2AAAAAAA)


def test_one_pass_compress_and_encrypt_match_reference_on_20000_blocks():
    rng = random.Random(20261019)
    asms = set()
    depths = [0] * 4
    for n in range(20_000):
        if n % 100 == 0:  # a fresh key every 100 blocks, depths 0-3 in turn
            chain = KeyChain(generate_key(rng))
            for _ in range(n // 100 % 4):
                chain = extend_key(chain, rng)
            key = compile_key(chain)
            asms.add(key.asm.orders)
        if n % 100 < len(EDGE_BLOCKS):
            block = EDGE_BLOCKS[n % 100]
        else:
            block = rng.getrandbits(30) if n % 2 else _run_heavy_block(rng)
        steps, want_steps = [], []
        cb = compress_block(block, key.deltas, steps)
        want = reference_compress(codec.block_to_symbols(block), key.asm, want_steps)
        assert cb == index_shape(want), (n, block)
        assert steps == want_steps, (n, block)
        grid = encrypt_block(block, chain)
        check_items(grid.cells)
        assert grid == reference_encrypt(block, chain), (n, block)
        assert decrypt_block(grid, chain) == block
        depths[len(chain.sticky)] += 1
    assert len(asms) >= 100
    assert depths == [5000] * 4


@pytest.mark.parametrize("block", [-1, 1 << 30])
def test_out_of_range_block_is_wrong_length(block):
    chain = KeyChain(generate_key(random.Random(3)))
    with pytest.raises(WrongLength):
        compress_block(block, compile_key(chain).deltas)
    with pytest.raises(WrongLength):
        encrypt_block(block, chain)
