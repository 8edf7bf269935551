"""Block pipeline: compression output -> keyed XOR of the sequence data ->
sticky Feistel rounds -> keyed scramble of the 20 result cells.

The ciphertext of one block is a grid of six columns: the Order column in
clear (the scheme's own design, an acknowledged information leak) and five
scrambled data columns holding, per target row, the horizontal and
vertical matrix strings, the reduced outcome, the sequence list and the
term pair.

A key chain is compiled once (compile_key). Each sticky round maps a
stored (S, R) pair to (R xor k_r, S xor k_s), so the base XOR and every
sticky round compose into one XOR with a 32-bit mask plus a swap when the
chain's depth is odd; the 20 swaps of the scramble compose into one slot
table.
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from . import codec
from .engine import (
    AddSubMatrix,
    CompressedBlock,
    SequenceEvent,
    SequenceMatrix,
    compress_block,
    decompress_block,
)
from .errors import (
    IncompleteGrid,
    IntegrityFailure,
    RoundCountMismatch,
    ValueOutOfRange,
)
from .keyschedule import (
    KeyChain,
    NibbleTable,
    derive_material,
    extend_key,
    sticky_nibbles,
)

PRIMES = codec.PRIMES
N_KINDS = 5
N_SLOTS = 4
N_CELLS = N_KINDS * N_SLOTS
SM_BASE = 3 * N_SLOTS  # logical index of prime 2's sequence-list cell


@dataclass(frozen=True)
class EmptyCell:
    pass


@dataclass(frozen=True)
class AsmStringCell:
    """One matrix row or column: where the self-mark X sits and the four
    sign bits (MSB->LSB over targets 2,3,5,7; 1 is +1)."""

    x_pos: int
    sign_mask: int

    def render(self) -> str:
        parts = []
        for i in range(4):
            if i == self.x_pos:
                parts.append("X")
            else:
                parts.append("+1" if (self.sign_mask >> (3 - i)) & 1 else "-1")
        return "".join(parts)


@dataclass(frozen=True)
class RmOutcomeCell:
    value: int


@dataclass(frozen=True)
class SmListCell:
    pairs: tuple[tuple[int, int], ...]

    def render(self) -> str:
        return " ; ".join(f"{s}|{r}" for s, r in self.pairs) if self.pairs else "(none)"


@dataclass(frozen=True)
class TmPairCell:
    prime_code: int  # index into (2,3,5,7)
    last_seq: int

    def render(self) -> str:
        return f"{PRIMES[self.prime_code]}|{self.last_seq}"


Cell = Union[EmptyCell, AsmStringCell, RmOutcomeCell, SmListCell, TmPairCell]


@dataclass(frozen=True)
class CipherGrid:
    """One block's ciphertext: clear order nibbles, 20 scrambled cells
    (kind-major: index = kind*4 + slot) and the sticky round count."""

    orders: tuple[int, int, int, int]
    cells: tuple[Cell, ...]
    sticky_rounds: int

    def cell(self, kind: int, slot: int) -> Cell:
        return self.cells[kind * N_SLOTS + slot]

    def rows(self) -> list[list[Cell]]:
        """Cells as 4 rows x 5 data columns, the presentation layout."""
        return [[self.cell(k, r) for k in range(N_KINDS)] for r in range(N_SLOTS)]


def _check_inventory(cells: Sequence[Cell], exc: type[Exception]) -> None:
    counts = {EmptyCell: 0, AsmStringCell: 0, RmOutcomeCell: 0, SmListCell: 0, TmPairCell: 0}
    if len(cells) != N_CELLS:
        raise exc(f"expected {N_CELLS} cells, got {len(cells)}")
    for c in cells:
        if type(c) not in counts:
            raise exc(f"unknown cell type {type(c).__name__}")
        counts[type(c)] += 1
    m = counts[RmOutcomeCell]
    if (
        counts[AsmStringCell] != 8
        or counts[SmListCell] != 4
        or counts[TmPairCell] != m
        or not 1 <= m <= 4
        or counts[EmptyCell] != 8 - 2 * m
    ):
        raise exc(f"cell inventory is not a permutation of the 20 logical items: {counts}")


def check_rounds(rounds: int, chain: KeyChain) -> None:
    """Raise RoundCountMismatch unless a ciphertext's sticky round count
    matches the chain's depth."""
    if rounds != len(chain.sticky):
        raise RoundCountMismatch(
            f"ciphertext carries {rounds} sticky rounds, key chain has {len(chain.sticky)}"
        )


class CompiledKey(NamedTuple):
    """What a key chain contributes to every block, derived once.

    `slots[i]` is where logical cell i sits in the scrambled grid. `mask`
    holds one byte per prime (2,3,5,7 from the MSB), S nibble high: a
    stored pair is the plain pair, swapped when `swap`, XORed with its
    prime's byte."""

    asm: AddSubMatrix
    slots: tuple[int, ...]
    mask: int
    swap: bool


def _nswap(word: int) -> int:
    """Swap the two nibbles of every byte of a 32-bit word."""
    return ((word >> 4) & 0x0F0F0F0F) | ((word & 0x0F0F0F0F) << 4)


@lru_cache(maxsize=256)
def _slot_table(table: NibbleTable) -> tuple[int, ...]:
    """Compose the 20 fixed transpositions the placement table defines
    (each kind hands one cell per slot to the next kind in the cycle, at
    the slot its nibble names mod 4) into one logical -> scrambled map."""
    at = list(range(N_CELLS))  # at[j]: logical index now at position j
    for k in range(N_KINDS):
        for i, n in enumerate(table.group(k)):
            a, b = k * N_SLOTS + i, (k + 1) % N_KINDS * N_SLOTS + n % 4
            at[a], at[b] = at[b], at[a]
    slots = [0] * N_CELLS
    for j, i in enumerate(at):
        slots[i] = j
    return tuple(slots)


@lru_cache(maxsize=64)
def compile_key(chain: KeyChain) -> CompiledKey:
    """Fold the base XOR word and the sticky words, oldest first, into one
    mask: m = base; m = nswap(m ^ w) per word."""
    asm, table, _ = derive_material(chain.base)
    mask = chain.base.xor_word
    for word in chain.sticky:
        mask = _nswap(mask ^ word)
    return CompiledKey(asm, _slot_table(table), mask, len(chain.sticky) % 2 == 1)


def _pair_mask(mask: int, prime_index: int) -> tuple[int, int]:
    return (mask >> (28 - 8 * prime_index)) & 15, (mask >> (24 - 8 * prime_index)) & 15


def seal_pairs(pairs, key: CompiledKey, prime_index: int) -> tuple[tuple[int, int], ...]:
    """The whole SM key layer on one prime's (S, R) pairs: the base XOR
    and every sticky round, as one swap-then-XOR."""
    ms, mr = _pair_mask(key.mask, prime_index)
    if key.swap:
        return tuple((r ^ ms, s ^ mr) for s, r in pairs)
    return tuple((s ^ ms, r ^ mr) for s, r in pairs)


def open_pairs(pairs, key: CompiledKey, prime_index: int) -> list[SequenceEvent]:
    """Inverse of seal_pairs; rejects values that do not fit a nibble."""
    ms, mr = _pair_mask(key.mask, prime_index)
    out = []
    for a, b in pairs:
        if not (0 <= a <= 15 and 0 <= b <= 15):
            raise ValueOutOfRange(f"prime {PRIMES[prime_index]}: ({a},{b}) does not fit a nibble")
        out.append(SequenceEvent(b ^ mr, a ^ ms) if key.swap else SequenceEvent(a ^ ms, b ^ mr))
    return out


def sticky_round(pairs, k_s: int, k_r: int) -> tuple[tuple[int, int], ...]:
    """One more hardening round on stored pairs: XOR both halves with the
    prime's sticky nibbles, then swap them."""
    return tuple((r ^ k_r, s ^ k_s) for s, r in pairs)


def scramble(cells: Sequence[Cell], slots: Sequence[int]) -> tuple[Cell, ...]:
    """Scatter the 20 logical cells to their keyed slots."""
    _check_inventory(cells, IncompleteGrid)
    out: list[Optional[Cell]] = [None] * N_CELLS
    for cell, j in zip(cells, slots):
        out[j] = cell
    return tuple(out)


def unscramble(cells: Sequence[Cell], slots: Sequence[int]) -> tuple[Cell, ...]:
    """Gather the logical layout back; two-sided inverse of scramble."""
    _check_inventory(cells, IncompleteGrid)
    return tuple(cells[j] for j in slots)


@lru_cache(maxsize=64)
def _asm_cells(orders: tuple[int, int, int, int]) -> tuple[AsmStringCell, ...]:
    """The 8 matrix-string cells: the order nibbles as rows, then the
    transposed bit matrix as columns."""
    columns = [sum(((orders[t] >> (3 - c)) & 1) << (3 - t) for t in range(4)) for c in range(4)]
    return tuple(AsmStringCell(x_pos=i % 4, sign_mask=m) for i, m in enumerate(orders + tuple(columns)))


def data_cells(cb: CompressedBlock, key: Optional[CompiledKey] = None) -> tuple[Cell, ...]:
    """The 12 data cells (rm, sm, tm) a compressed block contributes, the
    sequence lists sealed under `key` when one is given."""
    cells: list[Cell] = []
    for p in PRIMES:
        v = cb.rm.get(p)
        cells.append(EmptyCell() if v is None else RmOutcomeCell(v))
    for i, p in enumerate(PRIMES):
        pairs = cb.sm.get(p, [])
        cells.append(SmListCell(tuple(pairs) if key is None else seal_pairs(pairs, key, i)))
    for slot in cb.tm:
        if slot is None:
            cells.append(EmptyCell())
        else:
            prime, last_seq = slot
            cells.append(TmPairCell(PRIMES.index(prime), last_seq))
    return tuple(cells)


def logical_cells(key: CompiledKey, cb: CompressedBlock) -> tuple[Cell, ...]:
    """Lay the 20 items out unscrambled, kind-major (asmh, asmv, rm, sm, tm)."""
    return _asm_cells(key.asm.orders) + data_cells(cb, key)


def _split_logical(cells: Sequence[Cell], key: CompiledKey) -> CompressedBlock:
    """Inverse of logical_cells for the decrypt path; raises
    IntegrityFailure when a slot holds a cell of the wrong kind.

    The matrix-string columns carry their own placement witness: a string
    cell's X mark sits on the diagonal, so x_pos must equal the slot it
    occupies. Checking that needs no key material and catches scramble
    misplacement that would otherwise be invisible (these two columns are
    never consulted while restoring the block)."""
    for kind in (0, 1):
        for i in range(N_SLOTS):
            c = cells[kind * N_SLOTS + i]
            if not isinstance(c, AsmStringCell):
                raise IntegrityFailure(
                    f"matrix-string slot ({kind},{i}) holds {type(c).__name__}"
                )
            if c.x_pos != i:
                raise IntegrityFailure(
                    f"matrix-string cell at slot {i} marks position {c.x_pos}"
                )
    rm = {}
    for i, p in enumerate(PRIMES):
        c = cells[2 * N_SLOTS + i]
        if isinstance(c, RmOutcomeCell):
            rm[p] = c.value
        elif isinstance(c, EmptyCell):
            rm[p] = None
        else:
            raise IntegrityFailure(f"outcome slot for prime {p} holds {type(c).__name__}")
        s = cells[SM_BASE + i]
        if not isinstance(s, SmListCell):
            raise IntegrityFailure(f"sequence slot for prime {p} holds {type(s).__name__}")
    tm: list[Optional[tuple[int, int]]] = []
    for i in range(N_SLOTS):
        c = cells[4 * N_SLOTS + i]
        if isinstance(c, TmPairCell):
            tm.append((PRIMES[c.prime_code], c.last_seq))
        elif isinstance(c, EmptyCell):
            tm.append(None)
        else:
            raise IntegrityFailure(f"term slot {i} holds {type(c).__name__}")
    sm: SequenceMatrix = {p: open_pairs(cells[SM_BASE + i].pairs, key, i) for i, p in enumerate(PRIMES)}
    return CompressedBlock(rm=rm, sm=sm, tm=tuple(tm))


def encrypt_block(block: int, chain: KeyChain) -> CipherGrid:
    """Encrypt one 30-bit block under the full key chain."""
    key = compile_key(chain)
    cb = compress_block(codec.block_to_symbols(block), key.asm)
    return CipherGrid(
        orders=chain.base.orders,
        cells=scramble(logical_cells(key, cb), key.slots),
        sticky_rounds=len(chain.sticky),
    )


def decrypt_block(grid: CipherGrid, chain: KeyChain) -> int:
    """Invert encrypt_block. Raises RoundCountMismatch when the chain's
    sticky depth disagrees with the grid, IntegrityFailure when the
    reconstruction checks fail (wrong key or tampered ciphertext)."""
    check_rounds(grid.sticky_rounds, chain)
    key = compile_key(chain)
    cb = _split_logical(unscramble(grid.cells, key.slots), key)
    return codec.symbols_to_block(decompress_block(cb, key.asm))


def harden_message(
    grids: Sequence[CipherGrid], chain: KeyChain, rng: random.Random | None = None
) -> tuple[tuple[CipherGrid, ...], KeyChain]:
    """Respond to a failed attempt: grow the chain by one 32-bit sticky
    key and rewrite the sequence portion of every block's ciphertext.

    Cell placement is untouched: the round is applied to the four
    sequence-list cells where they sit in the scrambled grid.
    """
    for grid in grids:
        check_rounds(grid.sticky_rounds, chain)
    new_chain = extend_key(chain, rng)
    ks = sticky_nibbles(new_chain.sticky[-1])
    sm_slots = compile_key(chain).slots[SM_BASE : SM_BASE + N_SLOTS]
    out = []
    for grid in grids:
        _check_inventory(grid.cells, IncompleteGrid)
        cells = list(grid.cells)
        for i, j in enumerate(sm_slots):
            c = cells[j]
            if not isinstance(c, SmListCell):
                raise IntegrityFailure(
                    f"sequence slot for prime {PRIMES[i]} holds {type(c).__name__}"
                )
            cells[j] = SmListCell(sticky_round(c.pairs, ks[2 * i], ks[2 * i + 1]))
        out.append(
            CipherGrid(orders=grid.orders, cells=tuple(cells), sticky_rounds=grid.sticky_rounds + 1)
        )
    return tuple(out), new_chain
