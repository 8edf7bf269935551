"""Block pipeline: compression output -> keyed XOR of the sequence data ->
sticky Feistel rounds -> keyed scramble of the 20 result cells.

The ciphertext of one block is a grid of six columns: the Order column in
clear (the scheme's own design, an acknowledged information leak) and five
scrambled data columns holding, per target row, the horizontal and
vertical matrix strings, the reduced outcome, the sequence list and the
term pair.

A chain's key material is compiled once (compile_key): its delta table,
matrix-string cells, slot tables and mask. Each sticky round maps a
stored (S, R) pair to (R xor k_r, S xor k_s), so the base XOR and every
sticky round compose into one 32-bit mask plus a swap when the chain's
depth is odd, and the 20 swaps of the scramble into one slot table, which
reads only the base key, never its XOR word. seal_pairs is the one place
the SM layer touches pairs: encrypt seals under (mask, swap), decrypt
under nswap(mask) when the chain swaps, and a hardening round
(harden_cells) is a seal under nswap(word) with a swap.
"""

import random
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Sequence

from .codec import PRIMES
from .engine import AddSubMatrix, CompressedBlock, compress_block, decompress_block
from .errors import IntegrityFailure, InventoryMismatch, RoundCountMismatch, ValueOutOfRange
from .keyschedule import KeyChain, derive_material, extend_key

N_KINDS = 5
N_SLOTS = 4
N_CELLS = N_KINDS * N_SLOTS
SM_BASE = 3 * N_SLOTS  # logical index of prime 2's sequence-list cell

# A cell is a tuple whose first element is its tag, the same tag that
# leads it on the wire, so equal cells are always of the same kind:
#   (EMPTY,)                     an empty slot
#   (ASM, x_pos, sign_mask)      one matrix row or column: where the
#                                self-mark X sits and the four sign bits
#                                (MSB->LSB over targets 2,3,5,7; 1 is +1)
#   (RM, value)                  one target's reduced outcome
#   (SM, pairs)                  one target's (S, R) sequence pairs
#   (TM, prime_code, last_seq)   a term pair; prime_code indexes (2,3,5,7)
EMPTY, ASM, RM, SM, TM = range(N_KINDS)
KIND_NAMES = ("empty", "asm", "rm", "sm", "tm")  # by tag, in messages and `inspect --json`
Cell = tuple


class CipherGrid(NamedTuple):
    """One block's ciphertext: clear order nibbles, 20 scrambled cells in
    wire order (row-major: index = row*5 + column) and the sticky round
    count."""

    orders: tuple[int, int, int, int]
    cells: tuple[Cell, ...]
    sticky_rounds: int

    def rows(self) -> list[list[Cell]]:
        """Cells as 4 rows x 5 data columns, the wire and presentation layout."""
        return [list(self.cells[r : r + N_KINDS]) for r in range(0, N_CELLS, N_KINDS)]


# The slot checks of an unscrambled grid. The matrix strings carry a
# placement witness that needs no key: a string's X mark sits on the
# diagonal, so its x_pos is its slot. The 12 data slots hold m outcomes,
# four sequence lists and m term pairs, m = 1..4, in one of these tag
# patterns; these and the 8 matrix strings are the 20 logical items.
_ASM_HEADS = [(ASM, i % N_SLOTS) for i in range(2 * N_SLOTS)]
_DATA_TAGS = frozenset(
    tuple(RM if i in r else EMPTY for i in range(N_SLOTS)) + (SM,) * N_SLOTS
    + tuple(TM if i in t else EMPTY for i in range(N_SLOTS))
    for m in range(1, N_SLOTS + 1)
    for r in combinations(range(N_SLOTS), m)
    for t in combinations(range(N_SLOTS), m)
)


@lru_cache(maxsize=128)  # it raises on a bad string, so it keeps only strings that pass
def check_tags(tags: Sequence[int]) -> None:
    """Raise InventoryMismatch unless one grid's tags, a hashable sequence, are
    the 20 logical items: 8 matrix strings, 4 sequence lists, m outcomes, m term
    pairs and 8 - 2m empty slots for one m in 1..4; first for a tag naming no kind."""
    counts = [tags.count(tag) for tag in range(N_KINDS)]
    if sum(counts) != len(tags):
        raise InventoryMismatch(f"cell tags {[t for t in tags if t not in range(N_KINDS)]} name no kind")
    m = counts[RM]
    if not 1 <= m <= N_SLOTS or counts != [2 * N_SLOTS - 2 * m, 2 * N_SLOTS, m, N_SLOTS, m]:
        raise InventoryMismatch(
            "cell inventory is not a permutation of the 20 logical items: "
            f"{dict(zip(KIND_NAMES, counts))}"
        )


def check_rounds(rounds: int, chain: KeyChain) -> None:
    """Raise RoundCountMismatch unless a ciphertext's sticky round count
    matches the chain's depth."""
    if rounds != len(chain.sticky):
        raise RoundCountMismatch(
            f"ciphertext carries {rounds} sticky rounds, key chain has {len(chain.sticky)}"
        )


class CompiledKey(NamedTuple):
    """What a key chain contributes to every block, derived once.

    `deltas` is the Add-Sub Matrix as a table by prime index, `asm_cells`
    its 8 matrix-string cells, `slots[i]` the wire position of logical cell
    i (kind*4 + slot) and `at` its inverse; these and `asm` are equal for
    every chain with the same base key outside its XOR word. `mask` holds
    one byte per prime (2,3,5,7 from the MSB), S nibble high: a stored pair
    is the plain pair, swapped when `swap`, XORed with its prime's byte."""

    asm: AddSubMatrix
    deltas: tuple[tuple[int, ...], ...]
    asm_cells: tuple[Cell, ...]
    slots: tuple[int, ...]
    at: tuple[int, ...]
    mask: int
    swap: bool


def _nswap(word: int) -> int:
    """Swap the two nibbles of every byte of a 32-bit word."""
    return ((word >> 4) & 0x0F0F0F0F) | ((word & 0x0F0F0F0F) << 4)


def _slot_tables(nibbles: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Compose the 20 fixed transpositions the placement nibbles define
    into (slots, at): slots[i] is the wire position of logical cell i
    (kind*4 + slot) and at[w] the logical cell at wire position w. The
    grid starts with kind k's cells in column k; nibble k*4 + i then swaps
    row i of column k with the row it names mod 4 of the next column in
    the cycle."""
    at = [w % N_KINDS * N_SLOTS + w // N_KINDS for w in range(N_CELLS)]
    for j, n in enumerate(nibbles):
        k, i = divmod(j, N_SLOTS)
        a, b = i * N_KINDS + k, n % 4 * N_KINDS + (k + 1) % N_KINDS
        at[a], at[b] = at[b], at[a]
    slots = [0] * N_CELLS
    for w, i in enumerate(at):
        slots[i] = w
    return tuple(slots), tuple(at)


def fold_mask(xor_word: int, sticky: tuple[int, ...]) -> int:
    """Fold a base XOR word and the sticky words, oldest first, into one
    mask: m = xor_word; m = nswap(m ^ w) per word."""
    for word in sticky:
        xor_word = _nswap(xor_word ^ word)
    return xor_word


@lru_cache(maxsize=64)
def compile_key(chain: KeyChain) -> CompiledKey:
    """A chain's key material, derived once per chain. The 8 matrix-string
    cells are the order nibbles as rows, then the transposed bit matrix as
    columns; the mask folds the chain's sticky words into its XOR word."""
    asm, nibbles = derive_material(chain.base)
    orders = asm.orders
    columns = [sum(((orders[t] >> (3 - c)) & 1) << (3 - t) for t in range(4)) for c in range(4)]
    asm_cells = tuple((ASM, i % 4, m) for i, m in enumerate(orders + tuple(columns)))
    mask = fold_mask(chain.base.xor_word, chain.sticky)
    return CompiledKey(asm, asm.deltas, asm_cells, *_slot_tables(nibbles), mask, len(chain.sticky) % 2 == 1)


PRIME_BYTES = (0xFF000000, 0xFF0000, 0xFF00, 0xFF)  # the byte of a mask each prime's pairs read


def seal_pairs(pairs, mask: int, swap: bool, prime_index: int) -> tuple[tuple[int, int], ...]:
    """The SM key layer on one prime's (S, R) pairs: swap the halves when
    `swap`, then XOR with the prime's byte of `mask` (PRIME_BYTES), S
    nibble high."""
    ms, mr = mask >> (28 - 8 * prime_index) & 15, mask >> (24 - 8 * prime_index) & 15
    if swap:
        return tuple([(r ^ ms, s ^ mr) for s, r in pairs])
    return tuple([(s ^ ms, r ^ mr) for s, r in pairs])


def data_cells(cb: CompressedBlock, mask: int, swap: bool) -> tuple[Cell, ...]:
    """The 12 data cells (rm, sm, tm) a compressed block contributes, the
    sequence lists sealed under (mask, swap)."""
    rm, sm, tm = cb
    return (
        *[(EMPTY,) if v is None else (RM, v) for v in rm],
        *[(SM, seal_pairs(sm[i], mask, swap, i)) for i in range(N_SLOTS)],
        *[(EMPTY,) if slot is None else (TM, *slot) for slot in tm],
    )


def encrypt_block(block: int, chain: KeyChain) -> CipherGrid:
    """Encrypt one 30-bit block under the full key chain: compress it,
    lay the 20 logical cells out kind-major (asmh, asmv, rm, sm, tm) with
    the sequence lists sealed, and gather them in wire order. The
    compressor always yields the 20 logical items, so no inventory check
    runs here."""
    key = compile_key(chain)
    cells = key.asm_cells + data_cells(compress_block(block, key.deltas), key.mask, key.swap)
    return CipherGrid(key.asm.orders, tuple(map(cells.__getitem__, key.at)), len(chain.sticky))


_CODES = frozenset(range(len(PRIMES)))
_tag = itemgetter(0)


def _open_grid(grid: CipherGrid, chain: KeyChain) -> tuple[CompiledKey, list[Cell]]:
    """The slot gate of decrypt and harden: the compiled key and a new
    list of the grid's 20 logical cells, kind-major, once the round count,
    the cell count and every slot's kind hold. The clear orders and the matrix
    strings' sign masks are not compared with the key.

    Raises, first match wins: RoundCountMismatch when the chain's sticky
    depth disagrees with the grid; InventoryMismatch when the cells are not
    the 20 logical items, a cell whose tag names no kind included;
    IntegrityFailure when a slot holds the wrong kind (wrong key or
    tampered ciphertext).
    """
    check_rounds(grid.sticky_rounds, chain)
    key = compile_key(chain)
    cells = grid.cells
    c = [cells[j] for j in key.slots] if len(cells) == N_CELLS else []
    heads = [cell[:2] for cell in c[: 2 * N_SLOTS]]
    if heads != _ASM_HEADS or tuple(map(_tag, c[2 * N_SLOTS :])) not in _DATA_TAGS:
        check_tags(tuple(map(_tag, cells)))  # an inventory fault outranks a slot fault
        raise IntegrityFailure("a slot holds the wrong kind, or a matrix string marks the wrong position")
    return key, c


def read_body(c: list[Cell]) -> tuple[list, list, list]:
    """decrypt_block's per-grid body read: the RM and TM lists and the four
    stored SM pair tuples of the logical cells _open_grid returns. It reads
    no key, so every unseal mask tried on one grid shares it. Raises, first
    match wins: IntegrityFailure when a term cell names no prime;
    ValueOutOfRange when an in-memory sequence pair does not fit a nibble."""
    rm = [r[1] if r[0] == RM else None for r in c[2 * N_SLOTS : SM_BASE]]
    tm = [t[1:] if t[0] == TM else None for t in c[4 * N_SLOTS :]]
    if not _CODES.issuperset([t[0] for t in tm if t]):
        raise IntegrityFailure(f"a term cell names no prime: {tm}")
    stored = [cell[1] for cell in c[SM_BASE : 4 * N_SLOTS]]
    for i, pairs in enumerate(stored):
        for a, b in pairs:
            if (a | b) >> 4:
                raise ValueOutOfRange(f"prime {PRIMES[i]}: ({a},{b}) does not fit a nibble")
    return rm, tm, stored


def unseal_mask(key: CompiledKey) -> int:
    """The mask under which seal_pairs with key.swap unseals what
    (key.mask, key.swap) sealed."""
    return _nswap(key.mask) if key.swap else key.mask


def decrypt_block(grid: CipherGrid, chain: KeyChain) -> int:
    """Invert encrypt_block in one pass: the slot gate, the body read, then
    the rebuild, which unseals each prime's stored pairs under the key's
    unseal mask and decompresses. Raises what _open_grid raises, then what
    read_body raises, then IntegrityFailure, its `reason` set, when the
    rebuild or the RM checksum fails."""
    key, c = _open_grid(grid, chain)
    rm, tm, stored = read_body(c)
    mask = unseal_mask(key)
    sm = {}
    for i, pairs in enumerate(stored):
        sm[i] = seal_pairs(pairs, mask, key.swap, i)
    return decompress_block(rm, sm, tm, key.deltas)


def harden_cells(c: list[Cell], word: int) -> None:
    """One hardening round on the logical cells _open_grid returns, in place:
    reseal the four sequence-list cells under nswap(word) with a swap."""
    word = _nswap(word)
    for i in range(N_SLOTS):
        c[SM_BASE + i] = (SM, seal_pairs(c[SM_BASE + i][1], word, True, i))


def harden_message(
    grids: Sequence[CipherGrid] | bytes, chain: KeyChain, rng: random.Random | None = None
) -> tuple[tuple[CipherGrid, ...] | bytes, KeyChain]:
    """Respond to a failed attempt: grow the chain by one 32-bit sticky
    key and rewrite the sequence portion of every block's ciphertext.

    Each grid opens through decrypt's slot gate first and raises what it
    raises. The round (harden_cells) rewrites the four logical sequence-list
    cells; encrypt_block's layout puts them on the wire. Given a CMC1 file's
    bytes instead of grids, it returns the file's new bytes (_harden_file)."""
    if isinstance(grids, (bytes, bytearray, memoryview)):
        return _harden_file(grids, chain, rng)
    new_chain = extend_key(chain, rng)
    out = []
    for grid in grids:
        key, c = _open_grid(grid, chain)
        harden_cells(c, new_chain.sticky[-1])
        out.append(CipherGrid(grid.orders, tuple(map(c.__getitem__, key.at)), grid.sticky_rounds + 1))
    return tuple(out), new_chain


def _harden_file(data: bytes, chain: KeyChain, rng: random.Random | None) -> tuple[bytes, KeyChain]:
    """harden_message on a CMC1 file's bytes: one container.walk_blocks whose
    action opens each distinct block through the slot gate once, first seen
    first, and writes each distinct SM cell's reseal over its own bytes. No
    grid is rebuilt, and no byte changes but those and the header's round
    count. The walk's first action draws the word, so the walk raises a
    container error anywhere, then a failed draw, then the first gate
    failure; last, write_key refuses a chain too deep for its key file."""
    from . import container  # container imports this module

    key = compile_key(chain)
    wire = sorted(key.slots[SM_BASE : 4 * N_SLOTS])  # the SM cells' wire positions, in wire order
    primes = [key.at[w] - SM_BASE for w in wire]
    sealed: list[dict[Cell, bytes]] = [{} for _ in primes]  # by prime: each SM cell's new bytes
    hardened: dict[bytes, bytes] = {}  # each distinct block's bytes: its new bytes
    new_chain = word = None

    def reseal(grid: CipherGrid, raw: bytes, sm_at: list[int]) -> bytes:
        nonlocal new_chain, word
        if new_chain is None:
            new_chain = extend_key(chain, rng)
            word = _nswap(new_chain.sticky[-1])
        new_block = hardened.get(raw)
        if new_block is None:
            _open_grid(grid, chain)
            new_block = bytearray(raw)
            for i, w, pos in zip(primes, wire, sm_at):
                cell = grid.cells[w]
                new = sealed[i].get(cell)
                if new is None:
                    new = sealed[i][cell] = container._encode_cell((SM, seal_pairs(cell[1], word, True, i)))
                new_block[pos : pos + len(new)] = new
            new_block = hardened[raw] = bytes(new_block)
        return new_block

    rounds, tail_bits, blocks = container.walk_blocks(data, reseal)
    container.write_key(new_chain)  # a chain too deep for its key file must not get a cipher
    hardened.clear()  # its keys, the old blocks' bytes, are not needed for the join
    return container.pack_header(rounds + 1, len(blocks), tail_bits) + b"".join(blocks), new_chain
