"""Bit-exact serialization of key chains and ciphertexts.

Key file ("CMK1"): magic, sticky count byte, 16 base-key bytes in the
asm|rm|tm|sm layout, then one 4-byte word per sticky key in application
order. Length is always 21 + 4*count.

Cipher file ("CMC1"): magic, version byte, sticky round byte, 32-bit
block count, tail-bits byte, then per block two packed order bytes and 20
tagged cells row-major. All multi-byte integers are big-endian. A cell is
a record led by its tag byte (_WIRE below); an SM record, (tag, count), is
followed by that many (S, R) byte pairs. walk_blocks is its one reader.
"""

import struct
from itertools import chain
from operator import itemgetter, le
from typing import Callable, Iterable, NamedTuple

from .cipher import (
    KIND_NAMES,
    N_CELLS,
    N_KINDS,
    SM,
    Cell,
    CipherGrid,
    check_tags,
    data_cells,
)
from .codec import BLOCK_BITS
from .errors import (
    BadMagic,
    BadVersion,
    CryptompressError,
    MalformedCell,
    Truncated,
    ValueOutOfRange,
)
from .keyschedule import BaseKey, KeyChain

# Each cell's wire record by tag (empty, asm, rm, sm, tm), tag byte first,
# and the largest value of each field after the tag; the SM limit holds for
# every pair byte.
_WIRE = tuple(map(struct.Struct, ("B", "BBB", ">Bi", "BB", "BBB")))
_LIMITS = ((), (3, 15), (), (15,), (3,))
_NIBBLES = frozenset(range(16))  # the values of one order nibble

KEY_MAGIC = b"CMK1"
CIPHER_MAGIC = b"CMC1"
CIPHER_VERSION = 1


class CipherMessage(NamedTuple):
    """A serialized-ready ciphertext: per-block grids sharing one sticky
    depth, plus the tail-bit count of the final block. read_cipher gives a
    tuple of grids; write_cipher takes any iterable of them, a one-shot
    iterator too, and consumes it once. `sticky_rounds` needs a sequence."""

    grids: Iterable[CipherGrid]
    tail_bits: int

    @property
    def sticky_rounds(self) -> int:
        return self.grids[0].sticky_rounds if self.grids else 0


def write_key(chain: KeyChain) -> bytes:
    if len(chain.sticky) > 255:
        raise ValueOutOfRange("at most 255 sticky keys fit the key file")
    if not all(isinstance(word, int) for word in (*chain.base, *chain.sticky)):
        raise ValueOutOfRange("every key word must be an int")
    out = bytearray(KEY_MAGIC)
    out.append(len(chain.sticky))
    try:
        out += chain.base.to_bytes()
        for word in chain.sticky:
            out += word.to_bytes(4, "big")
    except OverflowError as exc:
        raise ValueOutOfRange(f"a key word does not fit its field: {exc}") from None
    return bytes(out)


def read_key(data: bytes) -> KeyChain:
    if len(data) < 4:
        raise Truncated("key file shorter than its magic")
    if data[:4] != KEY_MAGIC:
        raise BadMagic(f"expected {KEY_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 21:
        raise Truncated(f"key file is {len(data)} bytes, header needs 21")
    count = data[4]
    expected = 21 + 4 * count
    if len(data) < expected:
        raise Truncated(f"key file is {len(data)} bytes, {expected} declared")
    if len(data) > expected:
        raise MalformedCell(f"{len(data) - expected} trailing bytes after key data")
    base = BaseKey.from_bytes(data[5:21])
    sticky = tuple(
        int.from_bytes(data[21 + 4 * i : 25 + 4 * i], "big") for i in range(count)
    )
    return KeyChain(base=base, sticky=sticky)


def _encode_cell(cell: Cell) -> bytes:
    if cell[0] != SM:
        return _WIRE[cell[0]].pack(*cell)
    pairs = cell[1]
    if len(pairs) > 255:
        raise MalformedCell("sequence list longer than 255 pairs")
    return bytes([SM, len(pairs), *chain.from_iterable(pairs)])


def _truncated(data: bytes, pos: int, n: int) -> Truncated:
    return Truncated(f"need {n} bytes at offset {pos}, only {len(data) - pos} left")


def _decode_cell(data: bytes, pos: int) -> tuple[Cell, int]:
    """The cell whose tag byte is data[pos], and the offset after it."""
    if pos >= len(data):
        raise _truncated(data, pos, 1)
    tag = data[pos]
    if tag >= N_KINDS:
        raise MalformedCell(f"unknown cell tag {tag}")
    wire = _WIRE[tag]
    end = pos + wire.size
    if end > len(data):
        raise _truncated(data, pos, wire.size)
    cell = wire.unpack_from(data, pos)
    if tag == SM:
        start, end = end, end + 2 * cell[1]
        body = data[start:end]
        # pairs are read in order: a whole pair out of range outranks truncation
        if max(body[: len(body) & ~1], default=0) > _LIMITS[SM][0]:
            raise MalformedCell(f"sequence pairs {body.hex()} do not fit nibbles")
        if end > len(data):
            raise _truncated(data, start, end - start)
        return (SM, tuple(zip(body[::2], body[1::2]))), end
    if not all(map(le, cell[1:], _LIMITS[tag])):
        raise MalformedCell(f"{KIND_NAMES[tag]} cell payload {cell[1:]} out of range")
    return cell, end


def _check_tail_bits(tail_bits: int) -> None:
    """Raise MalformedCell unless a last block can hold `tail_bits` bits."""
    if not isinstance(tail_bits, int) or not 1 <= tail_bits <= BLOCK_BITS:
        raise MalformedCell(f"tail_bits must be in [1,{BLOCK_BITS}], got {tail_bits}")


def _check_tail(block_count: int, tail_bits: int) -> None:
    """Raise MalformedCell unless the last of `block_count` blocks holds
    `tail_bits` bits and the payload ends on a whole byte, as every payload
    that segment_message cuts does; the writer and the reader share it."""
    _check_tail_bits(tail_bits)
    if (BLOCK_BITS * (block_count - 1) + tail_bits) % 8:
        raise MalformedCell(f"{block_count} blocks with {tail_bits} tail bits are not whole bytes")


def _encode_checked(cell: Cell) -> bytes:
    """The bytes of a cell that read_cipher reads back as the same cell;
    any other cell raises the reader's error for its bytes, or MalformedCell."""
    try:
        raw = _encode_cell(cell)
    except (IndexError, TypeError, ValueError, struct.error) as exc:
        raise MalformedCell(f"cell {cell!r} has no wire record: {exc}") from None
    try:
        back = _decode_cell(raw, 0)
    except Truncated:  # an SM pair shorter than two values
        back = None
    if back != (cell, len(raw)):
        raise MalformedCell(f"cell {cell!r} does not read back as itself")
    return raw


HEADER_BYTES = 11


def pack_header(rounds: int, block_count: int, tail_bits: int) -> bytes:
    """The fixed-size CMC1 header that read_header reads back."""
    return CIPHER_MAGIC + struct.pack(">BBIB", CIPHER_VERSION, rounds, block_count, tail_bits)


# write_cipher's cell memo is cleared when it holds this many cells, so a
# stream of distinct cells costs the writer a bounded memo.
CELL_MEMO_MAX = 4096


def write_cipher(msg: CipherMessage) -> bytes:
    """The CMC1 bytes of `msg`, whose grids are consumed once, one at a time,
    so no list of them is needed. Raises, first match wins: MalformedCell
    for no blocks, then for tail bits outside [1,30]; ValueOutOfRange for a
    first grid's sticky rounds not an int in [0,255]; then per grid, in stream
    order, ValueOutOfRange when its rounds differ from the first grid's or
    its orders are not four nibbles, MalformedCell or the reader's error
    for a cell the reader would refuse or read back unequal, and
    InventoryMismatch for its tag string. After the last grid, MalformedCell
    when the blocks and tail bits are not whole bytes; the header, with its
    block count, is packed then."""
    grids = iter(msg.grids)
    first = next(grids, None)
    if first is None:
        raise MalformedCell("a cipher file needs at least one block")
    _check_tail_bits(msg.tail_bits)
    rounds = first.sticky_rounds
    if not isinstance(rounds, int) or not 0 <= rounds <= 255:
        raise ValueOutOfRange(f"sticky rounds must be in [0,255], got {rounds}")
    out = bytearray(HEADER_BYTES)
    # Each distinct cell is checked once while the memo holds it: the writer refuses every grid
    # the reader would refuse or read back unequal, with the reader's error if any. The memo
    # refuses (RM, 22.0) alone but writes it as (RM, 22)'s bytes after an equal int cell since
    # the memo's last clear.
    memo: dict[Cell, bytes] = {}
    for count, grid in enumerate(chain((first,), grids), 1):
        if grid.sticky_rounds != rounds:
            raise ValueOutOfRange("blocks disagree about sticky depth")
        o = grid.orders
        try:  # a float equal to a nibble passes the set test, not the shift
            valid = type(o) is tuple and len(o) == 4 and _NIBBLES.issuperset(o)
            if valid:
                out.append((o[0] << 4) | o[1])
                out.append((o[2] << 4) | o[3])
        except TypeError:
            valid = False
        if not valid:
            raise ValueOutOfRange(f"orders {o} are not four nibbles")
        if type(grid.cells) is not tuple:  # the reader makes a tuple
            raise MalformedCell(f"cells of type {type(grid.cells).__name__} do not read back as a tuple")
        for cell in grid.cells:
            try:
                raw = memo.get(cell)
            except TypeError:  # the reader only makes hashable cells
                raise MalformedCell(f"cell {cell!r} does not read back as itself") from None
            if raw is None:
                if len(memo) >= CELL_MEMO_MAX:
                    memo.clear()
                raw = memo[cell] = _encode_checked(cell)
            out += raw
        check_tags(bytes(map(itemgetter(0), grid.cells)))
    _check_tail(count, msg.tail_bits)
    out[:HEADER_BYTES] = pack_header(rounds, count, msg.tail_bits)
    return bytes(out)


def read_header(data: bytes) -> tuple[int, int, int]:
    """Parse and check the fixed-size CMC1 header alone: (sticky rounds,
    block count, tail bits). A round-count mismatch can be decided from it
    before any block is parsed."""
    if len(data) < 4:
        raise _truncated(data, 0, 4)
    if data[:4] != CIPHER_MAGIC:
        raise BadMagic(f"expected {CIPHER_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 5:
        raise _truncated(data, 4, 1)
    if data[4] != CIPHER_VERSION:
        raise BadVersion(f"unsupported cipher file version {data[4]}")
    if len(data) < 10:
        raise _truncated(data, 5, 5)
    rounds, block_count = data[5], int.from_bytes(data[6:10], "big")
    if block_count == 0:
        raise MalformedCell("cipher file declares zero blocks")
    if len(data) < HEADER_BYTES:
        raise _truncated(data, 10, 1)
    tail_bits = data[10]
    _check_tail(block_count, tail_bits)
    return rounds, block_count, tail_bits


# Each cell's wire size by tag; an SM cell adds two bytes per pair.
_WIRE_SIZES = tuple(wire.size for wire in _WIRE)


def walk_blocks(data: bytes, action: Callable[[CipherGrid, bytes, list[int]], object]) -> tuple[int, int, list]:
    """The one reader of a CMC1 file: its header, then every block, calling
    action(grid, raw, sm_at) with the block's bytes and its four SM cells'
    offsets within them. Returns (sticky rounds, tail bits, the results in
    block order). No action runs after one raises a CryptompressError, but
    the walk reads on, so a container error anywhere in the file outranks
    that error, which is raised once the whole file is read.

    Each cell's extent comes from its tag, and its exact bytes map to its
    tuple through a memo for this walk: cells repeat heavily within a file
    (every block carries the same 8 matrix strings), so each distinct cell
    is decoded and each distinct tag string checked once. A cell the memo
    misses is decoded in place, so a bad cell raises with its file offset."""
    data = bytes(data)  # memo keys must hash, whatever bytes-like came in
    rounds, block_count, tail_bits = read_header(data)
    sizes = _WIRE_SIZES
    memo: dict[bytes, Cell] = {}
    results = []
    failure = None
    pos = HEADER_BYTES
    for _ in range(block_count):
        start = pos
        if pos + 2 > len(data):
            raise _truncated(data, pos, 2)
        a, b = data[pos], data[pos + 1]
        pos += 2
        cells = []
        sm_at = []
        for _ in range(N_CELLS):
            try:
                tag = data[pos]
                end = pos + sizes[tag]
                if tag == SM:
                    end += 2 * data[pos + 1]
                    sm_at.append(pos - start)
            except IndexError:  # an unknown tag or the end of the file: no memo key is empty
                end = pos
            raw = data[pos:end]
            cell = memo.get(raw)
            if cell is None:  # _decode_cell alone decides what a bad cell raises
                cell, end = _decode_cell(data, pos)
                memo[raw] = cell
            cells.append(cell)
            pos = end
        check_tags(bytes(map(itemgetter(0), cells)))
        if failure is None:
            grid = CipherGrid((a >> 4, a & 15, b >> 4, b & 15), tuple(cells), rounds)
            try:
                results.append(action(grid, data[start:pos], sm_at))
            except CryptompressError as exc:
                failure = exc
    if pos != len(data):
        raise MalformedCell(f"{len(data) - pos} trailing bytes after last block")
    if failure is not None:
        raise failure
    return rounds, tail_bits, results


def read_cipher(data: bytes) -> CipherMessage:
    """Parse a whole CMC1 file: walk_blocks with an action that keeps each grid."""
    _, tail_bits, grids = walk_blocks(data, lambda grid, raw, sm_at: grid)
    return CipherMessage(grids=tuple(grids), tail_bits=tail_bits)


def compressed_size_bits(cb) -> int:
    """Bit size of a compressed block's 12 data cells (rm/sm/tm) in
    container encoding.

    Used by the compression-ratio harness; the 8 matrix-string cells are
    key material, not compressed data, so they are excluded.
    """
    return 8 * sum(len(_encode_cell(c)) for c in data_cells(cb, 0, False))
