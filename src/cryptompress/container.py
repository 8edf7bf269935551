"""Bit-exact serialization of key chains and ciphertexts.

Key file ("CMK1"): magic, sticky count byte, 16 base-key bytes in the
asm|rm|tm|sm layout, then one 4-byte word per sticky key in application
order. Length is always 21 + 4*count.

Cipher file ("CMC1"): magic, version byte, sticky round byte, big-endian
32-bit block count, tail-bits byte, then per block two packed order bytes
and 20 tagged cells row-major. All multi-byte integers are big-endian.
"""

import struct
from dataclasses import dataclass
from .cipher import (
    AsmStringCell,
    Cell,
    CipherGrid,
    EmptyCell,
    N_KINDS,
    N_SLOTS,
    RmOutcomeCell,
    SmListCell,
    TmPairCell,
    _check_inventory,
    data_cells,
)
from .errors import (
    BadMagic,
    BadVersion,
    InventoryMismatch,
    MalformedCell,
    RoundCountMismatch,
    Truncated,
    ValueOutOfRange,
)
from .keyschedule import BaseKey, KeyChain

KEY_MAGIC = b"CMK1"
CIPHER_MAGIC = b"CMC1"
CIPHER_VERSION = 1

_TAG_EMPTY = 0
_TAG_ASM = 1
_TAG_RM = 2
_TAG_SM = 3
_TAG_TM = 4


@dataclass(frozen=True)
class CipherMessage:
    """A serialized-ready ciphertext: per-block grids sharing one sticky
    depth, plus the tail-bit count of the final block."""

    grids: tuple[CipherGrid, ...]
    tail_bits: int

    @property
    def sticky_rounds(self) -> int:
        return self.grids[0].sticky_rounds if self.grids else 0


def write_key(chain: KeyChain) -> bytes:
    if len(chain.sticky) > 255:
        raise ValueOutOfRange("at most 255 sticky keys fit the key file")
    out = bytearray(KEY_MAGIC)
    out.append(len(chain.sticky))
    out += chain.base.to_bytes()
    for word in chain.sticky:
        out += word.to_bytes(4, "big")
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
    if isinstance(cell, EmptyCell):
        return bytes([_TAG_EMPTY])
    if isinstance(cell, AsmStringCell):
        return bytes([_TAG_ASM, cell.x_pos, cell.sign_mask])
    if isinstance(cell, RmOutcomeCell):
        return bytes([_TAG_RM]) + struct.pack(">i", cell.value)
    if isinstance(cell, SmListCell):
        if len(cell.pairs) > 255:
            raise MalformedCell("sequence list longer than 255 pairs")
        out = bytearray([_TAG_SM, len(cell.pairs)])
        for s, r in cell.pairs:
            out += bytes([s, r])
        return bytes(out)
    if isinstance(cell, TmPairCell):
        return bytes([_TAG_TM, cell.prime_code, cell.last_seq])
    raise MalformedCell(f"cannot encode {type(cell).__name__}")


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Truncated(
                f"need {n} bytes at offset {self.pos}, only {len(self.data) - self.pos} left"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]


def _decode_cell(r: _Reader) -> Cell:
    tag = r.byte()
    if tag == _TAG_EMPTY:
        return EmptyCell()
    if tag == _TAG_ASM:
        x_pos, mask = r.byte(), r.byte()
        if x_pos > 3 or mask > 15:
            raise MalformedCell(f"bad matrix string payload ({x_pos},{mask})")
        return AsmStringCell(x_pos=x_pos, sign_mask=mask)
    if tag == _TAG_RM:
        return RmOutcomeCell(struct.unpack(">i", r.take(4))[0])
    if tag == _TAG_SM:
        count = r.byte()
        pairs = []
        for _ in range(count):
            s, rr = r.byte(), r.byte()
            if s > 15 or rr > 15:
                raise MalformedCell(f"sequence pair ({s},{rr}) does not fit nibbles")
            pairs.append((s, rr))
        return SmListCell(tuple(pairs))
    if tag == _TAG_TM:
        code, last_seq = r.byte(), r.byte()
        if code > 3:
            raise MalformedCell(f"term prime code {code} out of range")
        return TmPairCell(prime_code=code, last_seq=last_seq)
    raise MalformedCell(f"unknown cell tag {tag}")


def write_cipher(msg: CipherMessage) -> bytes:
    if not msg.grids:
        raise MalformedCell("a cipher file needs at least one block")
    if not 1 <= msg.tail_bits <= 30:
        raise ValueOutOfRange(f"tail_bits must be in [1,30], got {msg.tail_bits}")
    rounds = msg.grids[0].sticky_rounds
    if any(g.sticky_rounds != rounds for g in msg.grids):
        raise RoundCountMismatch("blocks disagree about sticky depth")
    if rounds > 255:
        raise ValueOutOfRange("at most 255 sticky rounds fit the cipher file")
    out = bytearray(CIPHER_MAGIC)
    out.append(CIPHER_VERSION)
    out.append(rounds)
    out += struct.pack(">I", len(msg.grids))
    out.append(msg.tail_bits)
    for grid in msg.grids:
        o = grid.orders
        out.append((o[0] << 4) | o[1])
        out.append((o[2] << 4) | o[3])
        for row in range(N_SLOTS):
            for kind in range(N_KINDS):
                out += _encode_cell(grid.cell(kind, row))
    return bytes(out)


HEADER_BYTES = 11


def read_header(data: bytes) -> tuple[int, int, int]:
    """Parse and check the fixed-size CMC1 header alone: (sticky rounds,
    block count, tail bits). A round-count mismatch can be decided from it
    before any block is parsed."""
    r = _Reader(data)
    magic = r.take(4)
    if magic != CIPHER_MAGIC:
        raise BadMagic(f"expected {CIPHER_MAGIC!r}, got {magic!r}")
    version = r.byte()
    if version != CIPHER_VERSION:
        raise BadVersion(f"unsupported cipher file version {version}")
    rounds = r.byte()
    block_count = struct.unpack(">I", r.take(4))[0]
    if block_count == 0:
        raise MalformedCell("cipher file declares zero blocks")
    tail_bits = r.byte()
    if not 1 <= tail_bits <= 30:
        raise MalformedCell(f"tail_bits must be in [1,30], got {tail_bits}")
    return rounds, block_count, tail_bits


def read_cipher(data: bytes) -> CipherMessage:
    rounds, block_count, tail_bits = read_header(data)
    r = _Reader(data, HEADER_BYTES)
    grids = []
    for _ in range(block_count):
        ob = r.take(2)
        orders = (ob[0] >> 4, ob[0] & 15, ob[1] >> 4, ob[1] & 15)
        row_major = [_decode_cell(r) for _ in range(20)]
        # row-major on the wire, kind-major in memory
        cells = tuple(row_major[row * N_KINDS + kind] for kind in range(N_KINDS) for row in range(N_SLOTS))
        _check_inventory(cells, InventoryMismatch)
        grids.append(CipherGrid(orders=orders, cells=cells, sticky_rounds=rounds))
    if r.pos != len(data):
        raise MalformedCell(f"{len(data) - r.pos} trailing bytes after last block")
    return CipherMessage(grids=tuple(grids), tail_bits=tail_bits)


def compressed_size_bits(cb) -> int:
    """Bit size of a compressed block's 12 data cells (rm/sm/tm) in
    container encoding.

    Used by the compression-ratio harness; the 8 matrix-string cells are
    key material, not compressed data, so they are excluded.
    """
    return 8 * sum(len(_encode_cell(c)) for c in data_cells(cb))
