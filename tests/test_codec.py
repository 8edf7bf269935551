import random

import pytest
from hypothesis import given, settings, strategies as st

from cryptompress import codec
from cryptompress.codec import BLOCK_BITS, PaddedMessage
from cryptompress.errors import EmptyInput, ValueOutOfRange, WrongLength


# Reference codec: the bit-width split, which reads the whole payload as one int.
# The chunked codec must give the same blocks and the same bytes.
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


def test_golden_block_mapping(golden, golden_block):
    assert codec.block_to_symbols(golden_block) == tuple(golden["symbols"])


def test_all_zero_bits_map_to_twos():
    assert codec.block_to_symbols(0) == (2,) * 15


def test_all_one_bits_map_to_sevens():
    assert codec.block_to_symbols((1 << 30) - 1) == (7,) * 15


def test_unmap_golden(golden, golden_block):
    assert codec.symbols_to_block(golden["symbols"]) == golden_block


def test_unmap_twos_gives_zero():
    assert codec.symbols_to_block([2] * 15) == 0


def test_round_trip_1000_random():
    rng = random.Random(0)
    for _ in range(1000):
        b = rng.getrandbits(30)
        assert codec.symbols_to_block(codec.block_to_symbols(b)) == b


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 30) - 1))
def test_bijection_bits_side(b):
    assert codec.symbols_to_block(codec.block_to_symbols(b)) == b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(codec.PRIMES), min_size=15, max_size=15))
def test_bijection_symbols_side(symbols):
    assert list(codec.block_to_symbols(codec.symbols_to_block(symbols))) == symbols


def test_map_rejects_out_of_range():
    with pytest.raises(WrongLength):
        codec.block_to_symbols(1 << 30)
    with pytest.raises(WrongLength):
        codec.block_to_symbols(-1)


def test_unmap_rejects_wrong_length_and_bad_symbols():
    with pytest.raises(WrongLength):
        codec.symbols_to_block([2] * 14)
    with pytest.raises(ValueOutOfRange):
        codec.symbols_to_block([2] * 14 + [4])


def test_segment_30_bits_is_one_block():
    msg = segment_bits(0x2AF738F9, 30)
    assert msg.blocks == (0x2AF738F9,)
    assert msg.tail_bits == 30


def test_segment_31_bits_is_two_blocks_tail_1():
    msg = segment_bits(1, 31)
    assert len(msg.blocks) == 2
    assert msg.tail_bits == 1
    # 31st bit ends up as the MSB of the final block
    assert msg.blocks[1] == 1 << 29


def test_segment_8_bytes_is_three_blocks_tail_4():
    # 64 = 30 + 30 + 4
    msg = codec.segment_message(bytes(range(8)))
    assert len(msg.blocks) == 3
    assert msg.tail_bits == 4


def test_segment_rejects_empty():
    with pytest.raises(EmptyInput):
        codec.segment_message(b"")


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=4096))
def test_segment_reassemble_identity(payload):
    assert codec.reassemble_message(codec.segment_message(payload)) == payload


def test_segment_reassemble_identity_1mib():
    payload = random.Random(7).randbytes(1 << 20)
    assert codec.reassemble_message(codec.segment_message(payload)) == payload


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=600), st.data())
def test_segment_reassemble_bits_identity(nbits, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    assert reassemble_bits(segment_bits(value, nbits)) == (value, nbits)


def test_reassemble_rejects_non_byte_totals():
    with pytest.raises(WrongLength):
        codec.reassemble_message(codec.PaddedMessage(blocks=(0,), tail_bits=30))


def _codec_payloads():
    rng = random.Random(20261018)
    for n in range(1, 601):
        yield rng.randbytes(n)
        yield bytes(n)
        yield b"\xff" * n
    yield random.Random(7).randbytes(1 << 20)


def test_chunked_codec_matches_bit_reference():
    for payload in _codec_payloads():
        msg = codec.segment_message(payload)
        assert msg == segment_bits(int.from_bytes(payload, "big"), 8 * len(payload))
        assert codec.reassemble_message(msg) == payload
        # the pad bits of the final block carry no payload and are dropped
        pad_mask = (1 << (BLOCK_BITS - msg.tail_bits)) - 1
        dirty = msg._replace(blocks=msg.blocks[:-1] + (msg.blocks[-1] | pad_mask,))
        assert codec.reassemble_message(dirty) == payload


# Guards fire in this order: no blocks, tail_bits, a block out of range,
# a total that is not whole bytes. Four zero blocks with tail_bits 30 are
# 120 bits, exactly 15 bytes, so only the bad block can reject them.
@pytest.mark.parametrize(
    "blocks, tail_bits, error",
    [
        ((), 30, EmptyInput),
        ((), 0, EmptyInput),
        ((0,), 0, ValueOutOfRange),
        ((0,), 31, ValueOutOfRange),
        ((1 << 30,), 0, ValueOutOfRange),
        ((0, 0, 0, -1), 31, ValueOutOfRange),
        ((-1, 0, 0, 0), 30, WrongLength),
        ((0, 0, 0, -1), 30, WrongLength),
        ((1 << 30, 0, 0, 0), 30, WrongLength),
        ((0, 0, 0, 1 << 30), 30, WrongLength),
        ((0,), 30, WrongLength),
        ((0,), 1, WrongLength),
    ],
)
def test_reassemble_guards_in_order(blocks, tail_bits, error):
    with pytest.raises(error):
        codec.reassemble_message(PaddedMessage(blocks, tail_bits))
