import random

import pytest
from hypothesis import given, settings, strategies as st

from cryptompress import container
from cryptompress.engine import AddSubMatrix
from cryptompress.errors import EntropyUnavailable, WrongLength
from cryptompress.keyschedule import (
    BaseKey,
    KeyChain,
    derive_material,
    extend_key,
    generate_key,
)

# The placement nibble groups in scramble cycle order, four nibbles each.
PLACEMENT_KINDS = ("asmh", "asmv", "rm", "sm", "tm")

# chi-square critical value, 15 degrees of freedom, p = 0.001
CHI2_CRIT = 37.697


def sticky_nibbles(word):
    """Reference split of a 32-bit XOR or sticky word into its eight subkey
    nibbles, MSB-first: one (S, R) pair per prime (2,3,5,7)."""
    return tuple((word >> (28 - 4 * i)) & 15 for i in range(8))


def test_parse_golden_key(golden):
    base = BaseKey.from_bytes(bytes.fromhex(golden["key_hex"]))
    asm, nibbles = derive_material(base)
    assert asm.orders == tuple(golden["orders"])
    assert sticky_nibbles(base.xor_word) == tuple(golden["xor_subkeys"])
    for kind, want in golden["nibble_table"].items():
        k = PLACEMENT_KINDS.index(kind)
        assert nibbles[4 * k : 4 * k + 4] == tuple(want)


def test_parse_all_zero_key():
    base = BaseKey.from_bytes(bytes(16))
    asm, nibbles = derive_material(base)
    assert asm.orders == (0, 0, 0, 0)
    for t in (2, 3, 5, 7):
        for c in (2, 3, 5, 7):
            if t != c:
                assert asm.delta(t, c) == -1
    assert sticky_nibbles(base.xor_word) == (0,) * 8
    for k in range(len(PLACEMENT_KINDS)):
        assert nibbles[4 * k : 4 * k + 4] == (0, 0, 0, 0)


def test_parse_rejects_wrong_length():
    with pytest.raises(WrongLength):
        derive_material(BaseKey.from_bytes(bytes(15)))


def test_serialize_parse_round_trip_1000():
    rng = random.Random(3)
    for _ in range(1000):
        raw = rng.randbytes(16)
        assert BaseKey.from_bytes(raw).to_bytes() == raw


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_serialize_parse_round_trip_property(raw):
    assert BaseKey.from_bytes(raw).to_bytes() == raw


def test_build_asm_golden_table(golden):
    asm = AddSubMatrix((0x2, 0x3, 0x5, 0x7))
    want_rows = {
        2: {3: -1, 5: 1, 7: -1},
        3: {2: -1, 5: 1, 7: 1},
        5: {2: -1, 3: 1, 7: 1},
        7: {2: -1, 3: 1, 5: 1},
    }
    for t, row in want_rows.items():
        for c, want in row.items():
            assert asm.delta(t, c) == want


def test_delta_examples_from_traversal():
    asm = AddSubMatrix((0x2, 0x3, 0x5, 0x7))
    assert asm.delta(5, 2) == -1
    assert asm.delta(5, 7) == 1


def test_diagonal_bit_is_never_read():
    primes = (2, 3, 5, 7)
    for i in range(4):
        orders = [0x2, 0x3, 0x5, 0x7]
        orders[i] ^= 1 << (3 - i)  # flip the target's own column bit
        flipped = AddSubMatrix(tuple(orders))
        ref = AddSubMatrix((0x2, 0x3, 0x5, 0x7))
        for t in primes:
            for c in primes:
                if t != c:
                    assert flipped.delta(t, c) == ref.delta(t, c)


def test_arrangement_bits_never_touch_deltas():
    rng = random.Random(9)
    orders = (0x2, 0x3, 0x5, 0x7)
    ref = AddSubMatrix(orders)
    for _ in range(50):
        raw = bytearray(rng.randbytes(16))
        raw[0:2] = bytes([0x23, 0x57])
        asm, _ = derive_material(BaseKey.from_bytes(bytes(raw)))
        for t in (2, 3, 5, 7):
            for c in (2, 3, 5, 7):
                if t != c:
                    assert asm.delta(t, c) == ref.delta(t, c)


def test_generate_key_two_calls_differ_and_parse():
    k1 = generate_key()
    k2 = generate_key()
    assert k1 != k2
    derive_material(k1)
    derive_material(k2)


def test_generated_nibbles_chi_square():
    rng = random.Random(1234)
    counts = [0] * 16
    while sum(counts) < 10000:
        for byte in generate_key(rng).to_bytes():
            counts[byte >> 4] += 1
            counts[byte & 15] += 1
    n = sum(counts)
    expected = n / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT


def test_extend_key_lengths():
    chain = KeyChain(base=generate_key(random.Random(5)))
    assert chain.key_bits == 128
    rng = random.Random(6)
    for k in range(1, 9):
        chain = extend_key(chain, rng)
        assert len(chain.sticky) == k
        assert chain.key_bits == 128 + 32 * k


def test_extend_is_append_only():
    rng = random.Random(8)
    chain = KeyChain(base=generate_key(rng))
    chain = extend_key(chain, rng)
    chain = extend_key(chain, rng)
    longer = extend_key(chain, rng)
    assert longer.sticky[: len(chain.sticky)] == chain.sticky
    assert longer.base == chain.base


def test_key_types_are_value_tuples_that_round_trip():
    rng = random.Random(17)
    for depth in range(4):
        chain = KeyChain(generate_key(rng))
        for _ in range(depth):
            chain = extend_key(chain, rng)
        raw = chain.base.to_bytes()
        assert BaseKey.from_bytes(raw) == chain.base
        assert BaseKey.from_bytes(raw).to_bytes() == raw
        assert container.read_key(container.write_key(chain)) == chain
        grown = extend_key(chain, rng)
        assert grown.base == chain.base
        assert grown.sticky[:-1] == chain.sticky
        assert grown.key_bits == chain.key_bits + 32
        same = KeyChain(BaseKey.from_bytes(raw), tuple(chain.sticky))
        assert same == chain and hash(same) == hash(chain)
    assert isinstance(chain, tuple) and isinstance(chain.base, tuple)
    assert KeyChain(chain.base).sticky == ()


class _BrokenRng:
    def getrandbits(self, n):
        raise OSError("no entropy")


def test_entropy_unavailable():
    with pytest.raises(EntropyUnavailable):
        generate_key(_BrokenRng())
    with pytest.raises(EntropyUnavailable):
        extend_key(KeyChain(base=generate_key(random.Random(0))), _BrokenRng())
