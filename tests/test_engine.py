import random

import pytest
from hypothesis import given, settings, strategies as st

from cryptompress import codec
from cryptompress.engine import AddSubMatrix, CompressedBlock, compress_block, decompress_block
from cryptompress.errors import IntegrityFailure, ValueOutOfRange
from test_acceptance import closed_form_outcomes
from test_compress_oracle import EmptyResidual, SequenceEvent, traverse_target

st_orders = st.tuples(*[st.integers(0, 15)] * 4)
st_symbols = st.lists(st.sampled_from(codec.PRIMES), min_size=15, max_size=15)


def tail_run_identity(symbols):
    """Events of the first target = maximal runs of it in the tail."""
    target = symbols[0]
    runs = 0
    in_run = False
    for s in symbols[1:]:
        if s == target and not in_run:
            runs += 1
        in_run = s == target
    return runs


def golden_matrices(golden):
    """The published RM/SM/TM tables by prime index."""
    return CompressedBlock(
        rm=tuple(golden["rm"][str(p)] for p in codec.PRIMES),
        sm={i: [tuple(e) for e in golden["sm"][str(p)]] for i, p in enumerate(codec.PRIMES)},
        tm=tuple(None if s is None else (codec.PRIME_INDEX[s[0]], s[1]) for s in golden["tm"]),
    )


def test_golden_asm_table(golden):
    asm = AddSubMatrix(tuple(golden["orders"]))
    for t, row in golden["asm_deltas"].items():
        for c, want in row.items():
            assert asm.delta(int(t), int(c)) == want


def test_all_ones_orders_give_plus_one_everywhere():
    asm = AddSubMatrix((15, 15, 15, 15))
    for t in codec.PRIMES:
        for c in codec.PRIMES:
            if t != c:
                assert asm.delta(t, c) == 1


@pytest.mark.parametrize("orders", [(16, 0, 0, 0), (0, 0, -1, 0), (1, 2, 3)])
def test_asm_rejects_orders_that_are_not_four_nibbles(orders):
    with pytest.raises(ValueOutOfRange):
        AddSubMatrix(orders)


def test_asm_equality_and_hash_follow_orders():
    a, b = AddSubMatrix((9, 4, 0, 15)), AddSubMatrix(orders=(9, 4, 0, 15))
    assert a == b and hash(a) == hash(b)
    assert a != AddSubMatrix((9, 4, 0, 14))


def test_golden_first_traversal(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    want = golden["first_traversal"]
    res = traverse_target(golden["symbols"], asm)
    assert res.target == want["target"]
    assert res.outcome == want["outcome"]
    assert res.events == [SequenceEvent(*e) for e in want["events"]]
    assert res.last_seq == want["last_seq"]
    assert res.new_residual == want["new_residual"]


def test_golden_second_traversal(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    want = golden["second_traversal"]
    res = traverse_target(golden["first_traversal"]["new_residual"], asm)
    assert (res.target, res.outcome, res.last_seq) == (7, 42, 8)
    assert res.events == [SequenceEvent(*e) for e in want["events"]]
    assert res.new_residual == want["new_residual"]


def test_fifteen_twos_single_absorption():
    res = traverse_target([2] * 15, AddSubMatrix((0, 0, 0, 0)))
    assert res.target == 2
    assert res.outcome == 30  # 2 + 14*2
    assert res.events == [SequenceEvent(1, 14)]
    assert res.last_seq == 1
    assert res.new_residual == []


def test_traverse_rejects_empty():
    with pytest.raises(EmptyResidual):
        traverse_target([], AddSubMatrix((0, 0, 0, 0)))


def test_golden_compress_matches_published_tables(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    cb = compress_block(codec.symbols_to_block(golden["symbols"]), asm.deltas)
    want = golden_matrices(golden)
    assert cb.rm == want.rm
    for i in range(4):
        assert cb.sm[i] == want.sm[i]
    assert cb.tm == want.tm


def test_compress_fifteen_twos():
    cb = compress_block(0, AddSubMatrix((1, 2, 3, 4)).deltas)
    assert cb.rm == (30, None, None, None)
    assert cb.sm == {0: [(1, 14)], 1: [], 2: [], 3: []}
    assert cb.tm == ((0, 1), None, None, None)


def test_golden_decompress(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    block = decompress_block(*golden_matrices(golden), asm.deltas)
    assert list(codec.block_to_symbols(block)) == golden["symbols"]


def test_decompress_fifteen_twos():
    cb = CompressedBlock(
        rm=(30, None, None, None),
        sm={0: [(1, 14)], 1: [], 2: [], 3: []},
        tm=((0, 1), None, None, None),
    )
    block = decompress_block(*cb, AddSubMatrix((9, 9, 9, 9)).deltas)
    assert codec.block_to_symbols(block) == (2,) * 15


def test_round_trip_10000_random_blocks_and_100_asms():
    rng = random.Random(1)
    tables = [AddSubMatrix(tuple(rng.randrange(16) for _ in range(4))).deltas for _ in range(100)]
    for i in range(10000):
        block = rng.getrandbits(30)
        deltas = tables[i % 100]
        assert decompress_block(*compress_block(block, deltas), deltas) == block


@settings(max_examples=300, deadline=None)
@given(st_symbols, st_orders)
def test_round_trip_property(symbols, orders):
    deltas = AddSubMatrix(orders).deltas
    block = codec.symbols_to_block(symbols)
    assert list(codec.block_to_symbols(decompress_block(*compress_block(block, deltas), deltas))) == symbols


@settings(max_examples=300, deadline=None)
@given(st_symbols, st_orders)
def test_closed_form_and_conservation(symbols, orders):
    asm = AddSubMatrix(orders)
    cb = compress_block(codec.symbols_to_block(symbols), asm.deltas)
    want = closed_form_outcomes(symbols, asm)
    for i, p in enumerate(codec.PRIMES):
        assert cb.rm[i] == want.get(p)
    consumed = sum(
        1 + sum(run for _, run in cb.sm[i])
        for i in range(4)
        if cb.rm[i] is not None
    )
    assert consumed == 15


@settings(max_examples=300, deadline=None)
@given(st_symbols, st_orders)
def test_event_count_and_nibble_ranges(symbols, orders):
    asm = AddSubMatrix(orders)
    res = traverse_target(symbols, asm)
    assert len(res.events) == tail_run_identity(symbols)
    non_target = sum(1 for s in symbols[1:] if s != res.target)
    assert res.last_seq == len(res.events) + non_target
    for e in res.events:
        assert 1 <= e.seq <= 14
        assert 1 <= e.redundant <= 14


def test_singleton_final_prime_round_trips():
    # the last processed prime occurring once traverses in zero steps
    symbols = [2] * 14 + [3]
    deltas = AddSubMatrix((0, 0, 0, 0)).deltas
    cb = compress_block(codec.symbols_to_block(symbols), deltas)
    assert cb.tm[0] == (1, 0)  # prime 3
    assert cb.sm[1] == []
    assert list(codec.block_to_symbols(decompress_block(*cb, deltas))) == symbols


def test_decompress_rejects_tampered_outcome(golden, golden_chain):
    deltas = AddSubMatrix(golden_chain.base.orders).deltas
    cb = compress_block(codec.symbols_to_block(golden["symbols"]), deltas)
    rm = list(cb.rm)
    rm[2] += 1  # prime 5
    with pytest.raises(IntegrityFailure):
        decompress_block(rm, cb.sm, cb.tm, deltas)


def test_decompress_rejects_duplicate_seq(golden, golden_chain):
    deltas = AddSubMatrix(golden_chain.base.orders).deltas
    cb = compress_block(codec.symbols_to_block(golden["symbols"]), deltas)
    bad_sm = {**cb.sm, 2: [(1, 2), (1, 1), (12, 1)]}  # prime 5
    with pytest.raises(IntegrityFailure):
        decompress_block(cb.rm, bad_sm, cb.tm, deltas)


def test_decompress_rejects_non_prefix_tm(golden, golden_chain):
    deltas = AddSubMatrix(golden_chain.base.orders).deltas
    cb = compress_block(codec.symbols_to_block(golden["symbols"]), deltas)
    gap = (cb.tm[0], None, cb.tm[2], cb.tm[3])
    with pytest.raises(IntegrityFailure):
        decompress_block(cb.rm, cb.sm, gap, deltas)


def test_decompress_rejects_orphan_events():
    cb = CompressedBlock(
        rm=(30, None, None, None),
        sm={0: [(1, 14)], 1: [(1, 1)], 2: [], 3: []},
        tm=((0, 1), None, None, None),
    )
    with pytest.raises(IntegrityFailure):
        decompress_block(*cb, AddSubMatrix((0, 0, 0, 0)).deltas)
