import random

import pytest
from hypothesis import given, settings, strategies as st

from cryptompress import codec
from cryptompress.engine import (
    AddSubMatrix,
    CompressedBlock,
    SequenceEvent,
    compress_block,
    traverse_target,
)
from cryptompress.errors import EmptyResidual, IntegrityFailure
from test_decrypt_oracle import decompress

st_orders = st.tuples(*[st.integers(0, 15)] * 4)
st_symbols = st.lists(st.sampled_from(codec.PRIMES), min_size=15, max_size=15)


def closed_form_outcomes(symbols, asm):
    """Independent oracle: outcome_t = t*count(t) + sum of deltas over the
    cells of every prime processed after t. Processing order is the order
    of first occurrence, so no traversal is needed."""
    order = []
    for s in symbols:
        if s not in order:
            order.append(s)
    outcomes = {}
    for i, t in enumerate(order):
        later = order[i + 1 :]
        outcome = t * symbols.count(t)
        for c in symbols:
            if c in later:
                outcome += asm.delta(t, c)
        outcomes[t] = outcome
    return outcomes


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
    cb = compress_block(golden["symbols"], asm)
    assert cb.rm == {int(p): v for p, v in golden["rm"].items()}
    for p in codec.PRIMES:
        assert cb.sm[p] == [SequenceEvent(*e) for e in golden["sm"][str(p)]]
    assert cb.tm == tuple(tuple(s) for s in golden["tm"])


def test_compress_fifteen_twos():
    cb = compress_block([2] * 15, AddSubMatrix((1, 2, 3, 4)))
    assert cb.rm == {2: 30, 3: None, 5: None, 7: None}
    assert cb.sm == {2: [SequenceEvent(1, 14)], 3: [], 5: [], 7: []}
    assert cb.tm == ((2, 1), None, None, None)


def test_golden_decompress(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    cb = CompressedBlock(
        rm={int(p): v for p, v in golden["rm"].items()},
        sm={p: [SequenceEvent(*e) for e in golden["sm"][str(p)]] for p in codec.PRIMES},
        tm=tuple(tuple(s) for s in golden["tm"]),
    )
    assert list(decompress(cb, asm)) == golden["symbols"]


def test_decompress_fifteen_twos():
    cb = CompressedBlock(
        rm={2: 30, 3: None, 5: None, 7: None},
        sm={2: [SequenceEvent(1, 14)], 3: [], 5: [], 7: []},
        tm=((2, 1), None, None, None),
    )
    assert decompress(cb, AddSubMatrix((9, 9, 9, 9))) == (2,) * 15


def test_round_trip_10000_random_blocks_and_100_asms():
    rng = random.Random(1)
    asms = [AddSubMatrix(tuple(rng.randrange(16) for _ in range(4))) for _ in range(100)]
    for i in range(10000):
        symbols = codec.block_to_symbols(rng.getrandbits(30))
        asm = asms[i % 100]
        assert decompress(compress_block(symbols, asm), asm) == symbols


@settings(max_examples=300, deadline=None)
@given(st_symbols, st_orders)
def test_round_trip_property(symbols, orders):
    asm = AddSubMatrix(orders)
    assert list(decompress(compress_block(symbols, asm), asm)) == symbols


@settings(max_examples=300, deadline=None)
@given(st_symbols, st_orders)
def test_closed_form_and_conservation(symbols, orders):
    asm = AddSubMatrix(orders)
    cb = compress_block(symbols, asm)
    want = closed_form_outcomes(symbols, asm)
    for p in codec.PRIMES:
        assert cb.rm[p] == want.get(p)
    consumed = sum(
        1 + sum(e.redundant for e in cb.sm[p])
        for p in codec.PRIMES
        if cb.rm[p] is not None
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
    asm = AddSubMatrix((0, 0, 0, 0))
    cb = compress_block(symbols, asm)
    assert cb.tm[0] == (3, 0)
    assert cb.sm[3] == []
    assert list(decompress(cb, asm)) == symbols


def test_decompress_rejects_tampered_outcome(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    cb = compress_block(golden["symbols"], asm)
    bad = CompressedBlock(rm={**cb.rm, 5: cb.rm[5] + 1}, sm=cb.sm, tm=cb.tm)
    with pytest.raises(IntegrityFailure):
        decompress(bad, asm)


def test_decompress_rejects_duplicate_seq(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    cb = compress_block(golden["symbols"], asm)
    bad_sm = {**cb.sm, 5: [SequenceEvent(1, 2), SequenceEvent(1, 1), SequenceEvent(12, 1)]}
    with pytest.raises(IntegrityFailure):
        decompress(CompressedBlock(rm=cb.rm, sm=bad_sm, tm=cb.tm), asm)


def test_decompress_rejects_non_prefix_tm(golden, golden_chain):
    asm = AddSubMatrix(golden_chain.base.orders)
    cb = compress_block(golden["symbols"], asm)
    gap = (cb.tm[0], None, cb.tm[2], cb.tm[3])
    with pytest.raises(IntegrityFailure):
        decompress(CompressedBlock(rm=cb.rm, sm=cb.sm, tm=gap), asm)


def test_decompress_rejects_orphan_events():
    cb = CompressedBlock(
        rm={2: 30, 3: None, 5: None, 7: None},
        sm={2: [SequenceEvent(1, 14)], 3: [SequenceEvent(1, 1)], 5: [], 7: []},
        tm=((2, 1), None, None, None),
    )
    with pytest.raises(IntegrityFailure):
        decompress(cb, AddSubMatrix((0, 0, 0, 0)))
