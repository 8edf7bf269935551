import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cryptompress import codec
from cryptompress.cipher import seal_pairs
from cryptompress.engine import AddSubMatrix, CompressedBlock, compress_block, decompress_block, rebuild, replay
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


_NO_EVENTS = {0: [], 1: [], 2: [], 3: []}
_ALL_MINUS = AddSubMatrix((0, 0, 0, 0)).deltas

# One hand-built input per rebuild failure: (reason, matrices, the exact
# message decompress_block raises, the details rebuild returns).
REBUILD_FAILURES = [
    (
        "term_prefix",
        CompressedBlock((2, 3, None, None), _NO_EVENTS, ((0, 0), None, (1, 1), None)),
        "term slots ((0, 0), None, (1, 1), None) are not a left prefix",
        (((0, 0), None, (1, 1), None),),
    ),
    (
        "duplicate_target",
        CompressedBlock((2, None, None, None), _NO_EVENTS, ((0, 0), (0, 0), None, None)),
        "prime 2 holds two term slots",
        (2,),
    ),
    (
        "crossings",
        CompressedBlock((2, None, None, None), _NO_EVENTS, ((0, 3), None, None, None)),
        "prime 2: 3 crossings over 0 placed cells",
        (2, 3, 0),
    ),
    (
        "event_order",
        CompressedBlock((2, None, None, None), {**_NO_EVENTS, 0: [(1, 15)]}, ((0, 1), None, None, None)),
        "prime 2: event (1,15) out of order or range",
        (2, 1, 15),
    ),
    (
        "rm_checksum",
        CompressedBlock((3, None, None, None), _NO_EVENTS, ((0, 0), None, None, None)),
        "prime 2: outcome 3 fails the checksum",
        (2, 3),
    ),
    (
        "size",
        CompressedBlock((2, None, None, None), _NO_EVENTS, ((0, 0), None, None, None)),
        "reconstructed 1 symbols, expected 15",
        (1,),
    ),
    (
        "orphan_outcome",
        CompressedBlock((30, None, None, None), {**_NO_EVENTS, 0: [(1, 14)], 1: [(1, 1)]}, ((0, 1), None, None, None)),
        "a prime without a term slot has an outcome or events",
        (),
    ),
]


@pytest.mark.parametrize("reason, cb, message, details", REBUILD_FAILURES, ids=[f[0] for f in REBUILD_FAILURES])
def test_each_rebuild_failure_returns_its_reason_and_raises_its_message(reason, cb, message, details):
    """rebuild returns (reason, *details); decompress_block raises
    IntegrityFailure with the message those details fill and the reason."""
    assert rebuild(*cb, _ALL_MINUS) == (reason, *details)
    with pytest.raises(IntegrityFailure) as info:
        decompress_block(*cb, _ALL_MINUS)
    assert str(info.value) == message
    assert info.value.reason == reason


# Failures at the edges of a check, each with the details rebuild returns
# and the message decompress_block raises: crossings counted net of a
# slot's events, and an event at sequence 15, which no 15-symbol block
# has, refused even when the slot's checksum and crossings hold.
EDGE_FAILURES = [
    (
        CompressedBlock((2, None, None, None), {**_NO_EVENTS, 0: [(1, 1)]}, ((0, 3), None, None, None)),
        ("crossings", 2, 2, 0),
        "prime 2: 2 crossings over 0 placed cells",
    ),
    (
        CompressedBlock((32, None, None, None), {**_NO_EVENTS, 0: [(k, 1) for k in range(1, 16)]}, ((0, 15), None, None, None)),
        ("event_order", 2, 15, 1),
        "prime 2: event (15,1) out of order or range",
    ),
]


@pytest.mark.parametrize("cb, failure, message", EDGE_FAILURES, ids=["crossings_net_of_events", "event_at_15"])
def test_rebuild_failures_at_the_edges_of_a_check(cb, failure, message):
    assert rebuild(*cb, _ALL_MINUS) == failure
    with pytest.raises(IntegrityFailure, match=rf"^{re.escape(message)}$"):
        decompress_block(*cb, _ALL_MINUS)


def test_rebuild_matches_decompress_on_20000_blocks_under_correct_and_random_masks():
    """A differential over seeded blocks, each unsealed under the right
    mask and under a random one: rebuild returns exactly the block
    decompress_block returns, and a failure tuple exactly when it raises,
    with the same reason."""
    rng = random.Random(29)
    tables = [AddSubMatrix(tuple(rng.randrange(16) for _ in range(4))).deltas for _ in range(50)]
    outcomes = {"block": 0, "failure": 0}
    for n in range(20000):
        deltas = tables[n % len(tables)]
        block = rng.getrandbits(codec.BLOCK_BITS)
        cb = compress_block(block, deltas)
        mask, swap = rng.getrandbits(32), bool(rng.getrandbits(1))
        for sm in (cb.sm, {i: seal_pairs(cb.sm[i], mask, swap, i) for i in range(4)}):
            out = rebuild(cb.rm, sm, cb.tm, deltas)
            try:
                expected = decompress_block(cb.rm, sm, cb.tm, deltas)
            except IntegrityFailure as exc:
                assert type(out) is tuple and out[0] == exc.reason
                outcomes["failure"] += 1
            else:
                assert type(out) is int and out == expected
                outcomes["block"] += 1
        assert rebuild(*cb, deltas) == block
    assert min(outcomes.values()) > 1000


def test_replay_of_each_prefix_gives_the_rebuild_verdict_at_its_last_target():
    """replay over the first k occupied term slots, for every k: an empty
    prefix places nothing; a prefix passes with the symbols placed so far
    until the first failing target, from which every longer prefix returns
    that failure, the one rebuild returns. analysis.bruteforce_demo relies
    on this to decide a candidate at its first keyed target."""
    rng = random.Random(32)
    tables = [AddSubMatrix(tuple(rng.randrange(16) for _ in range(4))).deltas for _ in range(50)]
    failed_at = [0] * 5
    for n in range(5000):
        deltas = tables[n % len(tables)]
        cb = compress_block(rng.getrandbits(codec.BLOCK_BITS), deltas)
        mask, swap = rng.getrandbits(32), bool(rng.getrandbits(1))
        sm = {i: seal_pairs(cb.sm[i], mask, swap, i) for i in range(4)} if n % 4 else cb.sm
        slots = [slot for slot in cb.tm if slot is not None]
        verdicts = [replay(slots[:k], cb.rm, sm, deltas) for k in range(len(slots) + 1)]
        assert verdicts[0] == []
        first = next((k for k, v in enumerate(verdicts) if type(v) is tuple), None)
        if first is None:
            assert all(type(v) is list for v in verdicts)
            assert [len(v) for v in verdicts] == sorted({len(v) for v in verdicts})
            out = rebuild(cb.rm, sm, cb.tm, deltas)
            assert type(out) is int or out[0] in ("size", "orphan_outcome")
            failed_at[4] += 1
        else:
            assert verdicts[first:] == [verdicts[first]] * (len(verdicts) - first)
            assert verdicts[first][1] == codec.PRIMES[slots[first - 1][0]]
            assert rebuild(cb.rm, sm, cb.tm, deltas) == verdicts[first]
            failed_at[first - 1] += 1
    # a wrong mask seldom passes three targets: none of these fails at the fourth
    assert all(failed_at[k] > 0 for k in (0, 1, 2, 4))
