"""Differential oracle for the decrypt path.

`reference_decrypt` is the step-by-step decrypt path, kept here as the
reference: `unscramble` (inventory check), `_split_logical` into a
PrimeBlock (slot kinds, the x_pos witness), `open_pairs` (nibble
check) and `reference_decompress`, which walks a backward cursor through
each target and checks where it comes to rest. `cipher.decrypt_block`
must return the same block or raise the same exception type on every
grid. The one intended difference: a term cell naming a prime code
outside 0..3 is an IntegrityFailure where the reference raises a bare
IndexError.
"""

import random

import pytest

import cryptompress as cm
from cryptompress import codec
from cryptompress.cipher import (
    ASM,
    EMPTY,
    KIND_NAMES,
    N_SLOTS,
    RM,
    SM,
    SM_BASE,
    TM,
    CipherGrid,
    _open_grid,
    check_rounds,
    compile_key,
)
from cryptompress.codec import PRIMES
from cryptompress.engine import AddSubMatrix, decompress_block
from cryptompress.errors import CryptompressError, IntegrityFailure, ValueOutOfRange
from cryptompress.keyschedule import KeyChain, extend_key, generate_key
from test_acceptance import closed_form_outcomes
from test_analysis import candidate_chain
from test_compress_oracle import PrimeBlock, SequenceEvent, index_shape, reference_compress, unscramble

PRIME_INDEX = codec.PRIME_INDEX


def _pair_mask(mask, prime_index):
    """The prime's (S, R) mask nibbles: its byte of `mask`, S nibble high."""
    return (mask >> (28 - 8 * prime_index)) & 15, (mask >> (24 - 8 * prime_index)) & 15


def open_pairs(pairs, key, prime_index):
    """Inverse of seal_pairs; rejects values that do not fit a nibble."""
    ms, mr = _pair_mask(key.mask, prime_index)
    out = []
    for a, b in pairs:
        if not (0 <= a <= 15 and 0 <= b <= 15):
            raise ValueOutOfRange(f"prime {PRIMES[prime_index]}: ({a},{b}) does not fit a nibble")
        out.append(SequenceEvent(b ^ mr, a ^ ms) if key.swap else SequenceEvent(a ^ ms, b ^ mr))
    return out


def _split_logical(cells, key):
    """The logical cells as a PrimeBlock; IntegrityFailure when a
    slot holds a cell of the wrong kind or a string cell's X mark is off
    the diagonal."""
    for kind in (0, 1):
        for i in range(N_SLOTS):
            c = cells[kind * N_SLOTS + i]
            if c[0] != ASM:
                raise IntegrityFailure(f"matrix-string slot ({kind},{i}) holds {KIND_NAMES[c[0]]}")
            if c[1] != i:
                raise IntegrityFailure(f"matrix-string cell at slot {i} marks position {c[1]}")
    rm = {}
    for i, p in enumerate(PRIMES):
        c = cells[2 * N_SLOTS + i]
        if c[0] not in (RM, EMPTY):
            raise IntegrityFailure(f"outcome slot for prime {p} holds {KIND_NAMES[c[0]]}")
        rm[p] = c[1] if c[0] == RM else None
        s = cells[SM_BASE + i]
        if s[0] != SM:
            raise IntegrityFailure(f"sequence slot for prime {p} holds {KIND_NAMES[s[0]]}")
    tm = []
    for i in range(N_SLOTS):
        c = cells[4 * N_SLOTS + i]
        if c[0] not in (TM, EMPTY):
            raise IntegrityFailure(f"term slot {i} holds {KIND_NAMES[c[0]]}")
        tm.append((PRIMES[c[1]], c[2]) if c[0] == TM else None)
    sm = {p: open_pairs(cells[SM_BASE + i][1], key, i) for i, p in enumerate(PRIMES)}
    return PrimeBlock(rm=rm, sm=sm, tm=tuple(tm))


def _validate_events(prime, events, last_seq):
    by_seq = {}
    prev = 0
    for seq, redundant in events:
        if seq <= prev:
            raise IntegrityFailure(f"prime {prime}: sequence numbers not increasing")
        if not 1 <= seq <= 14 or not 1 <= redundant <= 14:
            raise IntegrityFailure(f"prime {prime}: event ({seq},{redundant}) out of range")
        if seq > last_seq:
            raise IntegrityFailure(f"prime {prime}: event past last sequence number {last_seq}")
        by_seq[seq] = redundant
        prev = seq
    return by_seq


def reference_decompress(cb, asm):
    """Backward-cursor reconstruction. Term slots are replayed left to
    right; each target's cursor starts at the right end of the partial
    block carrying the stored outcome and walks the sequence numbers
    backwards: recorded events re-insert the absorbed cells and subtract
    their sum, everything else is an inverse crossing subtracting the
    delta of the cell left of the cursor. The cursor must come to rest at
    position 0 holding exactly the target's value."""
    occupied = []
    seen_empty = False
    for slot in cb.tm:
        if slot is None:
            seen_empty = True
        else:
            if seen_empty:
                raise IntegrityFailure("term slots are not a left prefix")
            occupied.append(slot)
    if not occupied:
        raise IntegrityFailure("no term slots occupied")
    primes_in_tm = [p for p, _ in occupied]
    if any(p not in PRIME_INDEX for p in primes_in_tm):
        raise IntegrityFailure("term slot names a non-prime target")
    if len(set(primes_in_tm)) != len(primes_in_tm):
        raise IntegrityFailure("duplicate prime in term slots")
    for p in PRIMES:
        present = p in primes_in_tm
        if present and cb.rm.get(p) is None:
            raise IntegrityFailure(f"prime {p} has a term slot but no outcome")
        if not present and cb.rm.get(p) is not None:
            raise IntegrityFailure(f"prime {p} has an outcome but no term slot")
        if not present and cb.sm.get(p):
            raise IntegrityFailure(f"prime {p} has events but no term slot")
    block = []
    for target, last_seq in occupied:
        if last_seq < 0:
            raise IntegrityFailure(f"prime {target}: negative last sequence number")
        by_seq = _validate_events(target, cb.sm.get(target, []), last_seq)
        value = cb.rm[target]
        cursor = len(block)
        for n in range(last_seq, 0, -1):
            if n in by_seq:
                r = by_seq[n]
                value -= r * target
                block[cursor:cursor] = [target] * r
                if len(block) >= 15:
                    raise IntegrityFailure("reconstruction exceeds block size")
            else:
                if cursor == 0:
                    raise IntegrityFailure(f"prime {target}: inverse crossing with no cell to the left")
                cursor -= 1
                value -= asm.delta(target, block[cursor])
        if cursor != 0 or value != target:
            raise IntegrityFailure(f"prime {target}: cursor ended at {cursor} with value {value}")
        block.insert(0, target)
    if len(block) != 15:
        raise IntegrityFailure(f"reconstructed {len(block)} symbols, expected 15")
    return tuple(block)


def reference_decrypt(grid, chain):
    check_rounds(grid.sticky_rounds, chain)
    key = compile_key(chain)
    cb = _split_logical(unscramble(grid.cells, key.slots), key)
    return codec.symbols_to_block(reference_decompress(cb, key.asm))


def decompress(cb, asm):
    """engine.decompress_block on a PrimeBlock, as symbols: its matrices
    by prime index and the Add-Sub Matrix as a delta table."""
    return codec.block_to_symbols(decompress_block(*index_shape(cb), asm.deltas))


def _verdict(fn, grid, chain):
    try:
        return fn(grid, chain)
    except (CryptompressError, IndexError) as exc:
        return type(exc).__name__


# --- grid mutations: each takes (grid, chain, rng) -> (grid, chain) -------


def _with_cells(grid, cells, rounds=None):
    return CipherGrid(grid.orders, tuple(cells), grid.sticky_rounds if rounds is None else rounds)


def _logical_slot(chain, index):
    return compile_key(chain).slots[index]


def honest(grid, chain, rng):
    return grid, chain


def wrong_low_bits(grid, chain, rng):
    value = rng.getrandbits(16)
    return grid, candidate_chain(chain, 16, value)


def rm_shift(grid, chain, rng):
    cells = list(grid.cells)
    rms = [j for j, c in enumerate(cells) if c[0] == RM]
    j = rng.choice(rms)
    cells[j] = (RM, cells[j][1] + rng.choice((-3, -2, -1, 1, 2, 3)))
    return _with_cells(grid, cells), chain


def sm_edit(grid, chain, rng):
    cells = list(grid.cells)
    j = _logical_slot(chain, SM_BASE + rng.randrange(N_SLOTS))
    pairs = list(cells[j][1])
    value = lambda: rng.choice((rng.randrange(16), rng.randrange(16), 16, -1, 255))
    op = rng.randrange(3)
    if op == 0 or not pairs:
        pairs.insert(rng.randrange(len(pairs) + 1), (value(), value()))
    elif op == 1:
        pairs[rng.randrange(len(pairs))] = (value(), value())
    else:
        del pairs[rng.randrange(len(pairs))]
    cells[j] = (SM, tuple(pairs))
    return _with_cells(grid, cells), chain


def tm_edit(grid, chain, rng):
    cells = list(grid.cells)
    slots = [_logical_slot(chain, 4 * N_SLOTS + i) for i in range(N_SLOTS)]
    occupied = [j for j in slots if cells[j][0] == TM]
    empty = [j for j in slots if cells[j][0] == EMPTY]
    j = rng.choice(occupied)
    if empty and rng.random() < 0.5:  # a gap: move a term pair past an empty slot
        k = rng.choice(empty)
        cells[j], cells[k] = cells[k], cells[j]
    else:  # wrong last_seq
        cells[j] = (TM, cells[j][1], cells[j][2] + rng.choice((-2, -1, 1, 2)))
    return _with_cells(grid, cells), chain


def cell_swap(grid, chain, rng):
    cells = list(grid.cells)
    a, b = rng.sample(range(len(cells)), 2)
    cells[a], cells[b] = cells[b], cells[a]
    return _with_cells(grid, cells), chain


def inventory_edit(grid, chain, rng):
    cells = list(grid.cells)
    op = rng.randrange(3)
    if op == 0:
        cells[rng.randrange(len(cells))] = (EMPTY,)
    elif op == 1:
        cells[rng.randrange(len(cells))] = rng.choice([(ASM, rng.randrange(4), 0), (RM, 9), (TM, 0, 3)])
    else:
        del cells[rng.randrange(len(cells))]
    return _with_cells(grid, cells), chain


def bad_prime_code(grid, chain, rng):
    cells = list(grid.cells)
    j = rng.choice([j for j, c in enumerate(cells) if c[0] == TM])
    cells[j] = (TM, rng.choice((4, 7, 255, -5)), cells[j][2])
    return _with_cells(grid, cells), chain


def round_count(grid, chain, rng):
    return _with_cells(grid, grid.cells, grid.sticky_rounds + rng.choice((-1, 1))), chain


MUTATIONS = (
    honest,
    wrong_low_bits,
    rm_shift,
    sm_edit,
    tm_edit,
    cell_swap,
    inventory_edit,
    bad_prime_code,
    round_count,
)


def test_one_pass_decrypt_matches_reference_on_20000_grids():
    rng = random.Random(20261018)
    verdicts = {}
    for n in range(20_250):
        if n % len(MUTATIONS) == 0:
            chain = KeyChain(generate_key(rng))
            for _ in range(n // len(MUTATIONS) % 4):
                chain = extend_key(chain, rng)
            block = rng.getrandbits(30)
            grid = cm.encrypt_block(block, chain)
        mutate = MUTATIONS[n % len(MUTATIONS)]
        g, c = mutate(grid, chain, rng)
        want = _verdict(reference_decrypt, g, c)
        got = _verdict(cm.decrypt_block, g, c)
        if want == "IndexError":  # the one intended difference
            assert any(cell[0] == TM and not 0 <= cell[1] < 4 for cell in g.cells), n
            assert got == "IntegrityFailure", n
        else:
            assert got == want, (n, mutate.__name__, g, c)
        key = (mutate.__name__, got if isinstance(got, str) else "block")
        verdicts[key] = verdicts.get(key, 0) + 1
    # every mutation reached the verdicts it exists to exercise
    assert verdicts[("honest", "block")] == 2250
    for name in ("wrong_low_bits", "rm_shift", "sm_edit", "tm_edit", "cell_swap"):
        assert verdicts.get((name, "IntegrityFailure"), 0) > 0, name
    assert verdicts[("sm_edit", "ValueOutOfRange")] > 0
    assert verdicts[("inventory_edit", "InventoryMismatch")] > 0
    assert verdicts[("bad_prime_code", "IntegrityFailure")] == 2250
    assert verdicts[("round_count", "RoundCountMismatch")] == 2250


def test_harden_refuses_what_the_decrypt_gate_refuses():
    """harden_message opens every grid through decrypt's slot gate: it
    raises the gate's exception on every grid the gate refuses, and a grid
    it hardens decrypts under the grown chain to the verdict the original
    had under the old chain."""
    rng = random.Random(20261019)
    verdicts = {}
    for n in range(4500):
        if n % len(MUTATIONS) == 0:
            chain = KeyChain(generate_key(rng))
            for _ in range(n // len(MUTATIONS) % 4):
                chain = extend_key(chain, rng)
            grid = cm.encrypt_block(rng.getrandbits(30), chain)
        mutate = MUTATIONS[n % len(MUTATIONS)]
        g, c = mutate(grid, chain, rng)
        gate = _verdict(_open_grid, g, c)
        try:
            (hardened,), grown = cm.harden_message((g,), c, rng)
        except CryptompressError as exc:
            assert type(exc).__name__ == gate, (n, mutate.__name__, exc)
            got = "refused"
        else:
            assert not isinstance(gate, str), (n, mutate.__name__, gate)
            assert _verdict(cm.decrypt_block, hardened, grown) == _verdict(cm.decrypt_block, g, c), n
            got = "hardened"
        verdicts[mutate.__name__, got] = verdicts.get((mutate.__name__, got), 0) + 1
    # harden refuses cell swaps that decrypt refuses, and hardens the rest
    for name in ("cell_swap", "inventory_edit", "round_count"):
        assert verdicts.get((name, "refused"), 0) > 0, name
    for name in ("honest", "wrong_low_bits", "sm_edit", "bad_prime_code"):
        assert verdicts.get((name, "hardened"), 0) > 0, name


def test_rebuild_matches_reference_on_perturbed_blocks():
    """Engine level, with the Add-Sub Matrix varied too: any RM, SM or TM
    perturbation gets the same verdict from both reconstructions."""
    rng = random.Random(7)
    accepted = 0
    for _ in range(5000):
        symbols = cm.block_to_symbols(rng.getrandbits(30))
        asm = AddSubMatrix(tuple(rng.randrange(16) for _ in range(4)))
        cb = reference_compress(symbols, asm)
        rm, sm, tm = dict(cb.rm), {p: list(e) for p, e in cb.sm.items()}, list(cb.tm)
        p = rng.choice(PRIMES)
        op = rng.randrange(4)
        if op == 0 and rm[p] is not None:
            rm[p] += rng.choice((-1, 1))
        elif op == 1:
            sm[p].insert(rng.randrange(len(sm[p]) + 1), SequenceEvent(rng.randrange(16), rng.randrange(16)))
        elif op == 2 and sm[p]:
            sm[p].pop(rng.randrange(len(sm[p])))
        elif tm[0] is not None:
            i = rng.randrange(4)
            if tm[i] is not None:
                tm[i] = (tm[i][0], tm[i][1] + rng.choice((-1, 1)))
        bad = PrimeBlock(rm=rm, sm=sm, tm=tuple(tm))
        try:
            want = reference_decompress(bad, asm)
        except IntegrityFailure:
            want = "IntegrityFailure"
        try:
            got = decompress(bad, asm)
        except IntegrityFailure:
            got = "IntegrityFailure"
        assert got == want
        accepted += want != "IntegrityFailure"
    assert 0 < accepted < 5000


def test_a_target_named_twice_is_rejected():
    """Prime 2 in two term slots, with every other count arranged so that
    the rebuild, the checksums and the size all come out right: only the
    check for a repeated target rejects it."""
    asm = AddSubMatrix((0b1000, 0b1000, 0, 0))  # delta(2,2) = delta(3,2) = +1, delta(2,3) = -1
    cb = PrimeBlock(
        rm={2: 10, 3: 20, 5: 7, 7: None},
        sm={2: [SequenceEvent(1, 4)], 3: [SequenceEvent(1, 4)], 5: [SequenceEvent(1, 1)], 7: []},
        tm=((2, 1), (3, 6), (2, 11), None),
    )
    with pytest.raises(IntegrityFailure, match="duplicate"):
        reference_decompress(cb, asm)
    with pytest.raises(IntegrityFailure, match="two term slots"):
        decompress(cb, asm)


def test_rebuild_rejects_a_consistent_block_of_the_wrong_size():
    """The first-processed target's runs are crossed by no other target, so
    a run one cell shorter or longer with its outcome moved by the prime
    passes every checksum; the block size alone rejects it."""
    rng = random.Random(15)
    for _ in range(300):
        symbols = cm.block_to_symbols(rng.getrandbits(30))
        asm = AddSubMatrix(tuple(rng.randrange(16) for _ in range(4)))
        cb = reference_compress(symbols, asm)
        first = symbols[0]
        k = rng.randrange(len(cb.sm[first])) if cb.sm[first] else None
        if k is None or cb.sm[first][k].redundant == 1:
            continue
        for step in (-1, 1):
            events = list(cb.sm[first])
            events[k] = SequenceEvent(events[k].seq, events[k].redundant + step)
            bad = PrimeBlock(rm={**cb.rm, first: cb.rm[first] + step * first}, sm={**cb.sm, first: events}, tm=cb.tm)
            for fn in (reference_decompress, decompress):
                with pytest.raises(IntegrityFailure, match="symbols, expected 15|exceeds block size"):
                    fn(bad, asm)


def test_rm_check_is_the_closed_form_on_honest_blocks():
    """An honest block's structure accepts exactly the closed-form outcomes
    of criterion 5 as its RM column, and no outcome off by k."""
    rng = random.Random(20260402)
    for _ in range(2000):
        symbols = list(cm.block_to_symbols(rng.getrandbits(30)))
        asm = AddSubMatrix(tuple(rng.randrange(16) for _ in range(4)))
        cb = reference_compress(symbols, asm)
        want = closed_form_outcomes(symbols, asm)
        rm = {p: want.get(p) for p in PRIMES}
        assert decompress(PrimeBlock(rm=rm, sm=cb.sm, tm=cb.tm), asm) == tuple(symbols)
        p = rng.choice(list(want))
        off = {**rm, p: rm[p] + rng.choice((-5, -2, -1, 1, 2, 5))}
        with pytest.raises(IntegrityFailure):
            decompress(PrimeBlock(rm=off, sm=cb.sm, tm=cb.tm), asm)
